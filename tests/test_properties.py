"""Property tests for the sign conventions of the boundary operators, for
the transposes the sl2 certificate relies on, for the modular nullities and
exact kernels of the cross-check (per slice and per level), for the axioms
of the coefficient rings of the series arithmetic, and for the residue-grid
``product_over`` against the dict-ring product.

``differential`` and ``codifferential`` place their signs by ``bisect``
insertion.  The references below build the raw replacement word and let the
insertion sort ``normalize_wedge`` decide its sign, so the two routes share
no sign logic.
"""

import operator
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afflap import linalg
from afflap.chains import (
    BlockBasis,
    Level,
    adjoint_action,
    adjoint_coo,
    codifferential,
    codifferential_transpose_coo,
    conjugate_action,
    differential,
    differential_coo,
    enumerate_block,
    levels,
    matrix_of,
    normalize_wedge,
    raising_action,
    weight,
)
from afflap.chains import slices as slices_of
from afflap.generators import epsilon, generator_degree
from afflap.linalg import (
    DEFAULT_PRIME,
    Coo,
    bareiss_rank,
    coo_diag,
    coo_from_keys,
    coo_sum,
    exact_nullity,
    fraction_kernel,
    level_kernels,
    level_nullities,
    level_ranks_mod_p,
    nullity_mod_p,
    rank_mod_p,
    runs,
    sparse_sum,
    stable_order,
)
from afflap.linalg import _ranks_mod_p
from afflap.series import Series, product_over
from afflap.sl2 import HalfLaurent, RepRingElement, weyl_inverse, weyl_map
from test_linalg import int_matrix
from test_series import assert_same_series, naive_product_over

# derandomized and without an example database, so the suite stays
# reproducible and leaves no files behind
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

KS = st.integers(min_value=-1, max_value=4)


@st.composite
def monomials(draw):
    """(k, monomial) with a monomial of L(k) of at most six factors."""
    k = draw(KS)
    indices = draw(st.sets(st.integers(min_value=k, max_value=k + 24), max_size=6))
    return k, tuple(sorted(indices))


@st.composite
def chains(draw):
    """(k, chain): a few monomials of L(k) with small nonzero coefficients."""
    k = draw(KS)
    monos = draw(st.lists(
        st.sets(st.integers(min_value=k, max_value=k + 18), max_size=5),
        min_size=1, max_size=4))
    coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
    return k, {tuple(sorted(m)): draw(coeffs) for m in monos}


def reference_differential(k: int, chain: dict) -> dict:
    """Contract the pair (s, t) to e_{i_s + i_t} at the front, with sign
    (-1)^(s+t+1), and let normalize_wedge sort the word."""
    out: dict = {}
    for mono, coeff in chain.items():
        for s in range(len(mono)):
            for t in range(s + 1, len(mono)):
                e = epsilon(mono[t] - mono[s])
                word = (mono[s] + mono[t],) + mono[:s] + mono[s + 1:t] + mono[t + 1:]
                nz = normalize_wedge(word)
                if not e or nz is None:
                    continue
                sign, nm = nz
                out[nm] = out.get(nm, 0) + coeff * e * sign * (-1) ** (s + t + 1)
    return {nm: c for nm, c in out.items() if c}


def reference_codifferential(k: int, chain: dict) -> dict:
    """Replace the factor e_i at position s by every splitting e_a ^ e_b,
    a + b = i, k <= a < b, with sign (-1)^s eps(b - a)."""
    out: dict = {}
    for mono, coeff in chain.items():
        for s, i in enumerate(mono):
            for a in range(k, i - k + 1):
                b = i - a
                if a >= b or not epsilon(b - a):
                    continue
                nz = normalize_wedge(mono[:s] + (a, b) + mono[s + 1:])
                if nz is None:
                    continue
                sign, nm = nz
                out[nm] = out.get(nm, 0) + coeff * epsilon(b - a) * sign * (-1) ** s
    return {nm: c for nm, c in out.items() if c}


@PROPERTY
@given(monomials())
def test_differential_matches_normalize_wedge_reference(km):
    k, mono = km
    assert differential(k, {mono: 1}) == reference_differential(k, {mono: 1})


@PROPERTY
@given(monomials())
def test_codifferential_matches_normalize_wedge_reference(km):
    k, mono = km
    assert codifferential(k, {mono: 1}) == reference_codifferential(k, {mono: 1})


@PROPERTY
@given(chains())
def test_operators_match_reference_on_chains(kc):
    k, chain = kc
    assert differential(k, chain) == reference_differential(k, chain)
    assert codifferential(k, chain) == reference_codifferential(k, chain)


@PROPERTY
@given(monomials())
def test_boundary_squares_to_zero(km):
    k, mono = km
    assert differential(k, differential(k, {mono: 1})) == {}
    assert codifferential(k, codifferential(k, {mono: 1})) == {}


@st.composite
def slices(draw, ks=KS):
    """(k, h, w, q) naming a nonempty (q, w) slice of a degree-h block."""
    k = draw(ks)
    h = draw(st.integers(min_value=0, max_value=6))
    keys = sorted({(len(m), weight(m)) for m in enumerate_block(k, h)})
    q, w = draw(st.sampled_from(keys))
    return k, h, w, q


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(slices())
def test_consecutive_slice_boundaries_compose_to_zero(khwq):
    """D_q D_{q+1} = 0 on the slice matrices, and the codifferential matrix
    is the transpose of the differential matrix on each slice pair."""
    k, h, w, q = khwq
    block = enumerate_block(k, h, w)
    below, here, above = (block.restrict(q=q + i) for i in (-1, 0, 1))
    d_q = matrix_of(lambda c: differential(k, c), here, below)
    d_up = matrix_of(lambda c: differential(k, c), above, here)
    assert (d_q * d_up).is_zero()
    assert matrix_of(lambda c: codifferential(k, c), below, here) == d_q.transpose()


def slice_basis(k: int, h: int, w: int, q: int):
    return enumerate_block(k, h, w).restrict(q=q)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(slices(st.sampled_from((-1, 2))))
def test_lowering_matrix_is_the_transpose_of_raising(khwq):
    """For k in {-1, 2} the matrix of e_-1 from (q, w+1) to (q, w) equals
    the transpose of the matrix of e_1 from (q, w) to (q, w+1), as whole
    slice matrices, so an entry on either side counts."""
    k, h, w, q = khwq
    here, above = slice_basis(k, h, w, q), slice_basis(k, h, w + 1, q)
    up = matrix_of(lambda c: adjoint_action(1, c, k), here, above)
    down = matrix_of(lambda c: adjoint_action(-1, c, k), above, here)
    assert down == up.transpose()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(slices(), st.integers(min_value=1, max_value=6))
def test_conjugate_action_is_the_transpose_of_raising(khwq, r):
    """conjugate_action(r) from (q, w + eps(r), h + deg e_r) back to
    (q, w, h) is the transpose of raising_action(r), as whole slice
    matrices."""
    k, h, w, q = khwq
    here = slice_basis(k, h, w, q)
    there = slice_basis(k, h + generator_degree(r), w + epsilon(r), q)
    up = matrix_of(lambda c: raising_action(r, c, k), here, there)
    back = matrix_of(lambda c: conjugate_action(r, c, k), there, here)
    assert back == up.transpose()


def _slice_matrices(op, parts: dict, src, shift: tuple) -> dict:
    """The ``matrix_of`` of ``op`` from each (q, w) slice of the level
    ``src`` to the (q + dq, w + dw) slice of ``parts``, for
    ``shift`` = (dq, dw), keyed by w; None when ``op`` raises ValueError on
    some slice."""
    k, h, q = src.k, src.h, src.q
    try:
        return {w: matrix_of(op, parts[q, w], parts.get((q + shift[0], w + shift[1]))
                             or BlockBasis(k, h, (), w=w + shift[1]))
                for w in src.bounds}
    except ValueError:
        return None


def _array_slices(build, src, tgt, dw: int) -> dict:
    """The slices of the level matrix ``build()`` in the layout of
    ``_slice_matrices``; None when ``build`` raises ValueError."""
    try:
        matrix = build()
    except ValueError:
        return None
    return {w: int_matrix(matrix.block(*tgt.span(w + dw), a, b))
            for w, (a, b) in src.bounds.items()}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(KS, st.integers(min_value=0, max_value=9))
@example(-1, 0)  # h = 0: the level q = 0 holds the empty monomial
@example(2, 1)   # one level, q = 1, between two empty ones
@example(-1, 9)
def test_level_arrays_match_the_per_monomial_operators(k, h):
    """Every slice of the level arrays D_q, delta, E_1 and E_-1 equals the
    ``matrix_of`` of ``differential``, ``codifferential`` and
    ``adjoint_action``.  The levels run from q = 0 to one past the top of
    the block, so empty levels and empty neighbours are included; an entry
    outside the compared slice makes ``Coo.block`` raise.  For k other than
    -1 and 2, e_-1 can leave L(k): then both routes raise ValueError.

    The levels group their rows by numpy weights; each of their slices must
    be the slice that ``slices`` groups by the per-monomial ``weight``, in
    the same order, and each level must hold exactly the weights of its q,
    in increasing order."""
    block = enumerate_block(k, h)
    parts = slices_of(block)
    by_q = levels(block)
    for q, src in by_q.items():
        assert list(src.bounds) == [w for (p, w) in parts if p == q]
        for w, (a, b) in src.bounds.items():
            assert list(map(tuple, src.monos[a:b].tolist())) == list(parts[q, w].monomials)
            assert src.weights[a:b].tolist() == [w] * (b - a)
    level = {q: by_q.get(q) or Level(k, h, q) for q in range(max(by_q) + 3)}
    for q in range(max(by_q) + 2):
        src = level[q]
        if q:
            assert (_array_slices(lambda: differential_coo(k, src, level[q - 1]), src, level[q - 1], 0)
                    == _slice_matrices(lambda c: differential(k, c), parts, src, (-1, 0)))
        assert (_array_slices(lambda: coo_sum((len(level[q + 1]), len(src)),
                                              codifferential_transpose_coo(k, src, level[q + 1]).T),
                              src, level[q + 1], 0)
                == _slice_matrices(lambda c: codifferential(k, c), parts, src, (1, 0)))
        for g in (1, -1):
            assert (_array_slices(lambda: adjoint_coo(g, k, src), src, src, g)
                    == _slice_matrices(lambda c: adjoint_action(g, c, k), parts, src, (0, g)))


# ---------------------------------------------------------------------------
# modular nullities, one sparsity component at a time

def permuted_blocks(blocks: list, perm: list) -> Coo:
    """The compressed block-diagonal matrix of ``blocks`` (square lists of
    rows), with index i renamed perm[i] on both rows and columns."""
    keys, vals = [], []
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                keys.append(perm[offset + j] * len(perm) + perm[offset + i])
                vals.append(v)
        offset += len(block)
    return coo_from_keys((len(perm), len(perm)), np.array(keys, dtype=np.int64),
                         np.array(vals, dtype=np.int64))


ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5))


@st.composite
def shifted_block_matrices(draw):
    """(matrix, lams): random integer blocks conjugated by a random
    permutation, and shifts drawn mostly from the block diagonals, so some
    of them are eigenvalues."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), max_size=6))
    blocks = [[[draw(ENTRIES) for _ in range(n)] for _ in range(n)] for n in sizes]
    perm = draw(st.permutations(range(sum(sizes))))
    diagonal = [row[i] for block in blocks for i, row in enumerate(block)]
    lams = draw(st.lists(st.sampled_from(diagonal + [0, 1, -2]), min_size=1, max_size=5))
    return permuted_blocks(blocks, perm), lams


def _ring(n: int) -> list:
    """A fixed permutation of range(n), for n prime to 7."""
    return [(i * 7 + 3) % n for i in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shifted_block_matrices())
@example((Coo.empty((5, 5)), [0, 3]))  # no nonzeros: empty index arrays
@example((permuted_blocks([[[3]]], [0]), [3, 0, -1]))
@example((permuted_blocks([[[1] * 8] * 8], _ring(8)), [0, 8, 1, 0]))  # one component
@example((permuted_blocks([[[2] * 6] * 6] + [[[i % 3]] for i in range(20)], _ring(26)),
          [0, 1, 2, 12]))  # one large component beside singletons
def test_modular_nullities_match_exact_on_permuted_blocks(case):
    """nullity_mod_p and level_kernels eliminate each connected component
    of the sparsity graph on its own; the nullities must be those of exact
    elimination on the whole matrix, and the kernel its reduced kernel
    basis, for every shift."""
    matrix, lams = case
    assert nullity_mod_p(matrix, lams) == [exact_nullity(matrix, lam) for lam in lams]
    n = matrix.shape[0]
    for lam in lams:
        shifted = coo_sum(matrix.shape, matrix, coo_diag([-lam] * n))
        rows = shifted.dense().tolist()
        assert level_kernels(shifted, [n]) == [fraction_kernel(rows) if n else []], lam


def level_of(matrices: list) -> Coo:
    """The compressed block-diagonal ``Coo`` with the square ``matrices`` on
    its diagonal, in order."""
    offsets = np.cumsum([0] + [matrix.shape[0] for matrix in matrices])
    n = int(offsets[-1])
    empty = [np.zeros(0, dtype=np.int64)]  # for a level of no matrices
    key = np.concatenate(empty + [(m.cols + off) * n + m.rows + off
                                  for m, off in zip(matrices, offsets)])
    return coo_from_keys((n, n), key, np.concatenate(empty + [m.vals for m in matrices]))


def _small_representative(lam: int) -> int:
    """The integer of least absolute value congruent to lam mod p."""
    r = lam % DEFAULT_PRIME
    return r - DEFAULT_PRIME if r > DEFAULT_PRIME // 2 else r


@st.composite
def block_diagonal_levels(draw):
    """[(slice, lams)]: slices as in ``shifted_block_matrices``, so their
    components have mixed shapes, each with a lam list of its own, possibly
    empty, holding negative lams and multiples of p."""
    slices = draw(st.lists(shifted_block_matrices(), min_size=1, max_size=4))
    p = DEFAULT_PRIME
    return [(matrix, draw(st.lists(st.sampled_from(lams + [-2, p, -3 * p]), max_size=4)))
            for matrix, lams in slices]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(block_diagonal_levels())
@example([(permuted_blocks([[[3]]], [0]), []),  # 1x1 slices, an empty lam list
          (permuted_blocks([[[2]], [[-1]]], [1, 0]), [-1, 2, DEFAULT_PRIME, 0])])
@example([(permuted_blocks([[[1, 2, 0], [0, 1, 0], [5, 0, 1]], [[-3]], [[2, 1], [1, 2]]],
                           _ring(6)), [1, -3, 3, -DEFAULT_PRIME]),  # 3x3, 1x1 and 2x2 components
          (Coo.empty((2, 2)), [0, 5])])
def test_level_ranks_match_the_slice_ranks(case):
    """One ``level_ranks_mod_p`` pass over the block-diagonal level of the
    slices S - lam I, one block for each slice S and each of its lams,
    gives each slice the ranks of ``rank_mod_p`` on the slice alone, and
    those of exact elimination with each lam replaced by
    ``_small_representative(lam)``."""
    blocks = [coo_sum(matrix.shape, matrix, coo_diag([-lam] * matrix.shape[0]))
              for matrix, slice_lams in case for lam in slice_lams]
    ranks = iter(level_ranks_mod_p(level_of(blocks), [m.shape for m in blocks]))
    got = [[next(ranks) for _ in slice_lams] for _, slice_lams in case]
    assert got == [rank_mod_p(matrix, slice_lams) for matrix, slice_lams in case]
    assert got == [[bareiss_rank((matrix.dense() - _small_representative(lam)
                                  * np.eye(matrix.shape[0], dtype=np.int64)).tolist())
                    for lam in slice_lams] for matrix, slice_lams in case]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(block_diagonal_levels())
@example([(Coo.empty((0, 0)), [1]), (permuted_blocks([[[3]]], [0]), [3]),
          (Coo.empty((2, 2)), [])])  # an empty slice, a 1x1 kernel, a zero slice
def test_level_kernels_match_the_slice_kernels(case):
    """``level_kernels`` on a block-diagonal level gives each slice, shifted
    by its first lam, the ``fraction_kernel`` of the slice alone."""
    matrices = [coo_sum(m.shape, m, coo_diag([-lams[0] if lams else 0] * m.shape[0]))
                for m, lams in case]
    got = level_kernels(level_of(matrices), [m.shape[0] for m in matrices])
    assert got == [fraction_kernel(m.dense().tolist()) if m.shape[0] else [] for m in matrices]


@st.composite
def integer_spectrum_levels(draw):
    """[(slice, lams)]: slices made of small blocks with integer
    eigenvalues, each a diagonal matrix conjugated by elementary integer
    matrices, sometimes with a Jordan block, and permuted as in
    ``shifted_block_matrices``; the lams of a slice are its eigenvalues and
    a few others, one of them sometimes left out, in random order."""
    levels = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        blocks, eigenvalues = [], set()
        for n in draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)):
            diag = draw(st.lists(st.integers(min_value=-2, max_value=3), min_size=n, max_size=n))
            a = np.diag(diag).astype(np.int64)
            if n > 1 and diag[0] == diag[1] and draw(st.booleans()):
                a[0, 1] = 1  # a Jordan block at diag[0]
            for _ in range(draw(st.integers(min_value=0, max_value=3)) if n > 1 else 0):
                i, j = draw(st.permutations(range(n)))[:2]
                f = draw(st.integers(min_value=-2, max_value=2))
                a[i] += f * a[j]  # E a E^-1, with E = I + f e_i e_j^T
                a[:, j] -= f * a[:, i]
            blocks.append(a.tolist())
            eigenvalues |= set(diag)
        perm = draw(st.permutations(range(sum(map(len, blocks)))))
        lams = sorted(eigenvalues | set(draw(st.lists(st.sampled_from((-3, 0, 4))))))
        if lams and draw(st.integers(min_value=0, max_value=3)) == 0:
            lams.remove(draw(st.sampled_from(lams)))  # most often an eigenvalue
        levels.append((permuted_blocks(blocks, perm), draw(st.permutations(lams))))
    return levels


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_spectrum_levels())
@example([(permuted_blocks([[[1, 2], [2, 1]], [[3]]], [2, 0, 1]), [-1, 3]),
          (Coo.empty((0, 0)), [2]), (permuted_blocks([[[2, 1], [0, 2]]], [1, 0]), [2])])
def test_level_nullities_match_exact_elimination(case):
    """``level_nullities`` on a block-diagonal level gives each slice the
    exact nullities of its lams where their residual product vanishes, and
    None where it does not."""
    matrices = [matrix for matrix, _ in case]
    got = level_nullities(level_of(matrices), [m.shape[0] for m in matrices],
                          [lams for _, lams in case])
    for (matrix, lams), found in zip(case, got):
        dense = matrix.dense().astype(object)
        residual = np.eye(matrix.shape[0], dtype=object)
        for lam in lams:
            residual = residual @ (dense - lam * np.eye(matrix.shape[0], dtype=object))
        nullities = [exact_nullity(matrix, lam) for lam in lams]
        assert found == (None if residual.any() else nullities), (matrix, lams)
        assert found is None or sum(found) == matrix.shape[0]


def test_level_ranks_refuse_a_component_across_two_slices():
    """Entries (0, 0) and (0, 2) join column 2 to row 0: one component over
    both 2x2 slices, which the whole 4x4 matrix as one slice allows."""
    level = coo_from_keys((4, 4), np.array([0, 8]), np.array([1, 1]))
    assert level_ranks_mod_p(level, [(4, 4)]) == [1]
    assert rank_mod_p(level, [0, 1]) == [1, 3]
    with pytest.raises(ValueError, match="component"):
        level_ranks_mod_p(level, [(2, 2), (2, 2)])


# ---------------------------------------------------------------------------
# packed-word sums, stable orders, modular nonsingularity and exact kernels

@st.composite
def keyed_terms(draw):
    """(shape, keys, vals): terms on a small grid, with repeated keys,
    values that cancel to 0 and negative values; sometimes a key or a value
    range wide enough that the packed words would pass 2^63."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    wide = draw(st.sampled_from((None, "key", "value")))
    if wide:  # keys past 2^62, or values spread over 2^58 on keys up to 6 * 2^10
        rows = 1 << (60 if wide == "key" else 10)
    big = 1 << 57 if wide == "value" else 5  # 35 terms of one key sum below 2^63
    keys = draw(st.lists(st.integers(0, rows * cols - 1), max_size=30))
    vals = [draw(st.integers(-big, big)) for _ in keys]
    # each key also appears once more with its value negated: those cancel
    cancel = draw(st.lists(st.sampled_from(range(len(keys))), max_size=5)) if keys else []
    keys += [keys[i] for i in cancel]
    vals += [-vals[i] for i in cancel]
    return (rows, cols), np.array(keys, dtype=np.int64), np.array(vals, dtype=np.int64)


@PROPERTY
@given(keyed_terms())
@example(((2, 2), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))  # empty
@example(((1 << 40, 8), np.array([5, 5, 1 << 42]), np.array([3, -3, 7])))  # argsort path
@example(((3, 3), np.array([4, 4, 4, 0]), np.array([-(1 << 62), 1 << 62, -2, 1 << 62])))
def test_coo_from_keys_is_the_dict_sum(case):
    """The compressed matrix holds exactly the nonzero sums of the terms
    per key, sorted by column and then by row."""
    shape, keys, vals = case
    want = {key: v for key, v in sparse_sum(zip(keys.tolist(), vals.tolist())).items()}
    got = coo_from_keys(shape, keys, vals)
    nrows = shape[0]
    assert dict(zip((got.cols * nrows + got.rows).tolist(), got.vals.tolist())) == want
    assert np.all(np.diff(got.cols * nrows + got.rows) > 0)
    assert got.rows.dtype == got.cols.dtype == got.vals.dtype == np.int64


@PROPERTY
@given(st.lists(st.integers(-(1 << 62), 1 << 62), max_size=40), st.booleans())
@example([3, -1, 3, 0, -1], False)
def test_stable_order_is_the_stable_argsort(values, narrow):
    """Narrow keys take the packed-word sort, wide ones the argsort."""
    key = np.array([v % 7 if narrow else v for v in values], dtype=np.int64)
    assert stable_order(key).tolist() == np.argsort(key, kind="stable").tolist()


@PROPERTY
@given(st.lists(st.integers(0, 50), max_size=40), st.integers(1, 60))
@example([], 1)
@example([0, 70, 0, 0, 3], 10)  # an item over the budget, and items of no cost
def test_runs_cover_every_item_in_order_under_the_budget(cost, budget):
    """The runs tile the items in order, none is empty, and each costs at
    most ``PASS_BUDGET`` unless it is one item alone."""
    cost = np.array(cost, dtype=np.int64)
    with patch.object(linalg, "PASS_BUDGET", budget):
        got = list(runs(cost))
    assert [i for a, b in got for i in range(a, b)] == list(range(cost.size))
    for a, b in got:
        assert b > a
        assert b - a == 1 or cost[a:b].sum() <= budget


@PROPERTY
@given(st.integers(1, 6), st.data())
@example(2, None)
def test_a_modular_nonsingularity_proof_is_sound(n, data):
    """A matrix is proved nonsingular exactly when it has full rational
    rank: with entries in [-3, 3] and n <= 6 every minor is below p
    (Hadamard), so the rank mod p is the rational rank, a zero leading
    pivot included.  A positive definite matrix is proved."""
    if data is None:
        rows = [[0, 1], [1, 0]]
    else:
        rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                  min_size=n, max_size=n))

    def proved(rows):
        return _ranks_mod_p(np.array([rows]) % DEFAULT_PRIME, DEFAULT_PRIME)[0] == len(rows)

    assert proved(rows) == (bareiss_rank(rows) == len(rows))
    gram_rows = (np.array(rows).T @ np.array(rows) + np.eye(len(rows), dtype=np.int64)).tolist()
    assert proved(gram_rows)


def reduced_kernel(rows: list) -> list:
    """The reduced echelon kernel basis by Gauss-Jordan elimination over
    Fraction: the oracle for ``fraction_kernel``."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: list = []
    for col in range(len(m[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    kernel = []
    for f in (c for c in range(len(m[0])) if c not in pivots):
        vec = {f: Fraction(1)}
        vec.update((pc, -m[r][f]) for r, pc in enumerate(pivots) if pc < f and m[r][f])
        kernel.append(vec)
    return kernel


@PROPERTY
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 4), st.data())
def test_fraction_kernel_is_the_reduced_kernel(n, m, r, data):
    """``fraction_kernel`` solves its triangular systems in integers over
    the last pivot; its basis is the Gauss-Jordan one over Fraction, on
    products of rank at most r, which have wide kernels and big minors."""
    a = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=r, max_size=r),
                           min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                           min_size=r, max_size=r))
    rows = (np.array(a, dtype=np.int64).reshape(n, r) @ np.array(b, dtype=np.int64).reshape(r, m)).tolist()
    assert fraction_kernel(rows) == reduced_kernel(rows)


# ---------------------------------------------------------------------------
# ring axioms of the series coefficient rings

SMALL_INTS = st.integers(min_value=-9, max_value=9)
# one strategy per coefficient type; the ints 0 and 1 are every ring's zero and one
ELEMENTS = (
    st.integers(min_value=-10**12, max_value=10**12),
    st.dictionaries(st.integers(min_value=-7, max_value=7), SMALL_INTS,
                    max_size=4).map(HalfLaurent),
    st.dictionaries(st.integers(min_value=0, max_value=7), SMALL_INTS,
                    max_size=4).map(RepRingElement),
)


@st.composite
def ring_triples(draw):
    """(x, y, z): three elements of one coefficient type."""
    elements = draw(st.sampled_from(ELEMENTS))
    return tuple(draw(elements) for _ in range(3))


@PROPERTY
@given(ring_triples())
def test_ring_multiplication_is_commutative_and_associative(xyz):
    x, y, z = xyz
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


@PROPERTY
@given(ring_triples())
def test_ring_multiplication_distributes_over_addition(xyz):
    x, y, z = xyz
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@PROPERTY
@given(ring_triples(), SMALL_INTS)
def test_ring_unit_zero_and_integer_scalars(xyz, n):
    x, _, _ = xyz
    assert x * 1 == x and 1 * x == x
    assert x + 0 == x and 0 + x == x
    assert not x * 0 and not 0 * x
    assert x - x == 0
    assert x * n == n * x == (x - x + n) * x


@PROPERTY
@given(ring_triples(), SMALL_INTS)
def test_ring_elements_equal_to_an_int_hash_like_it(xyz, n):
    """x == n implies hash(x) == hash(n), so a set or dict key treats them
    as one."""
    x, _, _ = xyz
    for elem in (x, x - x + n):
        if elem == n:
            assert hash(elem) == hash(n) and len({elem, n}) == 1, elem


@st.composite
def mixed_pairs(draw):
    """(x, y): elements of two different coefficient rings."""
    first, second = draw(st.permutations(ELEMENTS[1:]))[:2]
    return draw(first), draw(second)


@PROPERTY
@given(mixed_pairs())
def test_mixing_two_coefficient_rings_raises_type_error(xy):
    """+, - and * refuse elements of another ring instead of reading their
    terms as their own; == just answers False."""
    x, y = xy
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, y)
    assert not x == y and x != y


# ---------------------------------------------------------------------------
# the residue-grid product against the dict-ring product

TINY_INTS = st.integers(min_value=-3, max_value=3)
# an int family, or ints mixed with the elements of one ring
FACTOR_RINGS = {
    int: TINY_INTS,
    HalfLaurent: st.dictionaries(st.integers(min_value=-4, max_value=4), TINY_INTS,
                                 max_size=3).map(HalfLaurent),
    RepRingElement: st.dictionaries(st.integers(min_value=0, max_value=4), TINY_INTS,
                                    max_size=3).map(RepRingElement),
}


@st.composite
def factor_families(draw):
    """(order, factors): up to four sparse factors of one family.  A term
    coefficient is an int (now and then 10^12) or an element of the
    family's ring, zero included; the constant is 1 or the ring's one."""
    order = draw(st.integers(min_value=1, max_value=10))
    ring = draw(st.sampled_from(list(FACTOR_RINGS)))
    coeff = st.one_of(TINY_INTS, st.sampled_from([10**12, -10**12]), FACTOR_RINGS[ring])
    const = st.sampled_from([1] if ring is int else [1, ring.one()])
    factor = st.builds(lambda c, terms: [(0, c)] + terms, const,
                       st.lists(st.tuples(st.integers(min_value=1, max_value=order + 1), coeff),
                                min_size=1, max_size=4))
    return order, draw(st.lists(factor, max_size=4))


@PROPERTY
@given(factor_families())
@example((8, [[(0, 1), (1, 10**4)]] * 6))  # coefficients pass 2^63: three primes
@example((6, [[(0, 1), (1, 10**12), (2, HalfLaurent({2: 1, -2: 1}))],
              [(0, HalfLaurent.one()), (3, HalfLaurent({1: -1}))]]))  # reduced term by term
@example((5, [[(0, 1), (1, -10**30)]] * 2))  # a term coefficient past int64
# x^1 of the two factors is z - z, a ring zero
@example((3, [[(0, 1), (1, RepRingElement({2: 1}))], [(0, 1), (1, RepRingElement({2: -1}))]]))
def test_product_over_matches_the_dict_ring_product(family):
    """Value, type and repr of every coefficient equal the dict-ring
    product's: a coefficient is a ring element exactly when a nonzero
    coefficient met a nonzero term and one of them was a ring element, and
    a ring coefficient that cancels stays a ring zero.  A representation-ring
    family goes through its Weyl characters: weyl_map on the way in,
    weyl_inverse on the way out."""
    order, factors = family

    def factor_terms(a):
        return factors[a - 1] if a <= len(factors) else [(0, 1)]

    def characters(a):
        return [(e, weyl_map(c) if isinstance(c, RepRingElement) else c)
                for e, c in factor_terms(a)]

    if any(isinstance(c, RepRingElement) for factor in factors for _, c in factor):
        got = product_over(order, characters)
        got = Series(order, [weyl_inverse(c) if isinstance(c, HalfLaurent) else c
                             for c in got.coeffs])
    else:
        got = product_over(order, factor_terms)
    assert_same_series(got, naive_product_over(order, factor_terms))
