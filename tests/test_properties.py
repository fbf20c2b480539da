"""Property tests for the sign conventions of the boundary operators, for
the transposes the sl2 certificate relies on, for the modular nullities of
the cross-check (per slice and per level), and for the axioms of the
coefficient rings of the series arithmetic.

``differential`` and ``codifferential`` place their signs by ``bisect``
insertion.  The references below build the raw replacement word and let the
insertion sort ``normalize_wedge`` decide its sign, so the two routes share
no sign logic.
"""

import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afflap.chains import (
    BlockBasis,
    Level,
    adjoint_action,
    adjoint_coo,
    chain_insert,
    codifferential,
    codifferential_coo,
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
    coo_from_keys,
    exact_nullity,
    level_ranks_mod_p,
    nullity_mod_p,
    rank_mod_p,
)
from afflap.series import EisensteinInt
from afflap.sl2 import HalfLaurent, RepRingElement
from test_linalg import int_matrix

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
                chain_insert(out, nm, coeff * e * sign * (-1) ** (s + t + 1))
    return out


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
                chain_insert(out, nm, coeff * epsilon(b - a) * sign * (-1) ** s)
    return out


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
        return {basis.w: matrix_of(op, basis, parts.get((q + shift[0], basis.w + shift[1]))
                                   or BlockBasis(k, h, (), w=basis.w + shift[1]))
                for basis in src.slices}
    except ValueError:
        return None


def _array_slices(build, src, tgt, dw: int) -> dict:
    """The slices of the level matrix ``build()`` in the layout of
    ``_slice_matrices``; None when ``build`` raises ValueError."""
    try:
        matrix = build()
    except ValueError:
        return None
    return {basis.w: int_matrix(matrix.block(*tgt.span(basis.w + dw), *src.span(basis.w)))
            for basis in src.slices}


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
    -1 and 2, e_-1 can leave L(k): then both routes raise ValueError."""
    parts = slices_of(enumerate_block(k, h))
    by_q = levels(parts)
    level = {q: by_q.get(q) or Level(k, h, q) for q in range(max(by_q) + 3)}
    for q in range(max(by_q) + 2):
        src = level[q]
        if q:
            assert (_array_slices(lambda: differential_coo(k, src, level[q - 1]), src, level[q - 1], 0)
                    == _slice_matrices(lambda c: differential(k, c), parts, src, (-1, 0)))
        assert (_array_slices(lambda: codifferential_coo(k, src, level[q + 1]), src, level[q + 1], 0)
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
    """nullity_mod_p eliminates each connected component of the sparsity
    graph on its own; the nullities must be those of exact elimination on
    the whole matrix, for every shift."""
    matrix, lams = case
    assert nullity_mod_p(matrix, lams) == [exact_nullity(matrix, lam) for lam in lams]


def level_of(matrices: list) -> Coo:
    """The compressed block-diagonal ``Coo`` with the square ``matrices`` on
    its diagonal, in order."""
    offsets = np.cumsum([0] + [matrix.shape[0] for matrix in matrices])
    n = int(offsets[-1])
    key = np.concatenate([(m.cols + off) * n + m.rows + off
                          for m, off in zip(matrices, offsets)])
    return coo_from_keys((n, n), key, np.concatenate([m.vals for m in matrices]))


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
    """One ``level_ranks_mod_p`` pass over a block-diagonal level gives each
    slice the ranks of ``rank_mod_p`` on the slice alone, and those of exact
    elimination with each lam replaced by ``_small_representative(lam)``."""
    matrices = [matrix for matrix, _ in case]
    lams = [slice_lams for _, slice_lams in case]
    got = level_ranks_mod_p(level_of(matrices), [m.shape for m in matrices], lams)
    assert got == [rank_mod_p(matrix, slice_lams) for matrix, slice_lams in case]
    assert got == [[bareiss_rank((matrix.dense() - _small_representative(lam)
                                  * np.eye(matrix.shape[0], dtype=np.int64)).tolist())
                    for lam in slice_lams] for matrix, slice_lams in case]


def test_level_ranks_refuse_a_component_across_two_slices():
    """Entries (0, 0) and (0, 2) join column 2 to row 0: one component over
    both 2x2 slices, which the whole 4x4 matrix as one slice allows."""
    level = coo_from_keys((4, 4), np.array([0, 8]), np.array([1, 1]))
    assert level_ranks_mod_p(level, [(4, 4)], [[0, 1]]) == [[1, 3]]
    with pytest.raises(ValueError, match="component"):
        level_ranks_mod_p(level, [(2, 2), (2, 2)], [[0], [0]])


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
    st.builds(EisensteinInt, SMALL_INTS, SMALL_INTS),
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
