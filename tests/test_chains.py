import re
from itertools import combinations
from math import comb

import numpy as np
import pytest

from afflap import chains
from afflap.chains import (
    KEY_BITS,
    Level,
    adjoint_action,
    block_dim_table,
    block_levels,
    codifferential,
    codifferential_transpose_coo,
    conjugate_action,
    differential,
    differential_coo,
    enumerate_block,
    levels,
    matrix_of,
    normalize_wedge,
    weight,
    weight_dim_table,
)
from afflap.generators import epsilon, generator_degree

SMALL_KS = (-1, 0, 1, 2)
H_SMALL = 5


def test_normalize_wedge():
    assert normalize_wedge([4, 2]) == (-1, (2, 4))
    assert normalize_wedge([2, 2]) is None
    assert normalize_wedge([5, 2, 3]) == (1, (2, 3, 5))
    assert normalize_wedge([]) == (1, ())
    assert normalize_wedge([7]) == (1, (7,))


def test_normalize_wedge_matches_inversion_parity():
    from itertools import permutations

    for word in permutations((1, 3, 6, 8)):
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if word[i] > word[j])
        sign, mono = normalize_wedge(word)
        assert mono == (1, 3, 6, 8)
        assert sign == (1 if inversions % 2 == 0 else -1)


def test_derivation_sign_against_naive_route():
    """The bisect-based derivation must agree with re-normalizing the raw
    replacement word, sign included."""
    from afflap.generators import epsilon, generator_degree

    for k, h in ((-1, 2), (2, 4)):
        for mono in enumerate_block(k, h):
            got = adjoint_action(-1, {mono: 1}, k)
            naive: dict = {}
            for s, i in enumerate(mono):
                e = epsilon(i + 1)
                if not e or i - 1 < k:
                    continue
                nz = normalize_wedge(mono[:s] + (i - 1,) + mono[s + 1:])
                if nz is None:
                    continue
                sign, nm = nz
                c = naive.get(nm, 0) + e * sign
                if c:
                    naive[nm] = c
                else:
                    del naive[nm]
            assert got == naive, (k, mono)


def test_enumerate_block_examples():
    b = enumerate_block(2, 2)
    assert set(b.monomials) == {(5,), (6,), (7,), (2, 3), (2, 4), (3, 4)}
    assert b.dim == 6
    assert enumerate_block(2, 0).monomials == ((),)
    assert enumerate_block(1, 1, 2).monomials == ((1, 4),)
    # unit monomial belongs to every h=0 block, even for large k
    assert enumerate_block(7, 0).monomials == ((),)


def tuple_search(k: int, h: int, w: int | None = None) -> list:
    """The monomials of the degree-h block of L(k), of weight w when given,
    in lexicographic order: the oracle for ``chains._block_arrays``.

    Positive-degree generators are collected depth first, pruned once the
    degree budget is exhausted; the at most three degree-zero generators
    (indices -1, 0, 1 when >= k) are distributed by subset expansion.  The
    empty monomial belongs to the h = 0 block for every k.
    """
    zero_gens = [a for a in (-1, 0, 1) if a >= k]
    positive: list[tuple] = []
    if h == 0:
        positive.append(())
    else:
        cur: list[int] = []

        def descend(a: int, rem: int) -> None:
            while True:
                d = generator_degree(a)
                if d > rem:
                    return
                if d > 0:
                    break
                a += 1
            descend(a + 1, rem)
            cur.append(a)
            if rem == d:
                positive.append(tuple(cur))
            else:
                descend(a + 1, rem - d)
            cur.pop()

        descend(max(k, 2), h)
    monos = [zs + tail for tail in positive for r in range(len(zero_gens) + 1)
             for zs in combinations(zero_gens, r)]
    return sorted(m for m in monos if w is None or weight(m) == w)


@pytest.mark.parametrize("k", range(-1, 5))
def test_array_enumeration_matches_the_tuple_search(k):
    """``enumerate_block``, with and without a weight, and the arrays of
    each q it is built from list the monomials of the tuple search, in its
    order; ``block_levels`` holds the same levels as ``levels`` of the
    block."""
    for h in range(15):
        want = tuple_search(k, h)
        assert list(enumerate_block(k, h).monomials) == want
        arrays = chains._block_arrays(k, h)
        assert list(arrays) == sorted({len(m) for m in want})
        for q, rows in arrays.items():
            assert rows.dtype == np.int64 and rows.shape[1] == q
            assert list(map(tuple, rows.tolist())) == [m for m in want if len(m) == q]
        for w in range(-3, 4):
            assert list(enumerate_block(k, h, w).monomials) == tuple_search(k, h, w)
        by_q = levels(enumerate_block(k, h))
        for q, level in block_levels(k, h).items():
            assert level.monos.tolist() == by_q[q].monos.tolist()
            assert level.bounds == by_q[q].bounds


def test_enumerate_block_rejects_bad_k():
    with pytest.raises(ValueError):
        enumerate_block(-2, 1)
    with pytest.raises(ValueError):
        enumerate_block(1, -1)


def test_enumerate_block_order_is_lexicographic():
    for k in SMALL_KS:
        for h in range(H_SMALL):
            monos = enumerate_block(k, h).monomials
            assert list(monos) == sorted(monos)


def test_chain_helpers():
    from afflap.chains import add_chains, homogeneity, inner_product, scale_chain

    a = {(2, 3): 1, (5,): -2}
    b = {(5,): 2, (6,): 1}
    assert add_chains(a, b) == {(2, 3): 1, (6,): 1}
    assert scale_chain(a, 0) == {}
    assert scale_chain(b, 3) == {(5,): 6, (6,): 3}
    assert inner_product(a, b) == -4
    assert inner_product(a, {(7,): 5}) == 0
    with pytest.raises(ValueError):
        homogeneity({(5,): 1, (2, 3): 7})  # mixed q
    with pytest.raises(ValueError):
        homogeneity({})
    assert homogeneity({(2, 3): 4}) == (2, -1, 2)


def test_differential_examples():
    assert differential(2, {(5,): 1}) == {}
    assert differential(2, {(2, 3): 1}) == {(5,): 1}
    assert differential(-1, {(-1, 0, 1): 1}) == {}


def test_codifferential_examples():
    assert codifferential(1, {(5,): 1}) == {(2, 3): 1}
    # (2, 3) splits 5 inside L(2) as well, and (0, 1) splits 1 inside L(0);
    # both are forced by adjointness with the differential
    assert codifferential(2, {(5,): 1}) == {(2, 3): 1}
    assert codifferential(0, {(1,): 1}) == {(0, 1): 1}


def test_differential_squares_to_zero():
    for k in SMALL_KS:
        for h in range(H_SMALL + 1):
            for mono in enumerate_block(k, h):
                c = {mono: 1}
                assert differential(k, differential(k, c)) == {}
                assert codifferential(k, codifferential(k, c)) == {}


def test_adjointness_on_random_chains():
    """<d c1, c2> = <c1, delta c2> for arbitrary chains, not just monomials."""
    import random

    from afflap.chains import inner_product

    rng = random.Random(17)
    for k in (-1, 1, 2):
        monos = enumerate_block(k, 4).monomials
        for _ in range(12):
            c1 = {monos[rng.randrange(len(monos))]: rng.randint(-3, 3)
                  for _ in range(3)}
            c2 = {monos[rng.randrange(len(monos))]: rng.randint(-3, 3)
                  for _ in range(3)}
            lhs = inner_product(differential(k, c1), c2)
            rhs = inner_product(c1, codifferential(k, c2))
            assert lhs == rhs, (k, c1, c2)


def test_restrict_matches_filtered_enumeration():
    for k in (-1, 2):
        for h in range(4):
            full = enumerate_block(k, h)
            for w in range(-3, 4):
                assert full.restrict(w=w).monomials == enumerate_block(k, h, w).monomials


def test_adjointness_as_matrix_transpose():
    for k in SMALL_KS:
        for h in range(H_SMALL + 1):
            basis = enumerate_block(k, h)
            d = matrix_of(lambda c: differential(k, c), basis, basis)
            delta = matrix_of(lambda c: codifferential(k, c), basis, basis)
            assert delta == d.transpose()


def test_grading_shifts():
    from afflap.chains import degree, homogeneity

    for k in SMALL_KS:
        for h in range(1, H_SMALL + 1):
            for mono in enumerate_block(k, h):
                q, w, hh = len(mono), weight(mono), degree(mono)
                img = differential(k, {mono: 1})
                if img:
                    assert homogeneity(img) == (q - 1, w, hh)
                img = codifferential(k, {mono: 1})
                if img:
                    assert homogeneity(img) == (q + 1, w, hh)


def test_adjoint_action_examples():
    # the all-plus staircase is killed by the raising generator
    for q in range(1, 6):
        c = {tuple(4 + 3 * i for i in range(q)): 1}
        assert adjoint_action(1, c, 2) == {}
        assert adjoint_action(0, c, 2) == {m: q for m in c}
    assert adjoint_action(0, {(2, 4): 1}, 2) == {}
    assert adjoint_action(-1, {(4,): 1}, 2) == {(3,): -1}
    assert adjoint_action(1, {(-1,): 1}, -1) == {(0,): 1}
    with pytest.raises(ValueError):
        adjoint_action(2, {(4,): 1}, 2)


def test_adjoint_actions_commute_with_differentials():
    """The three sl2 actions are chain-map endomorphisms for k = -1 (mod 3)."""
    for k in (-1, 2):
        for h in range(4):
            for mono in enumerate_block(k, h):
                c = {mono: 1}
                for g in (-1, 0, 1):
                    lhs = adjoint_action(g, differential(k, c), k)
                    rhs = differential(k, adjoint_action(g, c, k))
                    assert lhs == rhs, (k, h, mono, g)
                    lhs = adjoint_action(g, codifferential(k, c), k)
                    rhs = codifferential(k, adjoint_action(g, c, k))
                    assert lhs == rhs, (k, h, mono, g)


def test_conjugate_action_matches_adjoint_inside_ideal():
    # for k = 2 the truncated lowering action coincides with the adjoint one
    for h in range(4):
        for mono in enumerate_block(2, h):
            c = {mono: 1}
            assert conjugate_action(1, c, 2) == adjoint_action(-1, c, 2)


def test_conjugate_action_truncates():
    # e_{-1} on e_3 inside L(3) would land on e_2, which is outside
    assert conjugate_action(1, {(3,): 1}, 3) == {}
    assert conjugate_action(1, {(4,): 1}, 3) == {(3,): -1}


def test_matrix_of_differential_on_block_2_2():
    basis = enumerate_block(2, 2)
    d = matrix_of(lambda c: differential(2, c), basis, basis)
    idx = basis.index
    # three nonzero columns, one per 2-monomial
    assert d.columns[idx[(2, 3)]] == {idx[(5,)]: 1}
    assert d.columns[idx[(2, 4)]] == {idx[(6,)]: -1}
    assert d.columns[idx[(3, 4)]] == {idx[(7,)]: 1}
    for mono in ((5,), (6,), (7,)):
        assert d.columns[idx[mono]] == {}


def test_matrix_of_weight_action_is_scalar():
    basis = enumerate_block(2, 3, 1)
    e0 = matrix_of(lambda c: adjoint_action(0, c, 2), basis, basis)
    for j in range(basis.dim):
        assert e0.columns[j] == {j: 1}


def test_matrix_of_rejects_escaping_images():
    source = enumerate_block(2, 2, 1)
    target = enumerate_block(2, 2, 1)
    with pytest.raises(ValueError):
        # lowering shifts weight by -1, so the image is outside this target
        matrix_of(lambda c: adjoint_action(-1, c, 2), source, target)


def test_block_dim_table_matches_enumeration():
    for k in SMALL_KS:
        table = block_dim_table(k, H_SMALL)
        counted: dict = {}
        for h in range(H_SMALL + 1):
            for mono in enumerate_block(k, h):
                key = (len(mono), weight(mono), h)
                counted[key] = counted.get(key, 0) + 1
        assert {kk: v for kk, v in table.items() if kk[2] <= H_SMALL} == counted


def test_weight_dim_table_consistency():
    """The q-free table against the q-refined one, built by separate runs."""
    for k in SMALL_KS:
        acc: dict = {}
        for (q, w, h), n in block_dim_table(k, 30).items():
            acc[(w, h)] = acc.get((w, h), 0) + n
        assert acc == weight_dim_table(k, 30)


def test_weight_dim_table_matches_enumeration():
    for k in SMALL_KS:
        counted: dict = {}
        for h in range(H_SMALL + 1):
            for mono in enumerate_block(k, h):
                key = (weight(mono), h)
                counted[key] = counted.get(key, 0) + 1
        assert weight_dim_table(k, H_SMALL) == counted


def test_weight_dim_table_prefix_property():
    """Raising h_max adds rows and never changes the rows below it."""
    for k in SMALL_KS:
        big = weight_dim_table(k, 40)
        for h0 in (0, 1, 7, 25):
            assert {key: n for key, n in big.items() if key[1] <= h0} == \
                weight_dim_table(k, h0)


def test_dim_tables_refuse_a_negative_h_max():
    for table in (block_dim_table, weight_dim_table):
        with pytest.raises(ValueError, match=r"^dimension tables need h_max >= 0, got h_max=-1$"):
            table(2, -1)


def monomial_counts_km1(h_max: int) -> list[int]:
    """The number of all monomials of L(-1) of each degree h <= h_max.

    There are three generators of every degree m >= 0, so these are the
    coefficients of 8 prod_{m >= 1} (1 + x^m)^3.
    """
    poly = [8] + [0] * h_max
    for m in range(1, h_max + 1):
        for _ in range(3):
            for e in range(h_max, m - 1, -1):
                poly[e] += poly[e - m]
    return poly


def test_weight_dim_table_exact_beyond_int64():
    """An entry above 2**63, and its degree column against the u = 1 product."""
    h = 253
    table = weight_dim_table(-1, h)
    assert table[(-1, h)] == 9304205918454155232 > 2**63
    assert sum(n for (w, hh), n in table.items() if hh == h) == monomial_counts_km1(h)[h]


def dict_dp_rows(k: int, h_max: int, by_q: bool) -> list[dict]:
    """The dimension tables by a dict DP, the oracle for ``chains._dim_grid``:
    ``rows[h]`` maps (q, w) to the number of monomials of degree h with q
    factors and weight w, or (0, w) to the count over all q without ``by_q``.

    Each generator runs over the rows from the highest h down, in place, and
    never touches an entry with h + deg a > h_max; a degree-zero generator
    reads a copy of its row.  Counts are Python ints, which do not overflow.
    """
    rows: list[dict] = [{} for _ in range(h_max + 1)]
    rows[0][0, 0] = 1
    a = k
    while (d := generator_degree(a)) <= h_max:
        e = epsilon(a)
        for h in range(h_max - d, -1, -1):
            src, dst = (rows[h], rows[h + d]) if d else (dict(rows[h]), rows[h])
            for (q, w), n in src.items():
                key = (q + by_q, w + e)
                dst[key] = dst.get(key, 0) + n
        a += 1
    return rows


def assert_tight_grid(k: int, h_max: int, by_q: bool, table: dict, dtype) -> None:
    """The grid has the stated dtype, and its extents are the largest |w| and
    the largest q of the table, so no full-width row hides in it."""
    g, width = chains._dim_grid(k, h_max, by_q)
    assert g.dtype == dtype
    ws = [key[-2] for key in table]
    assert width == max(max(ws), -min(ws))
    assert g.shape[1] - 1 == (max(q for q, _, _ in table) if by_q else 0)


@pytest.mark.parametrize("k", range(-1, 5))
def test_dim_tables_match_the_dict_dp(k):
    """Both tables against one dict DP by q; the weight table is its sum
    over q."""
    h_max = 160
    block = {(q, w, h): n for h, row in enumerate(dict_dp_rows(k, h_max, True))
             for (q, w), n in row.items()}
    weights: dict = {}
    for (_, w, h), n in block.items():
        weights[w, h] = weights.get((w, h), 0) + n
    assert block_dim_table.__wrapped__(k, h_max) == block
    assert weight_dim_table(k, h_max) == weights
    assert_tight_grid(k, h_max, True, block, np.int64)
    assert_tight_grid(k, h_max, False, weights, np.int64)


def test_weight_dim_table_matches_the_dict_dp_past_int64():
    h_max = 260
    weights = {(w, h): n for h, row in enumerate(dict_dp_rows(-1, h_max, False))
               for (_, w), n in row.items()}
    assert max(weights.values()) >= 2**63
    assert weight_dim_table(-1, h_max) == weights
    assert_tight_grid(-1, h_max, False, weights, object)
    # the grid leaves int64 at the first degree whose monomial count reaches 2**63
    first = next(h for h, n in enumerate(monomial_counts_km1(h_max)) if n >= 2**63)
    assert chains._dim_grid(-1, first - 1, False)[0].dtype == np.int64
    assert chains._dim_grid(-1, first, False)[0].dtype == object


def test_block_basis_builds_its_index_on_first_access():
    basis = enumerate_block(2, 8)
    assert basis._index is None
    assert basis.index == {m: i for i, m in enumerate(basis.monomials)}
    assert basis.index is basis.index


def test_generating_product_equals_enumeration():
    """Coefficients of prod (1 + t u^w(a) x^d(a)) count the block monomials."""
    for k in SMALL_KS:
        gens = [a for a in (-1, 0, 1) if a >= k]
        a = max(k, 2)
        from afflap.generators import generator_degree

        while generator_degree(a) <= 4:
            gens.append(a)
            a += 1
        poly = {(0, 0, 0): 1}
        for g in gens:
            dg, wg = generator_degree(g), epsilon(g)
            snapshot = list(poly.items())
            for (q, w, h), c in snapshot:
                if h + dg <= 4:
                    key = (q + 1, w + wg, h + dg)
                    poly[key] = poly.get(key, 0) + c
        for h in range(5):
            for mono in enumerate_block(k, h):
                key = (len(mono), weight(mono), h)
                poly[key] = poly.get(key, 0) - 1
        assert all(v == 0 for v in poly.values())


def test_operator_passes_in_runs_build_the_same_matrices(monkeypatch):
    """Runs of monomials bounded by ``PASS_BUDGET``, down to one monomial
    per run, build the same D_q and delta^T as one pass; an image outside
    the target names its own source monomial from any run."""
    by_q = block_levels(-1, 8)
    pairs = [(by_q[q], by_q[q - 1]) for q in by_q if q - 1 in by_q]
    want = [(differential_coo(-1, src, tgt), codifferential_transpose_coo(-1, tgt, src))
            for src, tgt in pairs]
    for budget in (1, 100):
        monkeypatch.setattr(chains, "PASS_BUDGET", budget)
        for (src, tgt), (d, delta_t) in zip(pairs, want):
            for got, ref in ((differential_coo(-1, src, tgt), d),
                             (codifferential_transpose_coo(-1, tgt, src), delta_t)):
                assert all(np.array_equal(x, y) for x, y in zip(got[1:], ref[1:]))
    monkeypatch.setattr(chains, "PASS_BUDGET", 1)
    (src, tgt), (d, _) = pairs[0], want[0]
    # the image whose first source comes last: with one monomial per run,
    # the error is raised from a run past the first
    first_source = {}
    for row, col in zip(d.rows.tolist(), d.cols.tolist()):
        first_source.setdefault(row, col)
    drop = max(first_source, key=first_source.get)
    assert first_source[drop] > 0
    short = Level(-1, 8, tgt.q, np.delete(tgt.monos, drop, axis=0))
    with pytest.raises(ValueError, match="is outside the target level") as raised:
        differential_coo(-1, src, short)
    image, source = (tuple(int(i) for i in part.split(", ") if i) for part in
                     re.match(r"image term \((.*?),?\) of \((.*?),?\) is", str(raised.value)).groups())
    assert image == tuple(tgt.monos[drop].tolist()) and image in differential(-1, {source: 1})


def test_level_keys_refuse_indices_past_their_width():
    """Keys are colex ranks, read from a table with one row per index
    minus k; a level whose indices minus k reach 2^16, or whose ranks could
    reach 2^63, is refused with k, h and q named, and so is an index below
    k, not wrapped into a false match."""
    top = (1 << KEY_BITS) - 1
    level = Level(0, 1, 2, [(0, top)])
    assert level.find(level.pack(np.array([[0, top]]))).tolist() == [0]
    with pytest.raises(OverflowError, match="k=0, h=1, q=2"):
        Level(0, 1, 2, [(0, top + 1)])
    with pytest.raises(OverflowError, match="k=0, h=1, q=2"):
        level.pack(np.array([[-1, 3]]))
    # at q = 20 the int64 rank limit comes first: the largest index c with
    # C(c + 1, 20) <= 2^63, and the index after it
    q = 20
    c = next(c for c in range(q, top) if comb(c + 2, q) > 1 << 63)
    row = np.arange(c - q + 1, c + 1) - 1  # the indices, k = -1
    level = Level(-1, 3, q, [row])
    assert level.pack(row[None]).tolist() == [comb(c + 1, q) - 1]
    assert level.find(level.pack(row[None])).tolist() == [0]
    with pytest.raises(OverflowError, match="k=-1, h=3, q=20"):
        Level(-1, 3, q, [row + 1])


def test_level_keys_are_colex_ranks():
    """The key of a row is sum_j C(c_j, j + 1) over its indices minus k,
    c_0 < ... < c_{q-1}; a row that is not strictly increasing, or has an
    index past the level's largest, gets the key -1, which no row has."""
    rows = [(2, 3, 7), (2, 4, 5), (3, 5, 9), (6, 7, 8)]
    level = Level(2, 9, 3, rows)
    c = np.array(rows) - 2
    want = [sum(comb(int(x), j + 1) for j, x in enumerate(r)) for r in c]
    assert level.pack(np.array(rows)).tolist() == want
    assert level.find(level.pack(np.array(rows[::-1]))).tolist() == [
        level.monos.tolist().index(list(r)) for r in rows[::-1]]
    assert level.pack(np.array([(2, 2, 7), (3, 2, 5), (2, 3, 10)])).tolist() == [-1, -1, -1]
    assert level.find(np.array([-1, 10 ** 6])).tolist() == [-1, -1]
