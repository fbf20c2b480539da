import random
from fractions import Fraction

import numpy as np
import pytest

from afflap import linalg
from afflap.linalg import (
    Coo,
    IntMatrix,
    bareiss_rank,
    berkowitz_charpoly,
    certify_full_rank,
    column_image,
    coo_diag,
    exact_nullity,
    fraction_kernel,
    gershgorin_bound,
    gram,
    level_kernels,
    level_nullities,
    level_ranks_mod_p,
    nullity_mod_p,
    rank_mod_p,
    sparse_sum,
    strip_integer_roots,
)


def from_rows(rows) -> Coo:
    """The compressed Coo with these integer rows (at least one)."""
    a = np.array(rows, dtype=np.int64)
    c, r = np.nonzero(a.T)  # sorted by column, then by row
    return Coo(a.shape, r, c, a[r, c])


def rational_rank(rows):
    # plain Gaussian elimination over Fraction, the reference
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_matrix_basics():
    a = int_matrix(from_rows([[1, 2], [3, 4]]))
    b = int_matrix(from_rows([[0, 1], [1, 0]]))
    assert (a * b) == int_matrix(from_rows([[2, 1], [4, 3]]))
    assert a.transpose() == int_matrix(from_rows([[1, 3], [2, 4]]))
    assert (a + a.scale(-1)).is_zero()
    assert a.apply({0: 1, 1: 1}) == {0: 3, 1: 7}
    assert not a.is_symmetric()
    assert int_matrix(from_rows([[1, 2], [2, 5]])).is_symmetric()


def test_sparse_sum_adds_repeated_keys_and_drops_cancelled_ones():
    assert sparse_sum([("a", 1), ("b", 2), ("a", 3)]) == {"a": 4, "b": 2}
    assert sparse_sum([("a", 1), ("b", 2), ("a", -1)]) == {"b": 2}
    assert sparse_sum([(0, Fraction(1, 2)), (1, 1), (0, Fraction(-1, 2))]) == {1: 1}
    assert sparse_sum([]) == {}
    assert sparse_sum([(0, 2), (1, 0), (0, -2)]) == {}
    mixed = sparse_sum([(0, Fraction(1, 3)), (0, Fraction(1, 3)), (1, 5)])
    assert mixed == {0: Fraction(2, 3), 1: 5}
    assert type(mixed[0]) is Fraction and type(mixed[1]) is int


def test_column_image_leaves_out_zero_entries():
    columns = from_rows([[1, 1], [1, -1]]).columns()
    assert column_image(columns, {0: 1, 1: 1}) == {0: 2}
    assert column_image(columns, {0: 1, 1: -1}) == {1: 2}


def test_coo_block_cuts_one_slice():
    """``Coo.block`` re-bases the entries of its columns and refuses a
    column with an entry outside its rows: a slice never reaches into its
    neighbour."""
    level = from_rows([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 0], [0, 0, 6, 7]])
    lower = level.block(2, 4, 2, 4)
    assert lower.shape == (2, 2)
    assert lower.dense().tolist() == [[5, 0], [6, 7]]
    assert np.array_equal(lower.cols, [0, 0, 1]) and np.array_equal(lower.rows, [0, 1, 1])
    assert level.block(0, 2, 0, 2).dense().tolist() == [[1, 2], [3, 4]]
    assert level.block(0, 4, 3, 3).shape == (4, 0)
    with pytest.raises(ValueError, match=r"columns 0..1 have entries outside rows 0..0"):
        level.block(0, 1, 0, 2)
    with pytest.raises(ValueError, match=r"columns 2..3 have entries outside rows 3..3"):
        level.block(3, 4, 2, 4)
    with pytest.raises(ValueError, match="outside"):
        level.block(0, 2, 1, 3)


def test_coo_dense_sums_repeated_coordinates_exactly():
    """2^60 + 1 has no float64 form, so a float accumulation would show."""
    big = 1 << 60
    m = Coo((2, 3), np.array([0, 1, 0, 1]), np.array([2, 0, 2, 0]),
            np.array([big, -4, 1, 4], dtype=np.int64))
    dense = m.dense()
    assert dense.dtype == np.int64
    assert dense.tolist() == [[0, 0, big + 1], [0, 0, 0]]
    assert Coo.empty((0, 3)).dense().shape == (0, 3)


def test_ranks_agree_on_random_matrices():
    rng = random.Random(7)
    for trial in range(40):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        want = rational_rank(rows)
        assert bareiss_rank(rows) == want
        assert rank_mod_p(from_rows(rows), [0]) == [want]


def test_rank_mod_p_bounds_its_stacks(monkeypatch):
    """A stack of component matrices holds at most the n^2 entries of the
    dense blocks and at most ``PASS_BUDGET``: one dense component is
    eliminated alone under each shift, and same-shape components share
    stacks up to the budget."""
    sizes = []
    ranks = linalg._ranks_mod_p

    def recording(a, p):
        sizes.append(a.size)
        return ranks(a, p)

    monkeypatch.setattr(linalg, "_ranks_mod_p", recording)
    dense = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert rank_mod_p(from_rows(dense), [1, 4, 0, 1]) == [1, 2, 3, 1]
    assert sizes == [9] * 4
    # four 1x1 components under each of two shifts fit one stack of 4 <= 16 entries
    assert rank_mod_p(coo_diag([1] * 4), [1, 0]) == [0, 4]
    assert sizes[4:] == [4, 4]
    # three dense 3x3 blocks under a budget of 18 entries: two, then one
    monkeypatch.setattr(linalg, "PASS_BUDGET", 18)
    level = from_rows(np.kron(np.eye(3, dtype=np.int64), dense))
    assert level_ranks_mod_p(level, [(3, 3)] * 3) == [3, 3, 3]
    assert sizes[6:] == [18, 9]


def test_fraction_kernel_known():
    kern = fraction_kernel([[1, 1], [1, 1]])
    assert kern == [{0: Fraction(-1), 1: Fraction(1)}]
    assert fraction_kernel([[1, 0], [0, 1]]) == []
    # kernel vectors actually lie in the kernel
    rng = random.Random(3)
    for trial in range(25):
        n, m_ = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m_)] for _ in range(n)]
        kern = fraction_kernel(rows)
        assert len(kern) == m_ - rational_rank(rows)
        for vec in kern:
            assert int_matrix(from_rows(rows)).apply(vec) == {}


def test_modular_kernel_equals_fraction_kernel():
    """``level_kernels`` of a matrix as one block returns the reduced kernel
    basis that ``fraction_kernel`` finds on the whole matrix, and rejects
    blocks that do not tile the matrix."""
    rng = random.Random(5)
    for trial in range(200):
        n, r = rng.randint(1, 8), rng.randint(0, 5)
        # a square product through an r-dimensional space has rank at most r
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        rows = [[sum(row[t] * right[t][j] for t in range(r)) for j in range(n)]
                for row in left]
        assert level_kernels(from_rows(rows), [n]) == [fraction_kernel(rows)], rows
    assert level_kernels(Coo.empty((0, 0)), [0]) == [[]]
    assert level_kernels(Coo.empty((0, 0)), []) == []
    assert level_kernels(Coo.empty((2, 2)), [2]) == [fraction_kernel([[0, 0], [0, 0]])]
    assert level_kernels(from_rows([[1, 0], [0, 1]]), [2]) == [[]]
    with pytest.raises(ValueError, match="^blocks of shape 2x2 do not tile a 2x3 matrix$"):
        level_kernels(from_rows([[1, 2, 3], [2, 4, 6]]), [2])


def test_level_kernels_interleave_the_free_columns_of_the_components(monkeypatch):
    """Components {0, 2, 4} and {1, 3, 5} have the free columns 0, 4 and 3,
    5: the basis alternates between them, in the order of the whole
    matrix's reduced basis, and each component is eliminated once."""
    a = [[0, 1, 1], [0, 1, 1], [0, 0, 0]]  # local column 0 is zero
    b = [[2, 1, 3], [4, 2, 6], [0, 0, 0]]
    rows = [[0] * 6 for _ in range(6)]
    for block, index in ((a, (0, 2, 4)), (b, (1, 3, 5))):
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                rows[index[i]][index[j]] = v
    calls = []
    exact = linalg.fraction_kernel
    monkeypatch.setattr(linalg, "fraction_kernel", lambda m: calls.append(m) or exact(m))
    [kernel] = level_kernels(from_rows(rows), [6])
    assert calls == [a, b]
    assert [max(vec) for vec in kernel] == [0, 3, 4, 5]
    assert kernel == exact(rows)
    assert kernel[1] == {1: Fraction(-1, 2), 3: Fraction(1)}


def test_level_kernels_skip_the_components_of_full_modular_rank(monkeypatch):
    """Only the component {0, 2} of the second block falls short of full
    rank mod p: it alone is eliminated, and its vector is returned in the
    indices of its block."""
    level = np.zeros((5, 5), dtype=np.int64)
    level[:2, :2] = [[2, 0], [0, 3]]
    level[2:, 2:] = [[1, 0, 1], [0, 5, 0], [1, 0, 1]]
    calls = []
    exact = linalg.fraction_kernel
    monkeypatch.setattr(linalg, "fraction_kernel", lambda m: calls.append(m) or exact(m))
    assert level_kernels(from_rows(level), [2, 3]) == [[], [{0: Fraction(-1), 2: Fraction(1)}]]
    assert calls == [[[1, 1], [1, 1]]]


def test_level_kernels_prove_a_component_with_a_zero_leading_pivot(monkeypatch):
    """A zero pivot on the diagonal is swapped for a nonzero entry of the
    trailing block: [[0, 1], [1, 0]] is proved nonsingular like the positive
    definite [[2, 1], [1, 2]] beside it, so ``fraction_kernel`` never runs
    and no vector is returned."""
    level = np.zeros((4, 4), dtype=np.int64)
    level[:2, :2] = [[0, 1], [1, 0]]
    level[2:, 2:] = [[2, 1], [1, 2]]
    calls = []
    exact = linalg.fraction_kernel
    monkeypatch.setattr(linalg, "fraction_kernel", lambda m: calls.append(m) or exact(m))
    assert level_kernels(from_rows(level), [2, 2]) == [[], []]
    assert calls == []


def test_stacked_ranks_mod_p_match_exact_ranks():
    """``_ranks_mod_p`` gives each matrix of a stack its own rank, whatever
    its neighbours: products through spaces of dimension at most 3, some
    with entries zeroed, so zero pivots turn up on and off the fast path.
    Entries are in [-3, 3] and shapes at most 6 x 6, so every minor is below
    p (Hadamard) and the ranks mod p are the rational ones."""
    rng = np.random.default_rng(11)
    p = linalg.DEFAULT_PRIME
    for trial in range(300):
        m, r, c = rng.integers(1, 5), rng.integers(1, 7), rng.integers(1, 7)
        inner = rng.integers(0, min(r, c, 3) + 1)
        a = rng.integers(-1, 2, (m, r, inner)) @ rng.integers(-1, 2, (m, inner, c))
        a *= rng.random(a.shape) < 0.7
        want = [bareiss_rank(x) for x in a.tolist()]
        assert linalg._ranks_mod_p(a % p, p).tolist() == want, a.tolist()


def test_stable_order_widens_narrow_keys_before_packing():
    """int32 keys whose packed words pass 2^31 are packed in int64."""
    key = np.array([40000, 3, 40000, 1] * 30000, dtype=np.int32)
    assert linalg.stable_order(key).tolist() == np.argsort(key, kind="stable").tolist()


def test_gram_diagonal_keys_pass_int32():
    """A Gram sum over more than 46341 columns has diagonal keys past 2^31."""
    n = 50000
    a = Coo((1, n), np.zeros(2, dtype=np.int64), np.array([3, n - 1]), np.array([2, -1]))
    got = gram([a], "x")
    assert int_matrix(got).columns[n - 1] == {3: -2, n - 1: 1}
    assert int_matrix(got).columns[3] == {3: 4, n - 1: -2}


def test_level_nullities_are_exact_or_none():
    """Exact nullities where prod (S - lam I) = 0, in the order of the lams,
    and None where it is not: a Jordan block at a listed lam, an eigenvalue
    outside the lams, no lam on a nonempty block.  A repeated lam raises."""
    diag = from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    assert level_nullities(diag, [3], [[5, 2]]) == [[1, 2]]
    assert level_nullities(diag, [3], [[2, 5, 3]]) == [[2, 1, 0]]
    assert level_nullities(from_rows([[2, 1, 0], [0, 2, 0], [0, 0, 5]]), [3], [[2, 5]]) == [None]
    assert level_nullities(diag, [3], [[2, 3]]) == [None]
    assert level_nullities(diag, [2, 1], [[2], []]) == [[2], None]
    assert level_nullities(Coo.empty((0, 0)), [0, 0], [[1, 4], []]) == [[0, 0], []]
    with pytest.raises(ValueError, match="^a lam repeats within one block$"):
        level_nullities(diag, [3], [[2, 5, 2]])


# three 2x2 blocks, with the eigenvalues 0 and 2, -1 and 3, and 1 and 3
THREE_BLOCKS = [[[1, 1], [1, 1]], [[1, 2], [2, 1]], [[2, 1], [1, 2]]]


def _block_diagonal(blocks, scale=1) -> Coo:
    rows = np.zeros((2 * len(blocks),) * 2, dtype=np.int64)
    for i, block in enumerate(blocks):
        rows[2 * i:2 * i + 2, 2 * i:2 * i + 2] = np.array(block) * scale
    return from_rows(rows)


def test_level_nullities_multiply_blocks_with_fewer_lams_by_the_identity(monkeypatch):
    """The three components of one shape form one stack, although their
    blocks list three, one and two lams; the one lam of the second block
    leaves its eigenvalue -1 outside."""
    stacks = []
    components = linalg._level_components

    def recording(matrix, shapes):
        for run in components(matrix, shapes):
            stacks.append(run[2].shape)
            yield run

    monkeypatch.setattr(linalg, "_level_components", recording)
    got = level_nullities(_block_diagonal(THREE_BLOCKS), [2, 2, 2], [[0, 2, 5], [3], [3, 1]])
    assert got == [[1, 1, 0], None, [1, 1]]
    assert stacks == [(3, 2, 2)]


def test_level_nullities_run_on_python_ints_past_the_int64_bound(monkeypatch):
    """Scaled by c = 3^30, with its lams scaled by c, the level's products
    pass 2^63 (so do its traces, summed in Python ints), and the nullities
    are those of the unscaled level."""
    c = 3 ** 30
    lams = [[5, 0, 2], [3, -1], [3, 1]]
    traces = []
    solve = linalg._trace_nullities
    monkeypatch.setattr(linalg, "_trace_nullities",
                        lambda t, block_lams: traces.extend(t) or solve(t, block_lams))
    got = level_nullities(_block_diagonal(THREE_BLOCKS, c), [2, 2, 2],
                          [[lam * c for lam in block_lams] for block_lams in lams])
    assert got == level_nullities(_block_diagonal(THREE_BLOCKS), [2, 2, 2], lams)
    assert got == [[0, 1, 1], [1, 1], [1, 1]]
    assert max(map(abs, traces)) >= 1 << 63


def test_level_nullities_bound_their_norms_on_python_ints():
    """The 8 x 8 block 2^60 J, with the eigenvalues 0 (seven times) and
    2^63, puts r max|entry| + max|lam| and its row-sum norms past 2^63, so
    the norms are bounded on Python ints, before the products are; so does
    the lam -2^62 on the 1 x 1 block 2^62, by the lam alone.  The nullities
    stay exact."""
    big = 1 << 60
    level = from_rows([[big] * 8] * 8)
    assert level_nullities(level, [8], [[0, 8 * big]]) == [[7, 1]]
    assert level_nullities(level, [8], [[8 * big, 0]]) == [[1, 7]]
    assert level_nullities(level, [8], [[0, 8 * big - 1]]) == [None]
    assert level_nullities(coo_diag([4 * big]), [1], [[-4 * big, 4 * big]]) == [[0, 1]]


def test_exact_nullity_and_modular_bound():
    m = from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    assert exact_nullity(m, 2) == 2
    assert exact_nullity(m, 5) == 1
    assert exact_nullity(m, 3) == 0
    assert nullity_mod_p(m, [2, 5, 3]) == [2, 1, 0]
    assert certify_full_rank(from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 2]]))  # m - 3I
    assert not certify_full_rank(from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 3]]))  # m - 2I


def test_charpoly_small_cases():
    ident = IntMatrix.identity(6).to_dense_rows()
    # (t - 1)^6, ascending coefficients
    assert berkowitz_charpoly(ident) == [1, -6, 15, -20, 15, -6, 1]
    assert berkowitz_charpoly([[0, 1], [1, 0]]) == [-1, 0, 1]
    assert berkowitz_charpoly([]) == [1]
    assert berkowitz_charpoly([[5]]) == [-5, 1]


def test_charpoly_matches_eigen_structure():
    rng = random.Random(11)
    for trial in range(15):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # symmetrize so eigenvalues are real and trace identities are easy
        rows = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        poly = berkowitz_charpoly(rows)
        assert len(poly) == n + 1 and poly[-1] == 1
        trace = sum(rows[i][i] for i in range(n))
        assert poly[-2] == -trace
        # det(tI - A) at t = 0 is (-1)^n det(A)
        assert poly[0] == (-1) ** n * _det(rows)


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    assert det.denominator == 1
    return det.numerator


def test_strip_integer_roots():
    # (t - 1)^2 (t^2 - 2) = t^4 - 2t^3 - t^2 + 4t - 2, ascending
    poly = [-2, 4, -1, -2, 1]
    roots, rest = strip_integer_roots(poly, 5)
    assert roots == {1: 2}
    assert rest == [-2, 0, 1]
    with pytest.raises(ValueError):
        from afflap.linalg import _synthetic_divide

        _synthetic_divide([1, 1], 5)


def test_gershgorin():
    m = from_rows([[3, -1], [2, 0]])
    assert gershgorin_bound(m) == 4
    assert gershgorin_bound(Coo.empty((2, 2))) == 0


def _coo(rows: int, cols: int, entries: dict) -> Coo:
    """A Coo from {(i, j): value}."""
    keys = list(entries)
    return Coo((rows, cols), np.array([i for i, _ in keys], dtype=np.int64),
               np.array([j for _, j in keys], dtype=np.int64),
               np.array(list(entries.values()), dtype=np.int64))


def int_matrix(matrix: Coo) -> IntMatrix:
    """The oracle form of a ``Coo``, for comparison with ``IntMatrix``
    results by ``==``; repeated coordinates are summed."""
    columns = [{} for _ in range(matrix.shape[1])]
    for i, j, v in zip(matrix.rows.tolist(), matrix.cols.tolist(), matrix.vals.tolist()):
        columns[j][i] = columns[j].get(i, 0) + v
    return IntMatrix(*matrix.shape, [{i: v for i, v in c.items() if v} for c in columns])


def test_gram_is_the_sum_of_the_products(monkeypatch):
    """gram(parts) equals the sum of A^T A over the parts, with run
    budgets from one pair (every entry its own run, so a column is split)
    to all of them."""
    rng = random.Random(11)
    for budget in (1, 3, 40, 1 << 14):
        monkeypatch.setattr(linalg, "PASS_BUDGET", budget)
        for _ in range(25):
            n = rng.randint(1, 7)
            parts, want = [], IntMatrix(n, n)
            for _ in range(rng.randint(1, 3)):
                r = rng.randint(0, 6)
                entries = {(i, j): rng.choice((-2, -1, 1, 3)) for i in range(r) for j in range(n)
                           if rng.random() < 0.4}
                parts.append(_coo(r, n, entries))
                a = IntMatrix(r, n, [{i: v for (i, jj), v in entries.items() if jj == j}
                                     for j in range(n)])
                want = want + a.transpose() * a
            got = gram(parts, "test")
            assert int_matrix(got) == want
            assert np.all(got.vals != 0)
            assert np.all(np.diff(got.cols * n + got.rows) > 0)


def test_gram_refuses_sums_that_could_overflow_int64():
    """max|v|^2 times the largest column count must stay below 2^62."""
    edge = (1 << 31) - 1
    assert gram([_coo(1, 1, {(0, 0): edge})], "x").vals.tolist() == [edge * edge]
    with pytest.raises(OverflowError, match="k=5, h=7, q=3"):
        gram([_coo(1, 2, {(0, 0): 1 << 31, (0, 1): 1})], "k=5, h=7, q=3")
    three = {(i, 0): 1 << 30 for i in range(3)}
    assert gram([_coo(3, 1, three)], "x").vals.tolist() == [3 << 60]
    with pytest.raises(OverflowError, match="k=5, h=7, q=3"):
        gram([_coo(3, 1, three), _coo(1, 1, {(0, 0): 1})], "k=5, h=7, q=3")
