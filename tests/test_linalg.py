import random
from fractions import Fraction

import pytest

from afflap import linalg
from afflap.linalg import (
    IntMatrix,
    bareiss_rank,
    berkowitz_charpoly,
    certify_full_rank,
    exact_nullity,
    fraction_kernel,
    gershgorin_bound,
    modular_kernel,
    nullity_mod_p,
    rank_mod_p,
    strip_integer_roots,
)


def from_rows(rows):
    m = IntMatrix(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                m.columns[j][i] = v
    return m


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
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[0, 1], [1, 0]])
    assert (a * b) == from_rows([[2, 1], [4, 3]])
    assert a.transpose() == from_rows([[1, 3], [2, 4]])
    assert (a - a).is_zero()
    assert IntMatrix.identity(3).entry(1, 1) == 1
    assert a.shifted(1) == from_rows([[0, 2], [3, 3]])
    assert a.apply({0: 1, 1: 1}) == {0: 3, 1: 7}
    assert not a.is_symmetric()
    assert from_rows([[1, 2], [2, 5]]).is_symmetric()


def test_ranks_agree_on_random_matrices():
    rng = random.Random(7)
    for trial in range(40):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        want = rational_rank(rows)
        assert bareiss_rank(rows) == want
        assert rank_mod_p(from_rows(rows)) == want


def test_fraction_kernel_known():
    m = from_rows([[1, 1], [1, 1]])
    kern = fraction_kernel(m)
    assert kern == [{0: Fraction(-1), 1: Fraction(1)}]
    assert fraction_kernel(from_rows([[1, 0], [0, 1]])) == []
    # kernel vectors actually lie in the kernel
    rng = random.Random(3)
    for trial in range(25):
        n, m_ = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m_)] for _ in range(n)]
        mat = from_rows(rows)
        kern = fraction_kernel(mat)
        assert len(kern) == m_ - rational_rank(rows)
        for vec in kern:
            assert mat.apply(vec) == {}


def _count_fallbacks(monkeypatch) -> list:
    calls = []
    exact = linalg.fraction_kernel

    def counted(matrix):
        calls.append(matrix)
        return exact(matrix)

    monkeypatch.setattr(linalg, "fraction_kernel", counted)
    return calls


def test_modular_kernel_equals_fraction_kernel():
    rng = random.Random(5)
    for trial in range(200):
        n, m, r = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 5)
        # a product through an r-dimensional space has rank at most r
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        rows = [[sum(row[t] * right[t][j] for t in range(r)) for j in range(m)]
                for row in left]
        mat = from_rows(rows)
        assert modular_kernel(mat) == fraction_kernel(mat), rows
    assert modular_kernel(IntMatrix(0, 3)) == fraction_kernel(IntMatrix(0, 3))
    assert modular_kernel(from_rows([[1, 0], [0, 1]])) == []


def test_modular_kernel_lifts_without_fallback(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    mat = from_rows([[2, 4, -3, 1], [6, 12, -9, 3]])
    assert modular_kernel(mat) == [
        {0: Fraction(-2), 1: Fraction(1)},
        {0: Fraction(3, 2), 2: Fraction(1)},
        {0: Fraction(-1, 2), 3: Fraction(1)},
    ]
    assert calls == []


def test_modular_kernel_reconstruction_failure_falls_back(monkeypatch):
    # the kernel entry 999/1000 exceeds the bound isqrt(p // 2) = 707
    calls = _count_fallbacks(monkeypatch)
    mat = from_rows([[1000, -999]])
    assert modular_kernel(mat) == [{0: Fraction(999, 1000), 1: Fraction(1)}]
    assert calls == [mat]


def test_modular_kernel_exact_check_catches_a_pivot_lost_mod_p(monkeypatch):
    # column 0 vanishes mod p, so mod p it is free and {0: 1} fails Av = 0
    calls = _count_fallbacks(monkeypatch)
    mat = from_rows([[linalg.DEFAULT_PRIME, 1]])
    assert modular_kernel(mat) == [
        {0: Fraction(-1, linalg.DEFAULT_PRIME), 1: Fraction(1)}]
    assert calls == [mat]


def test_modular_kernel_exact_check_catches_a_wrong_lift(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    lift = linalg._rational_reconstruction
    monkeypatch.setattr(linalg, "_rational_reconstruction",
                        lambda u, p, bound: lift(u, p, bound) + 1)
    mat = from_rows([[1, 1, 2], [1, 1, 2]])
    assert modular_kernel(mat) == [{0: Fraction(-1), 1: Fraction(1)},
                                   {0: Fraction(-2), 2: Fraction(1)}]
    assert calls == [mat]


def test_exact_nullity_and_modular_bound():
    m = from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    assert exact_nullity(m, 2) == 2
    assert exact_nullity(m, 5) == 1
    assert exact_nullity(m, 3) == 0
    assert nullity_mod_p(m, 2) == 2
    assert certify_full_rank(m, 3)
    assert not certify_full_rank(m, 2)


def test_charpoly_small_cases():
    ident = IntMatrix.identity(6)
    # (t - 1)^6, ascending coefficients
    assert berkowitz_charpoly(ident) == [1, -6, 15, -20, 15, -6, 1]
    m = from_rows([[0, 1], [1, 0]])
    assert berkowitz_charpoly(m) == [-1, 0, 1]
    assert berkowitz_charpoly(IntMatrix(0, 0)) == [1]
    assert berkowitz_charpoly(from_rows([[5]])) == [-5, 1]


def test_charpoly_matches_eigen_structure():
    rng = random.Random(11)
    for trial in range(15):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # symmetrize so eigenvalues are real and trace identities are easy
        rows = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        poly = berkowitz_charpoly(from_rows(rows))
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
    assert gershgorin_bound(IntMatrix(2, 2)) == 0
