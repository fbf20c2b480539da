import pytest

from afflap.series import Series, inverse_theta_neg, product_over, theta
from afflap.sl2 import HalfLaurent


def naive_mul_terms(series, terms):
    """``series`` times a sparse polynomial of (exponent, coeff) pairs, one
    ring operation per pair of nonzero coefficients."""
    out = [0] * series.order
    for e, c in terms:
        if e >= series.order or not c:
            continue
        for i, a in enumerate(series.coeffs[:series.order - e]):
            if a:
                out[i + e] = out[i + e] + a * c
    return Series(series.order, out)


def naive_product_over(order, factor_terms):
    """The reference ``product_over``: the dict-ring product factor by
    factor, which fixes the value and the type of every coefficient."""
    out = Series.one(order)
    a = 1
    while True:
        terms = [(e, c) for e, c in factor_terms(a) if e < order]
        if not any(e > 0 and c for e, c in terms):
            return out
        out = naive_mul_terms(out, terms)
        a += 1


def assert_same_series(got, want):
    """Equal value, type and repr in every coefficient."""
    assert got.order == want.order
    for e, (g, w) in enumerate(zip(got.coeffs, want.coeffs)):
        assert (type(g), repr(g)) == (type(w), repr(w)) and g == w, e


def test_theta_modes():
    t = theta(10, "u=1")
    assert t.coeffs == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]
    assert theta(1, "u=1").coeffs == [1]
    neg = theta(10, "-x")
    assert neg.coeffs == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]
    sym = theta(5, "symmetric")
    assert sym.coeffs[1] == HalfLaurent({2: 1, -2: 1})
    with pytest.raises(ValueError):
        theta(5, "v")


def _brute_overpartitions(n):
    """Partitions with the first copy of each part optionally marked."""
    total = 0

    def parts(rest, biggest):
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, biggest), 0, -1):
            for tail in parts(rest - p, p):
                yield (p,) + tail

    for lam in parts(n, n):
        total += 2 ** len(set(lam))
    return total


def test_inverse_theta_counts_overpartitions():
    s = inverse_theta_neg(8)
    assert s.coeffs == [1, 2, 4, 8, 14, 24, 40, 64]
    for n in range(8):
        assert s.coeffs[n] == _brute_overpartitions(n)


def test_product_examples():
    both = (product_over(8, lambda m: [(0, 1), (m, 1)])
            * product_over(8, lambda m: [(0, 1), (m, -1)]).inverse())
    assert both.coeffs == [1, 2, 4, 8, 14, 24, 40, 64]
    cube = product_over(7, lambda m: [(0, 1), (m, -3), (2 * m, 3), (3 * m, -1)])
    assert cube.coeffs == [1, -3, 0, 5, 0, 0, -7]
    # empty product: first factor already trivial
    assert product_over(6, lambda m: [(0, 1)]) == Series.one(6)


def test_product_guards():
    with pytest.raises(ValueError):
        product_over(5, lambda m: [(0, 2), (m, 1)])
    with pytest.raises(ValueError):
        # a family that never trivializes below the order
        product_over(3, lambda m: [(0, 1), (1, 1)])


def test_product_needs_and_finds_enough_primes(monkeypatch):
    """(1 + 10^4 x)^6 has coefficients up to 10^24 > 2^63, so two
    31-bit primes cannot hold it: with the first two alone the product
    raises, and with the whole tuple it equals the dict-ring product."""
    from afflap import series

    def family(a):
        return [(0, 1), (1, 10**4)] if a <= 6 else [(0, 1)]

    got = product_over(8, family)
    assert_same_series(got, naive_product_over(8, family))
    assert max(got.coeffs) > 2**63
    for count in (1, 2):
        monkeypatch.setattr(series, "_PRIMES", series._PRIMES[:count])
        with pytest.raises(OverflowError, match="order 8"):
            product_over(8, family)


def test_product_refuses_mixed_rings_and_negative_exponents():
    from afflap.sl2 import RepRingElement

    z = RepRingElement.simple(2)
    with pytest.raises(TypeError, match="RepRingElement"):
        product_over(6, lambda a: [(0, 1), (a, z), (2 * a, HalfLaurent({2: 1}))])
    with pytest.raises(TypeError, match="RepRingElement"):
        product_over(6, lambda a: [(0, 1), (a, z)])
    with pytest.raises(ValueError):
        product_over(6, lambda a: [(0, 1), (a, 1), (-1, 1)])


def test_series_arithmetic():
    a = Series.from_terms(6, [(0, 1), (1, 2), (3, -1)])
    b = Series.from_terms(6, [(0, 1), (2, 5)])
    assert (a * b).coeffs == [1, 2, 5, 9, 0, -5]
    assert a * a.inverse() == Series.one(6)
    assert naive_mul_terms(a, [(0, 1), (2, 5)]) == a * b
    with pytest.raises(ValueError):
        Series.from_terms(4, [(0, 2)]).inverse()
    with pytest.raises(ValueError):
        Series(0)


def test_laurent_coercion():
    s = Series.from_terms(4, [(0, 1), (2, HalfLaurent({2: 3}))])
    assert s.coeffs == [1, 0, HalfLaurent({2: 3}), 0]
    assert s.scale(2).coeffs[2] == HalfLaurent({2: 6})
    # an int series times a Laurent series equals the product with its lift
    inv = inverse_theta_neg(4)
    lifted = Series(4, [HalfLaurent({0: c}) for c in inv.coeffs])
    assert s * inv == s * lifted
    assert s * s.inverse() == Series.one(4)
