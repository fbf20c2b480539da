import pytest

from afflap.identities import (
    IdentityReport,
    all_identities,
    singular_series,
    verify_identity,
)
from afflap.series import Series, product_over
from afflap.sl2 import HalfLaurent, RepRingElement, singular_block_dims, weyl_map
from test_series import naive_product_over

EXPECTED_NAMES = {
    "gauss_jacobi", "jacobi_traditional", "theta_inverse_product", "gen_L1",
    "gen_L0", "mult_L0_product", "L2_gauss_jacobi", "jacobi_cube",
    "euler_pentagonal", "bracket_sign", "singular_gauss_jacobi",
    "singular_by_degree_L2", "singular_mults_L2", "singular_mults_Lminus1",
    "weight_dim_products", "mult_Lminus1",
}


def test_registry_is_complete():
    assert set(all_identities()) == EXPECTED_NAMES
    assert len(all_identities()) == 16


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        verify_identity("nope", 10)
    with pytest.raises(ValueError):
        verify_identity("gauss_jacobi", 0)


def test_all_pass_at_moderate_order():
    for name in all_identities():
        report = verify_identity(name, 25)
        assert report.passed, (name, report.first_mismatch)
        assert isinstance(report, IdentityReport)
        assert report.first_mismatch is None


def test_trivial_truncation_passes():
    assert verify_identity("gauss_jacobi", 1).passed
    assert verify_identity("jacobi_cube", 30).passed
    assert verify_identity("gen_L1", 12).passed
    assert verify_identity("euler_pentagonal", 30).passed


def test_minimal_orders():
    from afflap.identities import MINIMAL_ORDER

    assert set(MINIMAL_ORDER) == set(all_identities())
    for name, least in MINIMAL_ORDER.items():
        assert verify_identity(name, least).passed, name


def _singular_dims(k: int, h_max: int) -> dict:
    """dim of the weight-w singular subspace of the degree-h block of L(k),
    summed over q, as a map (w, h) -> dim."""
    dims: dict = {}
    for (_, w, h), n in singular_block_dims(k, h_max).items():
        dims[w, h] = dims.get((w, h), 0) + n
    return dims


def test_singular_series_matches_block_dims():
    for k, h_max, w_max in ((2, 8, 4), (-1, 5, 3)):
        chars = singular_series(k, h_max + 1)
        dims = _singular_dims(k, h_max)
        for h in range(h_max + 1):
            for w in range(w_max + 1):
                assert chars[h].mult(2 * w) == dims.get((w, h), 0), (k, w, h)


@pytest.mark.parametrize("name, k", [("singular_mults_L2", 2),
                                     ("singular_mults_Lminus1", -1)])
def test_singular_identities_build_each_dimension_table_once(monkeypatch, name, k):
    """Every (w, lambda) of the region is read from one weight table and one
    block table of L(k)."""
    from afflap import chains

    calls = []
    real = chains._dim_grid

    def counted(kk, h_max, by_q):
        calls.append(kk)
        return real(kk, h_max, by_q)

    monkeypatch.setattr(chains, "_dim_grid", counted)
    assert verify_identity(name, 12).passed
    assert calls == [k, k]


def test_singular_series_coefficients_are_dimensions():
    # every multiplicity in the graded singular character counts a dimension
    for k in (-1, 2):
        for elem in singular_series(k, 40):
            assert all(m > 0 for m in elem.terms.values())


def test_weyl_commuting_square():
    """Applying the character map coefficient-wise to the Clebsch-Gordan
    product of the singular identity reproduces the Laurent triple product,
    order by order."""
    order = 16
    z = RepRingElement.simple(2)
    rep_lhs = naive_product_over(order, lambda a: [(0, 1), (a, -z), (2 * a, z), (3 * a, -1)])
    # coefficient 0 is the int 1; weyl_map takes ring elements
    mapped = Series(order, [weyl_map(RepRingElement() + c) for c in rep_lhs.coeffs])
    from afflap.identities import _triple_product

    assert mapped == _triple_product(order, -1)


def test_pentagonal_coefficients_lie_in_signs():
    from afflap.generators import epsilon

    order = 30
    lhs = product_over(order, lambda m: [(0, 1), (3 * m, -1)])
    w = 0
    seen = {}
    while w * (w + 1) // 2 < order:
        seen[w * (w + 1) // 2] = epsilon(2 * w + 1) * (1 if w % 2 == 0 else -1)
        w += 1
    for e, c in enumerate(lhs.coeffs):
        assert (type(c), c) == (int, seen.get(e, 0)), e


def test_cube_root_reduction_collapses_brackets_to_signs():
    """u -> omega with omega^3 = 1 and omega^2 = -1 - omega: a constant
    comes back as an int, anything else as a + b u, and the odd brackets
    collapse to the period-3 sign."""
    from afflap.generators import epsilon
    from afflap.identities import _at_cube_root

    assert _at_cube_root(5) == 5
    assert _at_cube_root(HalfLaurent.u_power(4)) == HalfLaurent({0: -1, 2: -1})
    assert _at_cube_root(HalfLaurent.u_power(-2)) == HalfLaurent({0: -1, 2: -1})
    assert _at_cube_root(HalfLaurent.u_power(14)) == HalfLaurent.u_power(2)
    assert _at_cube_root(HalfLaurent({-2: 1, 0: 1, 2: 1})) == 0
    assert type(_at_cube_root(HalfLaurent.u_power(6, 3))) is int
    with pytest.raises(ValueError, match="half-integer"):
        _at_cube_root(HalfLaurent.u_power(1))
    for w in range(9):
        value = _at_cube_root(HalfLaurent.bracket(2 * w + 1))
        assert (type(value), value) == (int, epsilon(2 * w + 1)), w


def test_euler_pentagonal_reduces_the_triple_product(monkeypatch):
    """The cube-free stage compares the triple product at omega with
    prod (1 - x^{3m}): a triple factor whose u-coefficient does not vanish
    at omega fails there."""
    from afflap import identities

    def skewed(order, sign):
        s = HalfLaurent({-2: 1, 0: 1, 2: 2})  # 1 + u^-1 + 2u is omega at omega
        return product_over(order, lambda m: [(0, 1), (m, s * sign), (2 * m, s), (3 * m, sign)])

    monkeypatch.setattr(identities, "_triple_product", skewed)
    rep = verify_identity("euler_pentagonal", 12)
    assert not rep.passed
    assert rep.first_mismatch["position"] == "x^1 via cube-free stage"
    assert rep.first_mismatch["lhs"] == "HalfLaurent(-1*u^1)"


def test_singular_series_refuses_a_row_that_is_no_character(monkeypatch):
    """A character product that comes back asymmetric raises instead of
    being read as multiplicities."""
    from afflap import identities

    real = identities._triple_product
    monkeypatch.setattr(identities, "_triple_product",
                        lambda order, sign: real(order, sign).scale(HalfLaurent.u_power(2)))
    with pytest.raises(ValueError, match="not an sl2 character"):
        singular_series(2, 6)


def test_weight_series_agrees_with_generator_product():
    """The weighted dimension series equals the product over generators of
    (1 + u^weight x^degree), built through the series machinery.

    For every k the positive-degree generators come in weight triples
    -1, 0, +1, one triple per degree; the few degree-zero generators
    contribute constant factors 1 + u^weight.
    """
    from afflap.generators import epsilon
    from afflap.identities import _triple_product, _weight_series
    from afflap.sl2 import HalfLaurent

    order = 10
    for k in (-1, 0, 1, 2):
        prod = _triple_product(order, 1)
        for a in (-1, 0, 1):
            if a >= k:
                prod = prod.scale(HalfLaurent.one() + HalfLaurent.u_power(2 * epsilon(a)))
        assert prod == _weight_series(k, order), k


def test_registry_builds_each_triple_product_once(monkeypatch):
    """One pass over the registry at order 120 in one process makes 11
    products: each sign of the triple product at order 120 is built once and
    shared by all its readers, and the two small orders of the singular
    region build their own +1 product."""
    from afflap import identities

    s = HalfLaurent({-2: 1, 0: 1, 2: 1})
    calls = []
    real = identities.product_over

    def counted(order, factor):
        calls.append((order, factor(1)))
        return real(order, factor)

    monkeypatch.setattr(identities, "product_over", counted)
    for name in all_identities():
        assert verify_identity(name, 120).passed, name
    assert len(calls) == 11
    for sign in (-1, 1):
        assert calls.count((120, [(0, 1), (1, s * sign), (2, s), (3, sign)])) == 1, sign


# Where a wrong sign on the x^3 term of the m = 1 triple factor is caught, by
# the sign of the product
_TRIPLE_KILLS = {
    -1: {"gauss_jacobi": "x^3", "L2_gauss_jacobi": "x^3", "singular_gauss_jacobi": "x^3",
         "euler_pentagonal": "x^3 via cube-free stage"},
    1: {"singular_by_degree_L2": "x^3", "mult_Lminus1": "x^3",
        "singular_mults_L2": "(w=0, lambda=3) via character product",
        "singular_mults_Lminus1": "(w=0, lambda=3) via character product"},
}


def _flipped_triple_product(flip_sign, power):
    """A ``_triple_product`` whose m = 1 factor has the wrong sign on its
    x^power term when the product's sign is ``flip_sign``."""
    s = HalfLaurent({-2: 1, 0: 1, 2: 1})

    def triple(order, sign):
        def factor(m):
            terms = [(0, 1), (m, s * sign), (2 * m, s), (3 * m, sign)]
            if sign == flip_sign and m == 1:
                terms[power] = (power, -terms[power][1])
            return terms

        return product_over(order, factor)

    return triple


@pytest.mark.parametrize("sign", sorted(_TRIPLE_KILLS))
def test_a_wrong_triple_product_is_caught_by_each_of_its_readers(monkeypatch, sign):
    """Every reader of the shared product fails at the first coefficient the
    fault reaches, and every other identity keeps passing.  A wrong sign on
    the x^2 term instead is invisible to ``euler_pentagonal``, because s
    vanishes at omega (next test)."""
    from afflap import identities

    monkeypatch.setattr(identities, "_triple_product", _flipped_triple_product(sign, 3))
    failed = {}
    for name in all_identities():
        rep = verify_identity(name, 20)
        if not rep.passed:
            failed[name] = rep.first_mismatch["position"]
    assert failed == _TRIPLE_KILLS[sign]


def test_euler_pentagonal_is_blind_to_the_x2_term(monkeypatch):
    """The x^2 term of a triple factor is s = u^-1 + 1 + u, which vanishes
    at u = omega: a wrong sign there is invisible to the cube-root
    reduction and is caught by the Laurent identity instead."""
    from afflap import identities

    monkeypatch.setattr(identities, "_triple_product", _flipped_triple_product(-1, 2))
    assert verify_identity("euler_pentagonal", 20).passed
    assert verify_identity("gauss_jacobi", 20).first_mismatch["position"] == "x^2"


def test_report_names_the_first_difference_of_each_comparison_kind():
    from afflap.identities import _report

    a = Series.from_terms(5, [(0, 1), (2, 3)])
    b = Series.from_terms(5, [(0, 1), (2, 4)])
    rep = _report("demo", "a note", 5, iter([("{}", a, a), ("(k=2, {})", a, b)]))
    assert rep == IdentityReport("demo", 5, False,
                                 {"position": "(k=2, x^2)", "lhs": "3", "rhs": "4"}, "a note")
    # tables compare by sorted key, a missing key counting as 0
    rep = _report("demo", "a note", 5, [("(w={0[0]}, lambda={0[1]})",
                                         {(0, 1): 2, (1, 0): 5}, {(0, 1): 2, (0, 2): 7})])
    assert rep.first_mismatch == {"position": "(w=0, lambda=2)", "lhs": "0", "rhs": "7"}
    # the comparisons after the first difference are never run
    def comparisons():
        yield "{}", a, b
        raise AssertionError("ran past the first difference")

    assert not _report("demo", "a note", 5, comparisons())
    assert _report("demo", "a note", 5, [("{}", a, a), ("w={}", {1: 2}, {1: 2})]) == \
        IdentityReport("demo", 5, True, None, "a note")


def _bumped(series, e, by=1):
    coeffs = list(series.coeffs)
    coeffs[e] = coeffs[e] + by
    return Series(series.order, coeffs)


def test_plain_series_failure(monkeypatch):
    from afflap import identities

    real = identities.inverse_theta_neg
    monkeypatch.setattr(identities, "inverse_theta_neg", lambda order: _bumped(real(order), 3))
    rep = verify_identity("theta_inverse_product", 12)
    assert (rep.passed, rep.note) == (False, "overpartition generating function")
    assert rep.first_mismatch == {"position": "x^3", "lhs": "8", "rhs": "9"}


def test_labelled_series_failure(monkeypatch):
    from afflap import identities
    from afflap.sl2 import HalfLaurent

    real = identities._weight_series
    monkeypatch.setattr(identities, "_weight_series", lambda k, order: _bumped(
        real(k, order), 2, HalfLaurent.u_power(2)) if k == -1 else real(k, order))
    rep = verify_identity("weight_dim_products", 12)
    assert not rep.passed
    assert rep.first_mismatch["position"] == "(k=-1, x^2)"
    want = real(-1, 12).coeffs[2]
    assert rep.first_mismatch["lhs"] == repr(want + HalfLaurent.u_power(2))
    assert rep.first_mismatch["rhs"] == repr(want)


def test_table_failure(monkeypatch):
    from afflap import identities

    real = identities._mu_at
    monkeypatch.setattr(identities, "_mu_at", lambda order, n: real(order, n) + (n == 3))
    rep = verify_identity("singular_mults_L2", 12)
    assert (rep.passed, rep.note) == (False, "eigenvalue-graded singular dimensions of L(2)")
    got = _singular_dims(2, 3)[0, 3]
    assert rep.first_mismatch == {"position": "(w=0, lambda=3)",
                                  "lhs": repr(got), "rhs": repr(got + 1)}


def test_gen_L1_enumeration_anchor_failure(monkeypatch):
    from afflap import identities
    from afflap.chains import BlockBasis, weight

    real = identities.enumerate_block

    def padded(k, h):
        """The block, with one of its weight -4 monomials repeated in degree 13."""
        monos = list(real(k, h))
        if h == 13:
            monos += [m for m in monos if weight(m) == -4][:1]
        return BlockBasis(k, h, monos)

    # w = -4 shifts the degree by 10, so eigenvalue 3 sits in degree 13
    monkeypatch.setattr(identities, "enumerate_block", padded)
    rep = verify_identity("gen_L1", 12)
    assert not rep.passed
    assert rep.note == "eigenvalue multiplicities of L(1) are independent of the weight"
    dim = real(1, 13, -4).dim
    assert rep.first_mismatch == {"position": "(w=-4, x^3) via enumeration",
                                  "lhs": repr(dim), "rhs": repr(dim + 1)}


@pytest.mark.parametrize("name, k, lam", [("singular_mults_L2", 2, 2),
                                          ("singular_mults_Lminus1", -1, 4)])
def test_singular_mults_character_product_failure(monkeypatch, name, k, lam):
    """One more copy of the weight-1 simple module in the degree-3 character
    is caught at the eigenvalue lambda of (w, h) = (1, 3)."""
    from afflap import identities

    real = identities.singular_series

    def patched(kk, order):
        chars = list(real(kk, order))
        chars[3] = chars[3] + RepRingElement.simple(2)
        return tuple(chars)

    monkeypatch.setattr(identities, "singular_series", patched)
    rep = verify_identity(name, 12)
    assert not rep.passed
    assert rep.note == f"eigenvalue-graded singular dimensions of L({k})"
    got = _singular_dims(k, 3)[1, 3]
    assert rep.first_mismatch == {"position": f"(w=1, lambda={lam}) via character product",
                                  "lhs": repr(got), "rhs": repr(got + 1)}


def test_mult_Lminus1_spectrum_anchor_failure(monkeypatch):
    from types import SimpleNamespace

    from afflap import laplacian

    real = laplacian.spectrum
    lam, mult = real(-1, 2).lines[0]
    monkeypatch.setattr(laplacian, "spectrum", lambda k, h: SimpleNamespace(lines=[
        (ll, m + (h == 2 and ll == lam)) for ll, m in real(k, h).lines]))
    rep = verify_identity("mult_Lminus1", 12)
    assert not rep.passed
    assert rep.note == "eigenvalue multiplicities of L(-1) match those of L(0)"
    assert rep.first_mismatch["position"] == f"x^{lam} via block spectra"
    assert int(rep.first_mismatch["rhs"]) == int(rep.first_mismatch["lhs"]) + 1


def test_euler_pentagonal_cube_free_stage_failure(monkeypatch):
    from afflap import identities

    real = identities.product_over

    def patched(order, factor, *rest):
        out = real(order, factor, *rest)
        return _bumped(out, 3) if factor(1) == [(0, 1), (3, -1)] else out

    monkeypatch.setattr(identities, "product_over", patched)
    rep = verify_identity("euler_pentagonal", 12)
    assert not rep.passed
    assert rep.note == "pentagonal-theorem specialization at a cube root of unity"
    assert rep.first_mismatch == {"position": "x^3 via cube-free stage",
                                  "lhs": "-1", "rhs": "0"}
