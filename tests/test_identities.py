import pytest

from afflap.identities import (
    IdentityReport,
    all_identities,
    singular_series,
    verify_identity,
)
from afflap.series import Series, product_over
from afflap.sl2 import RepRingElement, singular_block_dims, weyl_map

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


def test_singular_series_matches_block_dims():
    chars = singular_series(2, 9)
    for h in range(9):
        for w in range(5):
            assert chars[h].mult(2 * w) == singular_block_dims(2, w, h)
    chars = singular_series(-1, 6)
    for h in range(6):
        for w in range(4):
            assert chars[h].mult(2 * w) == singular_block_dims(-1, w, h)


def test_singular_series_coefficients_are_dimensions():
    # every multiplicity in the graded singular character counts a dimension
    for k in (-1, 2):
        for elem in singular_series(k, 40):
            assert all(m > 0 for m in elem.terms.values())


def test_weyl_commuting_square():
    """Applying the character map coefficient-wise to the singular identity
    reproduces the Laurent identity, order by order."""
    order = 16
    z = RepRingElement.simple(2)
    rep_lhs = product_over(order, lambda a: [(0, 1), (a, -z), (2 * a, z), (3 * a, -1)])
    # coefficient 0 is the int 1; weyl_map takes ring elements
    mapped = Series(order, [weyl_map(RepRingElement() + c) for c in rep_lhs.coeffs])
    from afflap.identities import _triple_factor_terms

    laurent_lhs = product_over(order, lambda m: _triple_factor_terms(m, -1))
    assert mapped.first_mismatch(laurent_lhs) is None


def test_pentagonal_coefficients_lie_in_signs():
    from afflap.generators import epsilon
    from afflap.series import EisensteinInt

    order = 30
    lhs = product_over(order, lambda m: [(0, 1), (3 * m, -1)])
    w = 0
    seen = {}
    while w * (w + 1) // 2 < order:
        seen[w * (w + 1) // 2] = epsilon(2 * w + 1) * (1 if w % 2 == 0 else -1)
        w += 1
    for e, c in enumerate(lhs.coeffs):
        assert c == EisensteinInt(seen.get(e, 0)), e


def test_weight_series_agrees_with_generator_product():
    """The weighted dimension series equals the product over generators of
    (1 + u^weight x^degree), built through the series machinery.

    For every k the positive-degree generators come in weight triples
    -1, 0, +1, one triple per degree; the few degree-zero generators
    contribute constant factors 1 + u^weight.
    """
    from afflap.generators import epsilon
    from afflap.identities import _triple_factor_terms, _weight_series
    from afflap.sl2 import HalfLaurent

    order = 10
    for k in (-1, 0, 1, 2):
        prod = product_over(order, lambda m: _triple_factor_terms(m, 1))
        for a in (-1, 0, 1):
            if a >= k:
                prod = prod.scale(HalfLaurent.one() + HalfLaurent.u_power(2 * epsilon(a)))
        assert prod.first_mismatch(_weight_series(k, order)) is None, k


def test_report_shape_on_failure():
    # compare two honest series that differ, through the report helper
    from afflap.identities import _series_report
    a = Series.from_terms(5, [(0, 1), (2, 3)])
    b = Series.from_terms(5, [(0, 1), (2, 4)])
    rep = _series_report("demo", 5, a, b, "demo")
    assert not rep.passed
    assert rep.first_mismatch["position"] == "x^2"
