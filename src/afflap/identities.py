"""Registry of the exact generating-function identities and their verifiers.

Every identity is checked coefficient by coefficient at a configurable
truncation order, in the coefficient ring the statement lives in (integers,
Laurent polynomials in u^(1/2), the sl2 representation ring, or the cube-root
quotient ring).  Sides that count chain or singular dimensions are produced
by the combinatorial machinery of the package, not by the series closed
forms they are compared against, and the two independent dimension routes
(weight-space counting and the Clebsch-Gordan character product) are
cross-asserted wherever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chains import enumerate_block, weight_dim_table
from .generators import epsilon
from .series import DEFAULT_ORDER, EisensteinInt, Series, inverse_theta_neg, product_over, theta
from .sl2 import HalfLaurent, RepRingElement, singular_block_dims


@dataclass(frozen=True)
class IdentityReport:
    name: str
    order: int
    passed: bool
    first_mismatch: dict | None
    note: str

    def __bool__(self):
        return self.passed


def _series_report(name: str, order: int, lhs: Series, rhs: Series, note: str) -> IdentityReport:
    mism = lhs.first_mismatch(rhs)
    if mism is None:
        return IdentityReport(name, order, True, None, note)
    e, a, b = mism
    return IdentityReport(name, order, False,
                          {"position": f"x^{e}", "lhs": repr(a), "rhs": repr(b)}, note)


def _table_report(name: str, order: int, lhs: dict, rhs: dict, note: str,
                  fmt=lambda key: str(key)) -> IdentityReport:
    for key in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(key, 0), rhs.get(key, 0)
        if a != b:
            return IdentityReport(name, order, False,
                                  {"position": fmt(key), "lhs": repr(a), "rhs": repr(b)}, note)
    return IdentityReport(name, order, True, None, note)


# ---------------------------------------------------------------------------
# shared series ingredients

@lru_cache(maxsize=None)
def _mu(order: int) -> tuple:
    """Coefficients of theta(-x, 1)^(-1), the overpartition numbers."""
    return tuple(inverse_theta_neg(order).coeffs)


def _mu_at(order: int, n: int) -> int:
    return _mu(order)[n] if 0 <= n < order else 0


def _triple_factor_terms(m: int, sign: int):
    """(1 + sign u^{-1} x^m)(1 + sign x^m)(1 + sign u x^m) expanded in x."""
    s = HalfLaurent({-2: 1, 0: 1, 2: 1})
    return [(0, 1), (m, s * sign), (2 * m, s), (3 * m, sign)]


@lru_cache(maxsize=None)
def _weight_series(k: int, order: int) -> Series:
    """sum over (w, h) of dim C^{(w,h)}(L(k)) u^w x^h, from the dimension DP."""
    acc: list[dict] = [dict() for _ in range(order)]
    for (w, h), n in weight_dim_table(k, order - 1).items():
        if h < order:
            acc[h][2 * w] = acc[h].get(2 * w, 0) + n
    return Series(order, [HalfLaurent(a) for a in acc])


@lru_cache(maxsize=None)
def singular_series(k: int, order: int) -> tuple:
    """Graded singular character of the chain complex of L(k), k = -1 (mod 3).

    The Clebsch-Gordan product over the adjoint triples: one factor
    1 + z x^a + z x^{2a} + x^{3a} per positive degree a, and the constant
    factor 2 + 2z for k = -1.  Coefficient h is the representation-ring
    class whose multiplicities are dim S^{(w,h)}.
    """
    if k not in (-1, 2):
        raise ValueError("singular characters are computed for k in {-1, 2}")
    z = RepRingElement.simple(2)
    s = product_over(order, lambda a: [(0, 1), (a, z), (2 * a, z), (3 * a, 1)])
    if k == -1:
        s = s.scale(RepRingElement({0: 2, 2: 2}))
    # coefficients no factor reaches are still ints
    return tuple(RepRingElement() + c for c in s.coeffs)


# ---------------------------------------------------------------------------
# the identities

def _check_gauss_jacobi(order: int) -> IdentityReport:
    """(1-u) prod (1-u^{-1}x^m)(1-x^m)(1-ux^m) = sum (-1)^w u^w x^{w(w-1)/2}."""
    lhs = product_over(order, lambda m: _triple_factor_terms(m, -1))
    lhs = lhs.scale(HalfLaurent.one() - HalfLaurent.u_power(2))
    terms = []
    w = 0
    while True:
        grown = False
        for ww in (w, -w) if w else (0,):
            e = ww * (ww - 1) // 2
            if e < order:
                sign = 1 if ww % 2 == 0 else -1
                terms.append((e, HalfLaurent.u_power(2 * ww, sign)))
                grown = True
        if not grown:
            break
        w += 1
    rhs = Series.from_terms(order, terms)
    return _series_report("gauss_jacobi", order, lhs, rhs,
                          "Gauss-Jacobi identity from the Euler characteristic of L(1)")


def _check_jacobi_traditional(order: int) -> IdentityReport:
    """prod (1-u^{-2}x^{2m-1})(1-x^{2m})(1-u^2 x^{2m-1}) = sum (-1)^w u^{2w} x^{w^2}."""
    s = HalfLaurent.u_power(4) + HalfLaurent.u_power(-4)

    def factor(m):
        a, b = 2 * m - 1, 2 * m
        # (1 - u^2 y)(1 - u^-2 y)(1 - z) with y = x^a, z = x^b
        return [(0, 1), (a, -s), (b, -1), (2 * a, 1), (a + b, s), (2 * a + b, -1)]

    lhs = product_over(order, factor)
    terms = []
    w = 0
    while w * w < order:
        for ww in (w, -w) if w else (0,):
            sign = 1 if ww % 2 == 0 else -1
            terms.append((ww * ww, HalfLaurent.u_power(4 * ww, sign)))
        w += 1
    rhs = Series.from_terms(order, terms)
    return _series_report("jacobi_traditional", order, lhs, rhs,
                          "classical form after u -> u^2 x, x -> x^2")


def _check_theta_inverse_product(order: int) -> IdentityReport:
    """prod (1+x^m)/(1-x^m) equals the inverse of theta(-x, 1)."""
    plus = product_over(order, lambda m: [(0, 1), (m, 1)])
    minus = product_over(order, lambda m: [(0, 1), (m, -1)])
    lhs = plus * minus.inverse()
    return _series_report("theta_inverse_product", order, lhs, inverse_theta_neg(order),
                          "overpartition generating function")


_GEN_L1_WINDOW = (-4, -2, -1, 0, 1, 2, 3, 4)
_GEN_L1_ANCHOR = 8


def _check_gen_L1(order: int) -> IdentityReport:
    """For every weight w, the chain dimensions of L(1) along the eigenvalue
    grading reproduce the inverse theta series, independently of w."""
    rhs = inverse_theta_neg(order)
    note = "eigenvalue multiplicities of L(1) are independent of the weight"
    shift_max = max(w * (w - 1) // 2 for w in _GEN_L1_WINDOW)
    table = weight_dim_table(1, order - 1 + shift_max)
    for w in _GEN_L1_WINDOW:
        shift = w * (w - 1) // 2
        dims = [table.get((w, lam + shift), 0) for lam in range(order)]
        lhs = Series(order, dims)
        rep = _series_report("gen_L1", order, lhs, rhs, note)
        if not rep.passed:
            mism = dict(rep.first_mismatch)
            mism["position"] = f"(w={w}, {mism['position']})"
            return IdentityReport("gen_L1", order, False, mism, note)
        # anchor the DP against explicit monomial enumeration
        for lam in range(min(_GEN_L1_ANCHOR, order)):
            if enumerate_block(1, lam + shift, w).dim != dims[lam]:
                return IdentityReport(
                    "gen_L1", order, False,
                    {"position": f"(w={w}, x^{lam})", "lhs": str(dims[lam]),
                     "rhs": "enumeration disagrees with dimension table"}, note)
    return IdentityReport("gen_L1", order, True, None, note)


def _check_gen_L0(order: int) -> IdentityReport:
    """Weighted eigenvalue multiplicities of L(0) as a theta quotient.

    The correct numerator is the two-sided theta sum over all integer
    weights, sum_w u^w x^(w^2); the one-sided 1 + 2 sum u^r x^(r^2) form
    only agrees with it at u = 1 (the exact coefficients at x^1 already
    differ: 2u^-1 + 4 + 2u versus 4u + 4).
    """
    acc: list[dict] = [dict() for _ in range(order)]
    for (w, h), n in weight_dim_table(0, order - 1).items():
        lam = h + w * (w + 1) // 2
        if lam < order:
            acc[lam][2 * w] = acc[lam].get(2 * w, 0) + n
    lhs = Series(order, [HalfLaurent(a) for a in acc])
    rhs = (theta(order, "symmetric") * inverse_theta_neg(order)).scale(2)
    return _series_report("gen_L0", order, lhs, rhs,
                          "weighted eigenvalue multiplicities of L(0), two-sided theta numerator")


def _check_mult_L0_product(order: int) -> IdentityReport:
    """theta(x,1)/theta(-x,1) = prod ((1+x^{2m-1})/(1-x^{2m-1}))^2."""
    lhs = theta(order, "u=1") * inverse_theta_neg(order)
    plus = product_over(order, lambda m: [(0, 1), (2 * m - 1, 1)])
    minus = product_over(order, lambda m: [(0, 1), (2 * m - 1, -1)])
    ratio = plus * minus.inverse()
    return _series_report("mult_L0_product", order, lhs, ratio * ratio,
                          "odd-part product form of the multiplicity series")


def _bracket_rhs_terms(order: int, neg_u: bool):
    terms = []
    w = 0
    while w * (w + 1) // 2 < order:
        br = HalfLaurent.bracket(2 * w + 1)
        if neg_u:
            br = br.substitute_neg_u()
        terms.append((w * (w + 1) // 2, br * (1 if w % 2 == 0 else -1)))
        w += 1
    return terms


def _check_L2_gauss_jacobi(order: int) -> IdentityReport:
    """prod (1-u^{-1}x^m)(1-x^m)(1-ux^m) = sum (-1)^w [2w+1]_u x^{w(w+1)/2}."""
    lhs = product_over(order, lambda m: _triple_factor_terms(m, -1))
    rhs = Series.from_terms(order, _bracket_rhs_terms(order, False))
    return _series_report("L2_gauss_jacobi", order, lhs, rhs,
                          "character-weighted form attached to the homology of L(2)")


def _check_jacobi_cube(order: int) -> IdentityReport:
    """prod (1-x^m)^3 = sum (-1)^w (2w+1) x^{w(w+1)/2}."""
    lhs = product_over(order, lambda m: [(0, 1), (m, -3), (2 * m, 3), (3 * m, -1)])
    terms = []
    w = 0
    while w * (w + 1) // 2 < order:
        terms.append((w * (w + 1) // 2, (2 * w + 1) * (1 if w % 2 == 0 else -1)))
        w += 1
    rhs = Series.from_terms(order, terms)
    return _series_report("jacobi_cube", order, lhs, rhs,
                          "cube of the Euler function")


def _check_euler_pentagonal(order: int) -> IdentityReport:
    """In Z[u]/(u^2+u+1): the triple product collapses to prod (1-x^{3m}) and
    the bracket coefficients collapse to the period-3 signs."""
    u = EisensteinInt(0, 1)
    uinv = EisensteinInt.u_to(-1)
    s = EisensteinInt(1) + u + uinv

    def factor(m):
        return [(0, 1), (m, -s), (2 * m, s), (3 * m, -1)]

    lhs = product_over(order, factor)
    cubefree = product_over(order, lambda m: [(0, 1), (3 * m, -1)])
    if lhs != cubefree:
        mism = lhs.first_mismatch(cubefree)
        return IdentityReport("euler_pentagonal", order, False,
                              {"position": f"x^{mism[0]}", "lhs": repr(mism[1]),
                               "rhs": repr(mism[2])},
                              "triple product did not collapse to cube-free form")
    terms = []
    w = 0
    while w * (w + 1) // 2 < order:
        c = epsilon(2 * w + 1) * (1 if w % 2 == 0 else -1)
        terms.append((w * (w + 1) // 2, EisensteinInt(c)))
        w += 1
    rhs = Series.from_terms(order, terms)
    return _series_report("euler_pentagonal", order, lhs, rhs,
                          "pentagonal-theorem specialization at a cube root of unity")


def _check_bracket_sign(order: int) -> IdentityReport:
    """[2w+1]_{-u} = (-1)^w [2w+1]_u + 2 sum_{r<w} (-1)^r [2r+1]_u for w > 0."""
    note = "sign-flip expansion of the odd brackets"
    partial = HalfLaurent.zero()
    for w in range(1, min(order, 24) + 1):
        partial = partial + HalfLaurent.bracket(2 * w - 1) * (1 if (w - 1) % 2 == 0 else -1)
        lhs = HalfLaurent.bracket(2 * w + 1).substitute_neg_u()
        rhs = HalfLaurent.bracket(2 * w + 1) * (1 if w % 2 == 0 else -1) + partial * 2
        if lhs != rhs:
            return IdentityReport("bracket_sign", order, False,
                                  {"position": f"w={w}", "lhs": repr(lhs),
                                   "rhs": repr(rhs)}, note)
    return IdentityReport("bracket_sign", order, True, None, note)


def _check_singular_gauss_jacobi(order: int) -> IdentityReport:
    """In R(sl2)[[x]]: prod (1-x^a)(1-(z-1)x^a+x^{2a}) = sum (-1)^w z^w x^{w(w+1)/2}."""
    z = RepRingElement.simple(2)
    lhs = product_over(order, lambda a: [(0, 1), (a, -z), (2 * a, z), (3 * a, -1)])
    terms = []
    w = 0
    while w * (w + 1) // 2 < order:
        terms.append((w * (w + 1) // 2,
                      RepRingElement({2 * w: 1 if w % 2 == 0 else -1})))
        w += 1
    rhs = Series.from_terms(order, terms)
    return _series_report("singular_gauss_jacobi", order, lhs, rhs,
                          "singular-character form over the representation ring")


def _check_singular_by_degree_L2(order: int) -> IdentityReport:
    """The degree-graded singular character of L(2) equals
    (1 + sum_w (z^w + 2(-1)^w sum_{r<w} (-1)^r z^r) x^{w(w+1)/2}) / theta(-x,1)."""
    lhs = Series(order, singular_series(2, order))
    terms = [(0, RepRingElement.one())]
    w = 1
    while w * (w + 1) // 2 < order:
        coeff: dict[int, int] = {2 * w: 1}
        sign = 2 if w % 2 == 0 else -2
        for r in range(w):
            coeff[2 * r] = coeff.get(2 * r, 0) + (sign if r % 2 == 0 else -sign)
        terms.append((w * (w + 1) // 2, RepRingElement(coeff)))
        w += 1
    rhs = Series.from_terms(order, terms) * inverse_theta_neg(order)
    return _series_report("singular_by_degree_L2", order, lhs, rhs,
                          "closed form for the (w, h)-graded singular dimensions of L(2)")


_SINGULAR_REGION_LAMBDA = 10
_SINGULAR_REGION_W = 6


def _check_singular_mults_L2(order: int) -> IdentityReport:
    """Closed form for sum dim S^{[w,lambda]}(L(2)) z^w x^lambda on the
    verification region lambda <= 10, w <= 6, with the dimensions produced by
    weight-space counting and cross-checked against the character product."""
    lam_max = min(order - 1, _SINGULAR_REGION_LAMBDA)
    w_max = _SINGULAR_REGION_W
    h_top = lam_max + w_max * (w_max + 1) // 2 + 1
    chars = singular_series(2, h_top)
    mu_order = lam_max + 1
    lhs: dict = {}
    rhs: dict = {}
    for w in range(w_max + 1):
        for lam in range(lam_max + 1):
            h = lam + w * (w + 1) // 2
            got = singular_block_dims(2, w, h)
            if chars[h].mult(2 * w) != got:
                return IdentityReport(
                    "singular_mults_L2", order, False,
                    {"position": f"(w={w}, lambda={lam})", "lhs": str(got),
                     "rhs": "character product disagrees with weight counting"},
                    "internal dimension routes disagree")
            lhs[(w, lam)] = got
            val = _mu_at(mu_order, lam)
            r = 1
            while r * (r + 1) // 2 + r * w <= lam:
                val += 2 * (-1) ** r * _mu_at(mu_order, lam - r * (r + 1) // 2 - r * w)
                r += 1
            rhs[(w, lam)] = val
    return _table_report("singular_mults_L2", order, lhs, rhs,
                         "eigenvalue-graded singular dimensions of L(2)",
                         fmt=lambda key: f"(w={key[0]}, lambda={key[1]})")


def _check_singular_mults_Lminus1(order: int) -> IdentityReport:
    """Closed form 2 sum z^w (x^{w^2} - x^{(w+1)^2}) / theta(-x,1) for the
    eigenvalue-graded singular dimensions of L(-1), same region as for L(2)."""
    lam_max = min(order - 1, _SINGULAR_REGION_LAMBDA)
    w_max = _SINGULAR_REGION_W
    chars = singular_series(-1, lam_max + 1)
    mu_order = lam_max + 1
    lhs: dict = {}
    rhs: dict = {}
    for w in range(w_max + 1):
        for lam in range(lam_max + 1):
            h = lam - w * (w + 1) // 2
            if h < 0:
                got = 0
            else:
                got = singular_block_dims(-1, w, h)
                if chars[h].mult(2 * w) != got:
                    return IdentityReport(
                        "singular_mults_Lminus1", order, False,
                        {"position": f"(w={w}, lambda={lam})", "lhs": str(got),
                         "rhs": "character product disagrees with weight counting"},
                        "internal dimension routes disagree")
            lhs[(w, lam)] = got
            rhs[(w, lam)] = 2 * (_mu_at(mu_order, lam - w * w)
                                 - _mu_at(mu_order, lam - (w + 1) * (w + 1)))
    return _table_report("singular_mults_Lminus1", order, lhs, rhs,
                         "eigenvalue-graded singular dimensions of L(-1)",
                         fmt=lambda key: f"(w={key[0]}, lambda={key[1]})")


def _check_weight_dim_products(order: int) -> IdentityReport:
    """Product form of the weighted block dimensions of L(2) and L(-1)."""
    inv = inverse_theta_neg(order)
    note = "weighted block-dimension generating functions as products"
    # L(2)
    lhs2 = _weight_series(2, order)
    rhs2 = Series.from_terms(order, _bracket_rhs_terms(order, True)) * inv
    rep = _series_report("weight_dim_products", order, lhs2, rhs2, note)
    if not rep.passed:
        mism = dict(rep.first_mismatch)
        mism["position"] = f"(k=2, {mism['position']})"
        return IdentityReport("weight_dim_products", order, False, mism, note)
    # L(-1)
    lhs1 = _weight_series(-1, order)
    terms = []
    w = 0
    while w * (w - 1) // 2 < order:
        br = HalfLaurent.bracket(2 * w + 1)
        terms.append((w * (w - 1) // 2, br))
        if w * (w - 1) // 2 + 2 * w + 1 < order:
            terms.append((w * (w - 1) // 2 + 2 * w + 1, -br))
        w += 1
    rhs1 = (Series.from_terms(order, terms) * inv).scale(2)
    rep = _series_report("weight_dim_products", order, lhs1, rhs1, note)
    if not rep.passed:
        mism = dict(rep.first_mismatch)
        mism["position"] = f"(k=-1, {mism['position']})"
        return IdentityReport("weight_dim_products", order, False, mism, note)
    return IdentityReport("weight_dim_products", order, True, None, note)


_MULT_ANCHOR_H = 5


def _check_mult_Lminus1(order: int) -> IdentityReport:
    """Total eigenvalue multiplicities of L(-1): sum over blocks of isotypic
    dimensions equals 2 theta(x,1)/theta(-x,1); anchored on small degrees
    against the exact block spectra."""
    note = "eigenvalue multiplicities of L(-1) match those of L(0)"
    chars = singular_series(-1, order)
    acc = [0] * order
    for h, elem in enumerate(chars):
        for d, m in elem.terms.items():
            w = d // 2
            lam = h + w * (w + 1) // 2
            if lam < order:
                acc[lam] += m * (d + 1)
    lhs = Series(order, acc)
    rhs = (theta(order, "u=1") * inverse_theta_neg(order)).scale(2)
    rep = _series_report("mult_Lminus1", order, lhs, rhs, note)
    if not rep.passed:
        return rep
    from .laplacian import spectrum

    anchor: dict[int, int] = {}
    for h in range(min(_MULT_ANCHOR_H, order - 1) + 1):
        for lam, mult in spectrum(-1, h).lines:
            anchor[lam] = anchor.get(lam, 0) + mult
    for lam in range(min(_MULT_ANCHOR_H, order - 1) + 1):
        # blocks with h > lam cannot contribute to this eigenvalue
        if anchor.get(lam, 0) != acc[lam]:
            return IdentityReport(
                "mult_Lminus1", order, False,
                {"position": f"x^{lam}", "lhs": str(acc[lam]),
                 "rhs": f"exact block spectra give {anchor.get(lam, 0)}"}, note)
    return rep


_REGISTRY = {
    "gauss_jacobi": _check_gauss_jacobi,
    "jacobi_traditional": _check_jacobi_traditional,
    "theta_inverse_product": _check_theta_inverse_product,
    "gen_L1": _check_gen_L1,
    "gen_L0": _check_gen_L0,
    "mult_L0_product": _check_mult_L0_product,
    "L2_gauss_jacobi": _check_L2_gauss_jacobi,
    "jacobi_cube": _check_jacobi_cube,
    "euler_pentagonal": _check_euler_pentagonal,
    "bracket_sign": _check_bracket_sign,
    "singular_gauss_jacobi": _check_singular_gauss_jacobi,
    "singular_by_degree_L2": _check_singular_by_degree_L2,
    "singular_mults_L2": _check_singular_mults_L2,
    "singular_mults_Lminus1": _check_singular_mults_Lminus1,
    "weight_dim_products": _check_weight_dim_products,
    "mult_Lminus1": _check_mult_Lminus1,
}

# Smallest truncation order at which each comparison sees a nontrivial
# coefficient beyond the constant term; below it the check passes vacuously.
MINIMAL_ORDER = {
    "gauss_jacobi": 2,
    "jacobi_traditional": 2,
    "theta_inverse_product": 2,
    "gen_L1": 2,
    "gen_L0": 2,
    "mult_L0_product": 2,
    "L2_gauss_jacobi": 2,
    "jacobi_cube": 2,
    "euler_pentagonal": 4,
    "bracket_sign": 1,
    "singular_gauss_jacobi": 2,
    "singular_by_degree_L2": 2,
    "singular_mults_L2": 2,
    "singular_mults_Lminus1": 2,
    "weight_dim_products": 2,
    "mult_Lminus1": 2,
}


def all_identities() -> tuple:
    return tuple(_REGISTRY)


def verify_identity(name: str, order: int = DEFAULT_ORDER) -> IdentityReport:
    """Run one registered identity at the given truncation order."""
    checker = _REGISTRY.get(name)
    if checker is None:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(_REGISTRY)}")
    if order < 1:
        raise ValueError("order must be at least 1")
    return checker(order)

