"""Registry of the exact generating-function identities and their verifiers.

Every identity is checked coefficient by coefficient at a configurable
truncation order, in the coefficient ring the statement lives in: integers,
Laurent polynomials in u^(1/2), or the sl2 representation ring.  Each sign
of the triple product is built once per order in a process
(``_triple_product``) and read by every side that is one: as it is, reduced
by u -> omega with omega^2 = -1 - omega, or as the Weyl character of a
representation-ring product, read back with ``weyl_inverse``.  Sides that
count chain or singular dimensions are produced by the combinatorial
machinery of the package, not by the series closed forms they are compared
against, and the two independent dimension routes (weight-space counting
and the Clebsch-Gordan character product) are cross-asserted wherever both
apply.

A verifier is a generator of ``(label, lhs, rhs)`` comparisons, registered
with ``_identity``.  Both sides of a comparison are ``Series``, compared by
power of x, or dict tables, compared by sorted key with 0 for a missing
key.  ``_report`` runs the comparisons in order and stops at the first
difference; its position is the label formatted with ``x^e`` or with the
table key, and a route cross-check names its route in the label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chains import enumerate_block, levels, weight_dim_table
from .generators import epsilon
from .series import DEFAULT_ORDER, Series, inverse_theta_neg, product_over, theta
from .sl2 import HalfLaurent, RepRingElement, singular_block_dims, weyl_inverse, weyl_map


@dataclass(frozen=True)
class IdentityReport:
    name: str
    order: int
    passed: bool
    first_mismatch: dict | None
    note: str

    def __bool__(self):
        return self.passed


def _report(name: str, note: str, order: int, comparisons) -> IdentityReport:
    """Run the ``(label, lhs, rhs)`` comparisons in order and report the
    first position where the two sides differ."""
    for label, lhs, rhs in comparisons:
        if isinstance(lhs, Series):
            pairs = ((f"x^{e}", a, b) for e, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)))
        else:
            pairs = ((key, lhs.get(key, 0), rhs.get(key, 0))
                     for key in sorted(set(lhs) | set(rhs)))
        for key, a, b in pairs:
            if a != b:
                return IdentityReport(name, order, False, {
                    "position": label.format(key), "lhs": repr(a), "rhs": repr(b)}, note)
    return IdentityReport(name, order, True, None, note)


_REGISTRY: dict = {}

# Smallest truncation order at which each comparison sees a nontrivial
# coefficient beyond the constant term; below it the check passes vacuously.
MINIMAL_ORDER: dict = {}


def _identity(name: str, note: str, minimal_order: int = 2):
    """Register the decorated generator of comparisons as identity ``name``;
    ``_REGISTRY[name](order)`` runs the whole check."""
    def register(comparisons):
        def check(order: int) -> IdentityReport:
            return _report(name, note, order, comparisons(order))

        _REGISTRY[name] = check
        MINIMAL_ORDER[name] = minimal_order
        return comparisons

    return register


# ---------------------------------------------------------------------------
# shared series ingredients

def _triangular(order: int):
    """Yield ``(w, w(w+1)/2)`` for w = 0, 1, ... while w(w+1)/2 < order."""
    w = 0
    while (t := w * (w + 1) // 2) < order:
        yield w, t
        w += 1


@lru_cache(maxsize=4)
def _mu(order: int) -> tuple:
    """Coefficients of theta(-x, 1)^(-1), the overpartition numbers."""
    return tuple(inverse_theta_neg(order).coeffs)


def _mu_at(order: int, n: int) -> int:
    return _mu(order)[n] if 0 <= n < order else 0


@lru_cache(maxsize=4)
def _triple_product(order: int, sign: int) -> Series:
    """prod (1 + sign u^{-1} x^m)(1 + sign x^m)(1 + sign u x^m), with
    s = u^{-1} + 1 + u the character of the adjoint module.  The cached
    ``Series`` is shared, so its readers must only read it (``scale``,
    ``Series(...)``, ``_at_cube_root`` and ``weyl_inverse`` build new
    objects), and that has to stay true."""
    s = HalfLaurent({-2: 1, 0: 1, 2: 1})
    return product_over(order, lambda m: [(0, 1), (m, s * sign), (2 * m, s), (3 * m, sign)])


def _at_cube_root(c):
    """The image of an int or ``HalfLaurent`` under u -> omega, omega^3 = 1:
    a + b omega with omega^2 = -1 - omega, returned as the int a when b = 0
    and as the ``HalfLaurent`` a + b u otherwise.  A half-integer power of u
    raises ValueError."""
    if isinstance(c, int):
        return c
    by_class = [0, 0, 0]
    for t, v in c.terms.items():
        if t % 2:
            raise ValueError(f"{c!r} has a half-integer power of u")
        by_class[t // 2 % 3] += v
    a, b = by_class[0] - by_class[2], by_class[1] - by_class[2]
    return HalfLaurent({0: a, 2: b}) if b else a


def _weight_series(k: int, order: int) -> Series:
    """sum over (w, h) of dim C^{(w,h)}(L(k)) u^w x^h, from the dimension DP."""
    acc: list[dict] = [dict() for _ in range(order)]
    for (w, h), n in weight_dim_table(k, order - 1).items():
        if h < order:
            acc[h][2 * w] = acc[h].get(2 * w, 0) + n
    return Series(order, [HalfLaurent(a) for a in acc])


def singular_series(k: int, order: int) -> tuple:
    """Graded singular character of the chain complex of L(k), k = -1 (mod 3).

    The Clebsch-Gordan product over the adjoint triples, the +1 triple
    product read as a Weyl character, times the constant factor 2 + 2z for
    k = -1.  Coefficient h is the representation-ring class whose
    multiplicities are dim S^{(w,h)}.
    """
    if k not in (-1, 2):
        raise ValueError("singular characters are computed for k in {-1, 2}")
    s = _triple_product(order, 1)
    if k == -1:
        s = s.scale(weyl_map(RepRingElement({0: 2, 2: 2})))
    return tuple(weyl_inverse(c) for c in s.coeffs)


# ---------------------------------------------------------------------------
# the identities

@_identity("gauss_jacobi", "Gauss-Jacobi identity from the Euler characteristic of L(1)")
def _check_gauss_jacobi(order: int):
    """(1-u) prod (1-u^{-1}x^m)(1-x^m)(1-ux^m) = sum (-1)^w u^w x^{w(w-1)/2}."""
    lhs = _triple_product(order, -1).scale(HalfLaurent.one() - HalfLaurent.u_power(2))
    # the weights w = -v and w = v + 1 share the exponent v(v+1)/2
    rhs = Series.from_terms(order, [
        (t, HalfLaurent.u_power(-2 * v, (-1) ** v) + HalfLaurent.u_power(2 * v + 2, -(-1) ** v))
        for v, t in _triangular(order)])
    yield "{}", lhs, rhs


@_identity("jacobi_traditional", "classical form after u -> u^2 x, x -> x^2")
def _check_jacobi_traditional(order: int):
    """prod (1-u^{-2}x^{2m-1})(1-x^{2m})(1-u^2 x^{2m-1}) = sum (-1)^w u^{2w} x^{w^2}."""
    s = HalfLaurent.u_power(4) + HalfLaurent.u_power(-4)

    def factor(m):
        a, b = 2 * m - 1, 2 * m
        # (1 - u^2 y)(1 - u^-2 y)(1 - z) with y = x^a, z = x^b
        return [(0, 1), (a, -s), (b, -1), (2 * a, 1), (a + b, s), (2 * a + b, -1)]

    lhs = product_over(order, factor)
    # the terms with w^2 >= order drop
    yield "{}", lhs, Series.from_terms(order, [
        (w * w, HalfLaurent.u_power(4 * w, 1 - 2 * (w % 2))) for w in range(1 - order, order)])


@_identity("theta_inverse_product", "overpartition generating function")
def _check_theta_inverse_product(order: int):
    """prod (1+x^m)/(1-x^m) equals the inverse of theta(-x, 1)."""
    plus = product_over(order, lambda m: [(0, 1), (m, 1)])
    minus = product_over(order, lambda m: [(0, 1), (m, -1)])
    yield "{}", plus * minus.inverse(), inverse_theta_neg(order)


_GEN_L1_WINDOW = (-4, -2, -1, 0, 1, 2, 3, 4)
_GEN_L1_ANCHOR = 8


@_identity("gen_L1", "eigenvalue multiplicities of L(1) are independent of the weight")
def _check_gen_L1(order: int):
    """For every weight w, the chain dimensions of L(1) along the eigenvalue
    grading reproduce the inverse theta series, independently of w."""
    rhs = inverse_theta_neg(order)
    shift_max = max(w * (w - 1) // 2 for w in _GEN_L1_WINDOW)
    table = weight_dim_table(1, order - 1 + shift_max)
    anchor = min(_GEN_L1_ANCHOR, order)
    # anchor the DP against explicit monomial enumeration, one block per degree
    degrees = {lam + w * (w - 1) // 2 for w in _GEN_L1_WINDOW for lam in range(anchor)}
    enumerated: dict = {}
    for h in degrees:
        for level in levels(enumerate_block(1, h)).values():
            for w, (start, end) in level.bounds.items():
                enumerated[w, h] = enumerated.get((w, h), 0) + end - start
    for w in _GEN_L1_WINDOW:
        shift = w * (w - 1) // 2
        dims = [table.get((w, lam + shift), 0) for lam in range(order)]
        yield f"(w={w}, {{}})", Series(order, dims), rhs
        yield (f"(w={w}, {{}}) via enumeration", Series(anchor, dims),
               Series(anchor, [enumerated.get((w, lam + shift), 0) for lam in range(anchor)]))


@_identity("gen_L0", "weighted eigenvalue multiplicities of L(0), two-sided theta numerator")
def _check_gen_L0(order: int):
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
    yield "{}", lhs, (theta(order, "symmetric") * inverse_theta_neg(order)).scale(2)


@_identity("mult_L0_product", "odd-part product form of the multiplicity series")
def _check_mult_L0_product(order: int):
    """theta(x,1)/theta(-x,1) = prod ((1+x^{2m-1})/(1-x^{2m-1}))^2."""
    lhs = theta(order, "u=1") * inverse_theta_neg(order)
    plus = product_over(order, lambda m: [(0, 1), (2 * m - 1, 1)])
    minus = product_over(order, lambda m: [(0, 1), (2 * m - 1, -1)])
    ratio = plus * minus.inverse()
    yield "{}", lhs, ratio * ratio


def _bracket_rhs_terms(order: int, neg_u: bool):
    terms = []
    for w, t in _triangular(order):
        br = HalfLaurent.bracket(2 * w + 1)
        if neg_u:
            br = br.substitute_neg_u()
        terms.append((t, br * (1 if w % 2 == 0 else -1)))
    return terms


@_identity("L2_gauss_jacobi", "character-weighted form attached to the homology of L(2)")
def _check_L2_gauss_jacobi(order: int):
    """prod (1-u^{-1}x^m)(1-x^m)(1-ux^m) = sum (-1)^w [2w+1]_u x^{w(w+1)/2}."""
    rhs = Series.from_terms(order, _bracket_rhs_terms(order, False))
    yield "{}", _triple_product(order, -1), rhs


@_identity("jacobi_cube", "cube of the Euler function")
def _check_jacobi_cube(order: int):
    """prod (1-x^m)^3 = sum (-1)^w (2w+1) x^{w(w+1)/2}."""
    lhs = product_over(order, lambda m: [(0, 1), (m, -3), (2 * m, 3), (3 * m, -1)])
    rhs = Series.from_terms(order, [(t, (2 * w + 1) * (1 if w % 2 == 0 else -1))
                                    for w, t in _triangular(order)])
    yield "{}", lhs, rhs


@_identity("euler_pentagonal", "pentagonal-theorem specialization at a cube root of unity",
           minimal_order=4)
def _check_euler_pentagonal(order: int):
    """At u = omega, omega^2 + omega + 1 = 0: the triple product
    prod (1-u^{-1}x^m)(1-x^m)(1-ux^m) equals prod (1-x^{3m}), and the
    bracket coefficients of its expansion collapse to the period-3 signs."""
    lhs = Series(order, [_at_cube_root(c) for c in _triple_product(order, -1).coeffs])
    cubefree = product_over(order, lambda m: [(0, 1), (3 * m, -1)])
    yield "{} via cube-free stage", lhs, cubefree
    rhs = Series.from_terms(order, [(t, epsilon(2 * w + 1) * (1 if w % 2 == 0 else -1))
                                    for w, t in _triangular(order)])
    yield "{}", lhs, rhs


@_identity("bracket_sign", "sign-flip expansion of the odd brackets", minimal_order=1)
def _check_bracket_sign(order: int):
    """[2w+1]_{-u} = (-1)^w [2w+1]_u + 2 sum_{r<w} (-1)^r [2r+1]_u for w > 0."""
    lhs, rhs = {}, {}
    partial = HalfLaurent.zero()
    for w in range(1, min(order, 24) + 1):
        partial = partial + HalfLaurent.bracket(2 * w - 1) * (1 if (w - 1) % 2 == 0 else -1)
        lhs[w] = HalfLaurent.bracket(2 * w + 1).substitute_neg_u()
        rhs[w] = HalfLaurent.bracket(2 * w + 1) * (1 if w % 2 == 0 else -1) + partial * 2
    yield "w={}", lhs, rhs


@_identity("singular_gauss_jacobi", "singular-character form over the representation ring")
def _check_singular_gauss_jacobi(order: int):
    """In R(sl2)[[x]]: prod (1-x^a)(1-(z-1)x^a+x^{2a}) = sum (-1)^w z^w x^{w(w+1)/2}."""
    lhs = Series(order, [weyl_inverse(c) for c in _triple_product(order, -1).coeffs])
    rhs = Series.from_terms(order, [(t, RepRingElement({2 * w: 1 if w % 2 == 0 else -1}))
                                    for w, t in _triangular(order)])
    yield "{}", lhs, rhs


@_identity("singular_by_degree_L2",
           "closed form for the (w, h)-graded singular dimensions of L(2)")
def _check_singular_by_degree_L2(order: int):
    """The degree-graded singular character of L(2) equals
    (1 + sum_w (z^w + 2(-1)^w sum_{r<w} (-1)^r z^r) x^{w(w+1)/2}) / theta(-x,1)."""
    terms = []
    for w, t in _triangular(order):
        coeff: dict[int, int] = {2 * w: 1}
        sign = 2 if w % 2 == 0 else -2
        for r in range(w):
            coeff[2 * r] = coeff.get(2 * r, 0) + (sign if r % 2 == 0 else -sign)
        terms.append((t, RepRingElement(coeff)))
    rhs = Series.from_terms(order, terms) * inverse_theta_neg(order)
    yield "{}", Series(order, singular_series(2, order)), rhs


_SINGULAR_REGION_LAMBDA = 10
_SINGULAR_REGION_W = 6


def _singular_mults(k: int, order: int, closed_form):
    """Comparisons of dim S^{[w,lambda]}(L(k)) on the verification region
    lambda <= 10, w <= 6: the dimensions by weight-space counting against
    the character product, then against ``closed_form(w, lam, mu)``, where
    ``mu(n)`` is the n-th overpartition number (0 for n < 0)."""
    lam_max = min(order - 1, _SINGULAR_REGION_LAMBDA)
    # the degree of eigenvalue lambda is lambda - w(w+1)/2 for k = -1 and
    # lambda + w(w+1)/2 for k = 2; negative degrees hold nothing
    sign = 1 if k == 2 else -1
    degree = {(w, lam): lam + sign * (w * (w + 1) // 2)
              for w in range(_SINGULAR_REGION_W + 1) for lam in range(lam_max + 1)}
    h_top = max(degree.values())
    chars = singular_series(k, h_top + 1)
    dims: dict = {}
    for (_, w, h), n in singular_block_dims(k, h_top).items():
        dims[w, h] = dims.get((w, h), 0) + n
    counted = {key: dims.get((key[0], h), 0) for key, h in degree.items() if h >= 0}
    label = "(w={0[0]}, lambda={0[1]})"
    yield (label + " via character product", counted,
           {key: chars[degree[key]].mult(2 * key[0]) for key in counted})

    def mu(n):
        return _mu_at(lam_max + 1, n)

    yield label, counted, {(w, lam): closed_form(w, lam, mu) for w, lam in degree}


@_identity("singular_mults_L2", "eigenvalue-graded singular dimensions of L(2)")
def _check_singular_mults_L2(order: int):
    """Closed form for sum dim S^{[w,lambda]}(L(2)) z^w x^lambda:
    mu(lambda) + 2 sum_{r>0} (-1)^r mu(lambda - r(r+1)/2 - rw)."""
    return _singular_mults(2, order, lambda w, lam, mu: sum(
        (-1) ** r * (2 if r else 1) * mu(lam - t - r * w) for r, t in _triangular(lam + 1)))


@_identity("singular_mults_Lminus1", "eigenvalue-graded singular dimensions of L(-1)")
def _check_singular_mults_Lminus1(order: int):
    """Closed form 2 sum z^w (x^{w^2} - x^{(w+1)^2}) / theta(-x,1) for the
    eigenvalue-graded singular dimensions of L(-1)."""
    return _singular_mults(-1, order, lambda w, lam, mu: 2 * (
        mu(lam - w * w) - mu(lam - (w + 1) * (w + 1))))


@_identity("weight_dim_products", "weighted block-dimension generating functions as products")
def _check_weight_dim_products(order: int):
    """Product form of the weighted block dimensions of L(2) and L(-1)."""
    inv = inverse_theta_neg(order)
    rhs2 = Series.from_terms(order, _bracket_rhs_terms(order, True)) * inv
    yield "(k=2, {})", _weight_series(2, order), rhs2
    terms = []
    w = 0
    while w * (w - 1) // 2 < order:
        br = HalfLaurent.bracket(2 * w + 1)
        terms.append((w * (w - 1) // 2, br))
        terms.append((w * (w - 1) // 2 + 2 * w + 1, -br))
        w += 1
    rhs1 = (Series.from_terms(order, terms) * inv).scale(2)
    yield "(k=-1, {})", _weight_series(-1, order), rhs1


_MULT_ANCHOR_H = 5


@_identity("mult_Lminus1", "eigenvalue multiplicities of L(-1) match those of L(0)")
def _check_mult_Lminus1(order: int):
    """Total eigenvalue multiplicities of L(-1): sum over blocks of isotypic
    dimensions equals 2 theta(x,1)/theta(-x,1); anchored on small degrees
    against the exact block spectra."""
    chars = singular_series(-1, order)
    acc = [0] * order
    for h, elem in enumerate(chars):
        for d, m in elem.terms.items():
            w = d // 2
            lam = h + w * (w + 1) // 2
            if lam < order:
                acc[lam] += m * (d + 1)
    lhs = Series(order, acc)
    yield "{}", lhs, (theta(order, "u=1") * inverse_theta_neg(order)).scale(2)
    from .laplacian import spectrum

    # blocks with h > lambda cannot contribute to eigenvalue lambda
    anchor_order = min(_MULT_ANCHOR_H, order - 1) + 1
    anchor = [0] * anchor_order
    for h in range(anchor_order):
        for lam, mult in spectrum(-1, h).lines:
            if lam < anchor_order:
                anchor[lam] += mult
    yield "{} via block spectra", Series(anchor_order, acc), Series(anchor_order, anchor)


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
