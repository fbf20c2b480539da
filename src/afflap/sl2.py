"""Finite-dimensional sl2 machinery: representation ring, characters,
Clebsch-Gordan singular vectors, and the sl2 action on chain blocks.
``sl2_level`` is the one source of the checked e_{+-1} matrices of a
``chains.Level``: the Laplacian certificate takes the level Casimir from
it, and the singular route cuts its E_1 slices from the level matrix.
``require_equal`` is the one comparison of two level matrices that checks
1-4 of the Laplacian certificate make.

Dominant weights are stored doubled (2w is a non-negative integer), so all
bookkeeping stays integral even for half-integer weights.  The same doubling
convention applies to the exponents of ``HalfLaurent``, the Laurent
polynomials in u^(1/2) that carry Weyl characters.
"""

from __future__ import annotations

from fractions import Fraction
import numpy as np

from .chains import (
    BlockBasis,
    Level,
    adjoint_coo,
    block_dim_table,
    block_levels,
    levels,
    weight_dim_table,
)
from .linalg import Coo, bareiss_rank, coo_diag, coo_sum, gram, sparse_sum


class ClaimFalsified(AssertionError):
    """An exactly computed quantity contradicts a predicted law."""


def require_equal(left: Coo, right: Coo, weights: np.ndarray, claim: str) -> None:
    """Raise ClaimFalsified("<claim>, w=<w>") unless the compressed level
    matrices ``left`` and ``right`` are equal, array by array.  Their
    difference is formed only on a mismatch, in the orientation of
    ``left``; w is the weight, in ``weights``, of its first column."""
    if not all(map(np.array_equal, left, right)):
        diff = coo_sum(left.shape, left, right.scaled(-1))
        raise ClaimFalsified(f"{claim}, w={weights[diff.cols[0]]}")


class _SparseRingElement:
    """Ring element stored as a sparse map key -> nonzero int, key 0 being
    the unit.  Holds the additive structure, equality and hashing; each
    ring supplies its own ``__mul__``.  Integers coerce to constants, and
    mixing two different rings raises ``TypeError``.  Constants are built
    with ``_of``, so a ring may keep a constructor of its own."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = sparse_sum((terms or {}).items())

    @classmethod
    def _of(cls, terms: dict):
        """Wrap ``terms`` as is: arithmetic results are already zero-free
        and valid, so they skip the checks of ``__init__``."""
        elem = object.__new__(cls)
        elem.terms = terms
        return elem

    @classmethod
    def zero(cls):
        return cls._of({})

    @classmethod
    def one(cls):
        return cls._of({0: 1})

    def _coerce(self, other):
        """Ints become constants; an element of another ring raises."""
        if isinstance(other, int):
            return self._of({0: other} if other else {})
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        return other

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it must hash like it
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        return self._of(sparse_sum([*self.terms.items(),
                                    *self._coerce(other).terms.items()]))

    __radd__ = __add__

    def __neg__(self):
        return self._of({e: -v for e, v in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        return self * other  # every ring here is commutative


class RepRingElement(_SparseRingElement):
    """Element of the sl2 representation ring.

    A free Z-module on the simple modules, encoded as a map from doubled
    dominant weight to multiplicity; multiplication is the Clebsch-Gordan
    rule extended bilinearly.
    """

    __slots__ = ()

    def __init__(self, mults=None):
        if mults and min(mults) < 0:
            raise ValueError(f"negative doubled weight {min(mults)}")
        super().__init__(mults)

    @classmethod
    def simple(cls, two_w: int) -> "RepRingElement":
        """Class of the simple module with doubled dominant weight ``two_w``."""
        return cls({two_w: 1})

    def __mul__(self, other):
        if isinstance(other, int):
            return RepRingElement({d: c * other for d, c in self.terms.items()})
        other = self._coerce(other)
        terms = []
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                c = c1 * c2
                for d in range(abs(d1 - d2), d1 + d2 + 1, 2):
                    terms.append((d, c))
        return RepRingElement._of(sparse_sum(terms))

    def dimension(self) -> int:
        """Total dimension of a module with these multiplicities."""
        return sum(c * (d + 1) for d, c in self.terms.items())

    def mult(self, two_w: int) -> int:
        return self.terms.get(two_w, 0)

    def __repr__(self):
        if not self.terms:
            return "RepRingElement(0)"
        parts = []
        for d in sorted(self.terms):
            wtxt = str(d // 2) if d % 2 == 0 else f"{d}/2"
            parts.append(f"{self.terms[d]}*z^{wtxt}")
        return "RepRingElement(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Laurent polynomials in u^(1/2)

class HalfLaurent(_SparseRingElement):
    """Laurent polynomial in u^(1/2): map doubled exponent -> int."""

    __slots__ = ()

    @classmethod
    def u_power(cls, doubled_exp: int, coeff: int = 1):
        return cls({doubled_exp: coeff})

    @classmethod
    def bracket(cls, a: int) -> "HalfLaurent":
        """[a]_u = u^((a-1)/2) + u^((a-3)/2) + ... + u^(-(a-1)/2), a >= 0."""
        if a < 0:
            raise ValueError("bracket takes a non-negative integer")
        return cls({e: 1 for e in range(-(a - 1), a, 2)})

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfLaurent({e: v * other for e, v in self.terms.items()})
        other = self._coerce(other)
        terms = []
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                terms.append((e1 + e2, v1 * v2))
        return HalfLaurent._of(sparse_sum(terms))

    def substitute_neg_u(self) -> "HalfLaurent":
        """u -> -u; defined for integer exponents only."""
        out = {}
        for e, v in self.terms.items():
            if e % 2:
                raise ValueError("u -> -u needs integer exponents")
            out[e] = -v if (e // 2) % 2 else v
        return HalfLaurent(out)

    def __repr__(self):
        if not self.terms:
            return "HalfLaurent(0)"
        parts = []
        for e in sorted(self.terms, reverse=True):
            etxt = str(e // 2) if e % 2 == 0 else f"{e}/2"
            parts.append(f"{self.terms[e]}*u^{etxt}")
        return "HalfLaurent(" + " + ".join(parts) + ")"


def weyl_map(x: RepRingElement) -> HalfLaurent:
    """Character map: the simple module of doubled weight d goes to [d+1]_u.

    A ring isomorphism onto the span of the brackets.
    """
    out = HalfLaurent.zero()
    for d, c in x.terms.items():
        out = out + HalfLaurent.bracket(d + 1) * c
    return out


def weyl_inverse(p: HalfLaurent | int) -> RepRingElement:
    """Inverse of weyl_map: the multiplicity of the simple module of doubled
    weight d is chi_d - chi_{d+2}, chi_t the coefficient of u^(t/2).  An int
    is the constant character, a multiple of the trivial module.

    Raises when the input is not symmetric, so not an integer combination
    of brackets.
    """
    chi = (HalfLaurent.zero() + p).terms
    if any(chi.get(-t, 0) != v for t, v in chi.items()):
        raise ValueError(f"{p!r} is not an sl2 character")
    tops = {t for t in chi if t >= 0} | {t - 2 for t in chi if t >= 2}
    return RepRingElement({d: chi.get(d, 0) - chi.get(d + 2, 0) for d in tops})


# ---------------------------------------------------------------------------
# abstract simple modules and the Clebsch-Gordan singular vectors

class SimpleModule:
    """Model of the simple sl2-module with doubled dominant weight 2w.

    Basis v_0 .. v_{2w} with v_p the p-fold lowering of the singular vector:
    e_0 v_p = (w - p) v_p, e_{-1} v_p = v_{p+1}, e_1 v_p = p (2w - p + 1)/2 v_{p-1}.
    """

    def __init__(self, two_w: int):
        if two_w < 0:
            raise ValueError("doubled weight must be non-negative")
        self.two_w = two_w
        self.dim = two_w + 1

    def act(self, g: int, p: int):
        """Action on a basis vector; returns (coefficient, index) or None."""
        if g == 0:
            c = Fraction(self.two_w - 2 * p, 2)
            return (c, p) if c else None
        if g == -1:
            return (Fraction(1), p + 1) if p + 1 <= self.two_w else None
        if g == 1:
            if p == 0:
                return None
            return (Fraction(p * (self.two_w - p + 1), 2), p - 1)
        raise ValueError("generator must be -1, 0 or 1")


def _tensor_apply(g: int, vec: dict, m1: SimpleModule, m2: SimpleModule) -> dict:
    terms = []
    for (p1, p2), c in vec.items():
        for mod, slot in ((m1, 0), (m2, 1)):
            im = mod.act(g, p1 if slot == 0 else p2)
            if im is None:
                continue
            coeff, np_ = im
            key = (np_, p2) if slot == 0 else (p1, np_)
            terms.append((key, c * coeff))
    return sparse_sum(terms)


def cg_singular_vector(w1, w2, p: int) -> list[Fraction]:
    """Coefficients c_0..c_p of the weight-(w1 + w2 - p) singular vector
    sum_i c_i e_{-1}^i(v1) (x) e_{-1}^(p-i)(v2) in V(w1) (x) V(w2).

    c_i = (-1)^i (2w2-p+i)! (2w1-i)! / ((2w2-p)! (2w1)! i! (p-i)!); the
    binomial-style i!(p-i)! denominator is forced by the raising-operator
    recursion c_i = -c_{i-1} (p-i+1)(2w2-p+i) / (i (2w1-i+1)).

    Singular vectors of weight w1 + w2 - p exist exactly for
    0 <= p <= 2 min(w1, w2) (the tensor product stops at |w1 - w2|), and on
    that range every factorial argument is non-negative.  The result is
    verified on the spot: the raising operator must kill it exactly.
    """
    d1, d2 = _doubled(w1), _doubled(w2)
    if not 0 <= p <= min(d1, d2):
        raise ValueError(
            f"p must satisfy 0 <= p <= 2*min(w1, w2) = {min(d1, d2)}, got {p}")
    from math import factorial

    coeffs = []
    for i in range(p + 1):
        num = factorial(d2 - p + i) * factorial(d1 - i)
        den = factorial(d2 - p) * factorial(d1) * factorial(i) * factorial(p - i)
        coeffs.append(Fraction(-num if i % 2 else num, den))
    m1, m2 = SimpleModule(d1), SimpleModule(d2)
    vec = {(i, p - i): c for i, c in enumerate(coeffs) if c}
    if not vec:
        raise ValueError(f"singular vector vanishes for w1={w1}, w2={w2}, p={p}")
    if _tensor_apply(1, vec, m1, m2):
        raise AssertionError("raising operator does not annihilate the result")
    for (i, j) in vec:
        if d1 - 2 * i + d2 - 2 * j != d1 + d2 - 2 * p:
            raise AssertionError("mixed weights in the singular vector")
    return coeffs


def _doubled(w) -> int:
    d = Fraction(w) * 2
    if d.denominator != 1 or d < 0:
        raise ValueError(f"{w} is not a non-negative half-integer")
    return int(d)


# ---------------------------------------------------------------------------
# chain blocks as sl2-modules, one (q, h) level at a time

def _check_lands(up: Coo, level: Level, where: str) -> None:
    """Check 2, first half: every image of e_1 from weight w has weight
    w + 1.  A failure names the slice of the first failing column."""
    weights = level.weights
    bad = np.flatnonzero(weights[up.rows] != weights[up.cols] + 1)
    if bad.size:
        i = bad[np.argmin(up.cols[bad])]
        row, col = up.rows[i], up.cols[i]
        w = int(weights[col])
        raise ClaimFalsified(
            f"e_1 leaves weight {w + 1} on {where}, w={w}: image term "
            f"{tuple(level.monos[row].tolist())} of {tuple(level.monos[col].tolist())} "
            f"is outside the target block (k={level.k}, h={level.h}, w={w + 1})")


def sl2_level(k: int, level: Level) -> tuple[Coo, Coo]:
    """``(E, C)`` on one level: E is the matrix of e_1, built by its image
    rule, and C = E^T E + w^2 I + E E^T the Casimir; both keep q, E raises
    w by one and C keeps it.  The level first passes checks 2 and 3 of the
    ``laplacian`` docstring: E lands in weight w + 1 and the matrix of
    e_{-1}, built on its own by its image rule, equals E^T, so it lands in
    weight w - 1; and E E^T - E^T E = w I, which is [e_1, e_{-1}] = e_0.
    So the level is an sl2-module, and C acts by w'(w'+1) on its isotypic
    piece of dominant weight w'.  A failure raises ClaimFalsified naming k, h, q and the w of
    the first failing column of the e_1 matrix.
    """
    n, weights = len(level), level.weights
    where = f"k={k}, h={level.h}, q={level.q}"
    up = adjoint_coo(1, k, level)
    _check_lands(up, level, where)
    down = adjoint_coo(-1, k, level)
    require_equal(up, coo_sum((n, n), down.T), weights,
                  f"e_-1 is not the transpose of e_1 on {where}")
    lower_raise = gram([up], where)     # e_-1 e_1 = E^T E
    raise_lower = gram([up.T], where)   # e_1 e_-1 = E E^T
    require_equal(raise_lower, coo_sum((n, n), lower_raise, coo_diag(weights)), weights,
                  f"[e_1, e_-1] != w I on {where}")
    return up, coo_sum((n, n), lower_raise, coo_diag(weights * weights), raise_lower)


def _level_multiplicities(k: int, level: Level) -> RepRingElement:
    """Isotypic multiplicities of one level closed under the sl2 action.
    The level passes the checks of ``sl2_level``; on each of its
    (q, w >= 0) slices two counts must agree: dim ker E_w, by exact
    elimination, with E_w the block of E from the (q, w) slice to the
    (q, w+1) slice, and dim(q, w) - dim(q, w+1).  The multiplicities must
    fill the level.
    """
    up = sl2_level(k, level)[0]
    mults: dict[int, int] = {}
    for w, (a, b) in level.bounds.items():
        if w < 0:
            continue
        raising = up.block(*level.span(w + 1), a, b)
        kernel = b - a - bareiss_rank(raising.dense().tolist())
        diff = b - a - raising.shape[0]  # dim(q, w + 1)
        if kernel != diff:
            raise ClaimFalsified(
                f"multiplicity methods disagree on k={k}, h={level.h}, q={level.q}, "
                f"w={w}: kernel {kernel}, difference {diff}")
        mults[2 * w] = kernel
    result = RepRingElement(mults)
    if result.dimension() != len(level):
        raise ClaimFalsified(
            f"multiplicities account for {result.dimension()} of {len(level)} "
            f"dimensions on k={k}, h={level.h}")
    return result


def singular_multiplicities(k: int, basis: BlockBasis) -> RepRingElement:
    """The sum of the ``_level_multiplicities`` of the levels of ``basis``,
    a union of whole (q, w) slices closed under the sl2 action."""
    if k % 3 != 2:
        raise ValueError("chain blocks are sl2-modules for k = -1 (mod 3)")
    return sum((_level_multiplicities(k, level) for level in levels(basis).values()),
               RepRingElement.zero())


# The blocks we are willing to decompose with dense matrix arithmetic.
MATRIX_ROUTE_CUT = 220


def singular_block_dims(k: int, h_max: int) -> dict[tuple[int, int, int], int]:
    """dim of the weight-w singular subspace of each (q, h) level of L(k),
    for every h <= h_max: the nonzero entries, w >= 0, as a map
    (q, w, h) -> dim.

    Counted from the dimension tables, each built once: per q as
    dim(q, w) - dim(q, w+1) from ``block_dim_table``, and summed over q as
    dim(w) - dim(w+1) from ``weight_dim_table``.  No per-q count may be
    negative, and the per-q counts must sum to the weight count, which is
    then non-negative too.  On blocks of dimension at most
    MATRIX_ROUTE_CUT the per-q counts must equal the kernel dimensions of
    the matrix route, the ``_level_multiplicities`` of each level of
    ``block_levels``; their sum, the weight count, then equals the matrix
    route's total.
    """
    if k % 3 != 2:
        raise ValueError("singular subspaces need k = -1 (mod 3)")
    weight_dims: list[dict] = [{} for _ in range(h_max + 1)]
    for (w, h), n in weight_dim_table(k, h_max).items():
        weight_dims[h][w] = n
    level_dims: list[dict] = [{} for _ in range(h_max + 1)]
    for (q, w, h), n in block_dim_table(k, h_max).items():
        level_dims[h][q, w] = n
    out: dict[tuple[int, int, int], int] = {}
    for h, (dims, by_level) in enumerate(zip(weight_dims, level_dims)):
        qs = sorted({q for q, _ in by_level})
        matrix = None
        if sum(dims.values()) <= MATRIX_ROUTE_CUT:
            matrix = {q: _level_multiplicities(k, level)
                      for q, level in block_levels(k, h).items()}
        for w in range(max(dims, default=-1) + 1):
            by_q: dict[int, int] = {}
            for q in qs:
                v = by_level.get((q, w), 0) - by_level.get((q, w + 1), 0)
                if v < 0:
                    raise ClaimFalsified(
                        f"weight dimensions not unimodal at k={k}, h={h}, q={q}, w={w}")
                if v:
                    by_q[q] = v
            if matrix is not None and by_q != {
                    q: n for q, m in matrix.items() if (n := m.mult(2 * w))}:
                raise ClaimFalsified(
                    f"singular dimensions by q mismatch at k={k}, h={h}, w={w}")
            if sum(by_q.values()) != dims.get(w, 0) - dims.get(w + 1, 0):
                raise ClaimFalsified(
                    f"singular dimensions by q do not sum to the weight count at "
                    f"k={k}, h={h}, w={w}")
            out.update(((q, w, h), v) for q, v in by_q.items())
    return out


# ---------------------------------------------------------------------------
# tensor powers of the defining module and the associated constant terms

def tensor_power_Q(r: int) -> RepRingElement:
    """r-th Clebsch-Gordan power of the simple module of dominant weight 1.

    Computed both by repeated multiplication and by the Riordan-array
    recurrence on its coefficient polynomial; the two must agree.
    """
    if r < 0:
        raise ValueError("tensor power needs r >= 0")
    z = RepRingElement.simple(2)
    by_product = RepRingElement.one()
    for _ in range(r):
        by_product = by_product * z
    poly = _q_polynomial(r)
    by_recurrence = RepRingElement({2 * w: c for w, c in enumerate(poly) if c})
    if by_product != by_recurrence:
        raise AssertionError(f"tensor power routes disagree at r={r}")
    return by_product


def _q_polynomial(r: int) -> list[int]:
    """Coefficients of Q_r: Q_0 = 1, Q_r = ((z^2+z+1) Q_{r-1} - (z+1) Q_{r-1}(0)) / z."""
    poly = [1]
    for _ in range(r):
        c0 = poly[0]
        num = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            num[i] += c
            num[i + 1] += c
            num[i + 2] += c
        num[0] -= c0
        num[1] -= c0
        if num[0] != 0:
            raise AssertionError("Riordan recurrence division is not exact")
        poly = num[1:]
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
    return poly


def motzkin_sums(count: int) -> list[int]:
    """The first ``count`` Motzkin sums 1, 0, 1, 1, 3, 6, 15, 36, ...

    Independent of the representation-ring code: uses the classical
    three-term recurrence a_n = (n - 1) (2 a_{n-1} + 3 a_{n-2}) / (n + 1).
    """
    out = []
    for n in range(count):
        if n == 0:
            out.append(1)
        elif n == 1:
            out.append(0)
        else:
            num = (n - 1) * (2 * out[n - 1] + 3 * out[n - 2])
            if num % (n + 1):
                raise AssertionError("Motzkin recurrence is not integral")
            out.append(num // (n + 1))
    return out
