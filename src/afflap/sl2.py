"""Finite-dimensional sl2 machinery: representation ring, characters,
Clebsch-Gordan singular vectors, and the sl2 action on chain blocks.
``sl2_levels`` is the one source of the checked e_{+-1} matrices: the
Laplacian certificate takes the level Casimir from it, and the singular
route the E_1 slices that ``sl2_slices`` cuts from it.

Dominant weights are stored doubled (2w is a non-negative integer), so all
bookkeeping stays integral even for half-integer weights.  The same doubling
convention applies to the exponents of ``HalfLaurent``, the Laurent
polynomials in u^(1/2) that carry Weyl characters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .chains import (
    BlockBasis,
    Level,
    adjoint_coo,
    block_dim_table,
    enumerate_block,
    levels,
    slices,
)
from .linalg import Coo, add_scaled, bareiss_rank, coo_diag, coo_sum, gram


class ClaimFalsified(AssertionError):
    """An exactly computed quantity contradicts a predicted law."""


class _SparseRingElement:
    """Ring element stored as a sparse map key -> nonzero int, key 0 being
    the unit.  Holds the additive structure, equality and hashing; each
    ring supplies its own ``__mul__``.  Integers coerce to constants, and
    mixing two different rings raises ``TypeError``."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: v for e, v in (terms or {}).items() if v}

    @classmethod
    def _of(cls, terms: dict):
        """Wrap ``terms`` as is: arithmetic results are already zero-free
        and valid, so they skip the checks of ``__init__``."""
        elem = object.__new__(cls)
        elem.terms = terms
        return elem

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def _coerce(self, other):
        """Ints become constants; an element of another ring raises."""
        if isinstance(other, int):
            return type(self)({0: other})
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        return other

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = type(self)({0: other})
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it must hash like it
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        add_scaled(out, self._coerce(other).terms)
        return self._of(out)

    __radd__ = __add__

    def __neg__(self):
        return self._of({e: -v for e, v in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented


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
        self.terms = {d: c for d, c in mults.items() if c} if mults else {}

    @classmethod
    def simple(cls, two_w: int) -> "RepRingElement":
        """Class of the simple module with doubled dominant weight ``two_w``."""
        return cls({two_w: 1})

    def __mul__(self, other):
        if isinstance(other, int):
            return RepRingElement({d: c * other for d, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[int, int] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                c = c1 * c2
                for d in range(abs(d1 - d2), d1 + d2 + 1, 2):
                    s = out.get(d, 0) + c
                    if s:
                        out[d] = s
                    else:
                        del out[d]
        return RepRingElement._of(out)

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
        out: dict[int, int] = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + v1 * v2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return HalfLaurent._of(out)

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


def weyl_inverse(p: HalfLaurent) -> RepRingElement:
    """Inverse of weyl_map by triangular stripping from the top exponent.

    Raises when the input is not an integer combination of brackets.
    """
    rem = HalfLaurent(p.terms)
    mults: dict[int, int] = {}
    while rem:
        top = max(rem.terms)
        if top < 0:
            raise ValueError("not in the bracket span (negative support left)")
        c = rem.terms[top]
        mults[top] = mults.get(top, 0) + c
        rem = rem - HalfLaurent.bracket(top + 1) * c
    return RepRingElement(mults)


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
    out: dict = {}
    for (p1, p2), c in vec.items():
        for mod, slot in ((m1, 0), (m2, 1)):
            im = mod.act(g, p1 if slot == 0 else p2)
            if im is None:
                continue
            coeff, np_ = im
            key = (np_, p2) if slot == 0 else (p1, np_)
            s = out.get(key, 0) + c * coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


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

def _check_lands(matrix: Coo, level: Level, g: int, where: str) -> None:
    """Check 2, one half: every image of e_g from weight w has weight
    w + g.  A failure names the slice of the first failing column's pair of
    weights {w, w + g} where the e_1 matrix starts: the lower one."""
    weights = level.weights
    bad = np.flatnonzero(weights[matrix.rows] != weights[matrix.cols] + g)
    if bad.size:
        i = bad[np.argmin(matrix.cols[bad])]
        row, col = matrix.rows[i], matrix.cols[i]
        w = int(weights[col])
        raise ClaimFalsified(
            f"e_{g} leaves weight {w + g} on {where}, w={min(w, w + g)}: image term "
            f"{tuple(level.monos[row].tolist())} of {tuple(level.monos[col].tolist())} "
            f"is outside the target block (k={level.k}, h={level.h}, w={w + g})")


def sl2_levels(k: int, parts: dict):
    """Yield ``(level, E, C)`` for the ``levels`` of ``parts``, the
    ``slices`` map of a union of whole (q, w) slices, in increasing q.

    E is the matrix of e_1 on the level, built by its image rule, and
    C = E^T E + w^2 I + E E^T the Casimir; both keep q, E raises w by one
    and C keeps it.  Each level first passes checks 2 and 3 of the
    ``laplacian`` docstring: E lands in weight w + 1 and the matrix of
    e_{-1}, built on its own by its image rule, equals E^T; and
    E E^T - E^T E = w I, which is [e_1, e_{-1}] = e_0.  So the union is an
    sl2-module, and C acts by w'(w'+1) on its isotypic piece of dominant
    weight w'.  A failure raises ClaimFalsified naming k, h, q and the w of
    the first failing column of the e_1 matrix.
    """
    for level in levels(parts).values():
        yield (level, *_raising_and_casimir(k, level))


def _raising_and_casimir(k: int, level: Level) -> tuple[Coo, Coo]:
    """(E, C) on one level, after checks 2 and 3; its temporaries are
    freed before ``sl2_levels`` yields the level."""
    n, weights = len(level), level.weights
    where = f"k={k}, h={level.h}, q={level.q}"
    up = adjoint_coo(1, k, level)
    _check_lands(up, level, 1, where)
    down = adjoint_coo(-1, k, level)
    _check_lands(down, level, -1, where)
    diff = coo_sum((n, n), up, down.T.scaled(-1))
    if diff.vals.size:
        raise ClaimFalsified(
            f"e_-1 is not the transpose of e_1 on {where}, w={weights[diff.cols[0]]}")
    lower_raise = gram([up], where)     # e_-1 e_1 = E^T E
    raise_lower = gram([up.T], where)   # e_1 e_-1 = E E^T
    diff = coo_sum((n, n), raise_lower, lower_raise.scaled(-1), coo_diag(-weights))
    if diff.vals.size:
        raise ClaimFalsified(f"[e_1, e_-1] != w I on {where}, w={weights[diff.cols[0]]}")
    return up, coo_sum((n, n), lower_raise, coo_diag(weights * weights), raise_lower)


def sl2_slices(k: int, parts: dict):
    """Yield ``(q, w, basis, E_w, C)`` for the slices of ``parts`` in sorted
    order, cut from ``sl2_levels``: E_w is the matrix of e_1 from the (q, w)
    slice to the (q, w+1) slice and C = E_w^T E_w + w^2 I + E_{w-1} E_{w-1}^T
    the Casimir on the slice.
    """
    for level, up, casimir in sl2_levels(k, parts):
        for basis in level.slices:
            span = level.span(basis.w)
            yield (level.q, basis.w, basis, up.block(*level.span(basis.w + 1), *span),
                   casimir.block(*span, *span))


def singular_multiplicities(k: int, basis: BlockBasis) -> RepRingElement:
    """Isotypic multiplicities of ``basis``, a union of whole (q, w) slices
    closed under the sl2 action, summed over q.  On each (q, w >= 0) slice of
    ``sl2_slices`` two counts must agree: dim ker E_w, by exact elimination,
    and dim(q, w) - dim(q, w+1).  The multiplicities must fill the basis.
    """
    if k % 3 != 2:
        raise ValueError("chain blocks are sl2-modules for k = -1 (mod 3)")
    mults: dict[int, int] = {}
    for q, w, part, up, _ in sl2_slices(k, slices(basis)):
        if w < 0:
            continue
        kernel = part.dim - bareiss_rank(up.dense().tolist())
        diff = part.dim - up.shape[0]  # dim(q, w + 1)
        if kernel != diff:
            raise ClaimFalsified(
                f"multiplicity methods disagree on k={k}, h={basis.h}, q={q}, "
                f"w={w}: kernel {kernel}, difference {diff}")
        mults[2 * w] = mults.get(2 * w, 0) + kernel
    result = RepRingElement(mults)
    if result.dimension() != basis.dim:
        raise ClaimFalsified(
            f"multiplicities account for {result.dimension()} of {basis.dim} "
            f"dimensions on k={k}, h={basis.h}")
    return result


# The blocks we are willing to decompose with dense matrix arithmetic.
MATRIX_ROUTE_CUT = 220


@lru_cache(maxsize=None)
def _matrix_singular_mults(k: int, h: int) -> dict[int, RepRingElement]:
    """``singular_multiplicities`` of each chain dimension q of the block."""
    block = enumerate_block(k, h)
    return {q: singular_multiplicities(k, block.restrict(q=q))
            for q in sorted({len(m) for m in block})}


def singular_block_dims(k: int, w: int, h: int) -> int:
    """dim of the weight-w singular subspace of the degree-h block of L(k).

    Counted by weight-space dimension differences, which must be
    non-negative; on small blocks the matrix route must agree.
    """
    if k % 3 != 2:
        raise ValueError("singular subspaces need k = -1 (mod 3)")
    if w < 0:
        raise ValueError("dominant weights are non-negative")
    dims = _weight_dims_at(k, h)
    value = dims.get(w, 0) - dims.get(w + 1, 0)
    if value < 0:
        raise ClaimFalsified(
            f"weight dimensions not unimodal at k={k}, h={h}, w={w}")
    if sum(dims.values()) <= MATRIX_ROUTE_CUT:
        by_q = _matrix_singular_mults(k, h).values()
        if sum(m.mult(2 * w) for m in by_q) != value:
            raise ClaimFalsified(
                f"singular dimension mismatch at k={k}, h={h}, w={w}")
    return value


def singular_block_dims_by_q(k: int, w: int, h: int) -> dict[int, int]:
    """Per chain-dimension refinement of singular_block_dims, counted from
    ``block_dim_table``; on small blocks it must equal the per-q kernel
    dimensions of the matrix route, and on every block it must sum to the
    weight count dim(w) - dim(w+1)."""
    if k % 3 != 2:
        raise ValueError("singular subspaces need k = -1 (mod 3)")
    if w < 0:
        raise ValueError("dominant weights are non-negative")
    counts: dict[int, int] = {}
    for (q, ww, hh), n in block_dim_table(k, h).items():
        if hh != h or ww not in (w, w + 1):
            continue
        counts[q] = counts.get(q, 0) + (n if ww == w else -n)
    out: dict[int, int] = {}
    for q, v in sorted(counts.items()):
        if v < 0:
            raise ClaimFalsified(
                f"weight dimensions not unimodal at k={k}, h={h}, q={q}, w={w}")
        if v:
            out[q] = v
    if sum(_weight_dims_at(k, h).values()) <= MATRIX_ROUTE_CUT:
        by_q = _matrix_singular_mults(k, h).items()
        if {q: n for q, m in by_q if (n := m.mult(2 * w))} != out:
            raise ClaimFalsified(
                f"singular dimensions by q mismatch at k={k}, h={h}, w={w}")
    dims = _weight_dims_at(k, h)
    if sum(out.values()) != dims.get(w, 0) - dims.get(w + 1, 0):
        raise ClaimFalsified(
            f"singular dimensions by q do not sum to the weight count at "
            f"k={k}, h={h}, w={w}")
    return out


@lru_cache(maxsize=None)
def _weight_dims_at(k: int, h: int) -> dict[int, int]:
    from .chains import weight_dim_table

    out: dict[int, int] = {}
    for (w, hh), n in weight_dim_table(k, h).items():
        if hh == h:
            out[w] = out.get(w, 0) + n
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
