"""Truncated formal power series in x.

A series holds its coefficients in a dense list up to an exclusive
truncation order; multiplication is exact below that order.  Coefficients
are Python ints or elements of one commutative coefficient ring
(``HalfLaurent``, ``RepRingElement``, ``EisensteinInt``).  An int acts as
the matching constant of every ring, so a series needs no ring object: it
pads with the int 0, and ``Series.one`` holds the int 1.  Instances are
treated as immutable values.
"""

from __future__ import annotations

from .sl2 import HalfLaurent, _SparseRingElement

DEFAULT_ORDER = 40


class EisensteinInt(_SparseRingElement):
    """Element a + b*u of Z[u] / (u^2 + u + 1), stored as the terms
    {0: a, 1: b}."""

    __slots__ = ()

    def __init__(self, a: int, b: int = 0):
        super().__init__({0: a, 1: b})

    def __mul__(self, other):
        # (a1 + b1 u)(a2 + b2 u) with u^2 = -1 - u
        x, y = self.terms, self._coerce(other).terms
        a1, b1, a2, b2 = x.get(0, 0), x.get(1, 0), y.get(0, 0), y.get(1, 0)
        return EisensteinInt(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    def __repr__(self):
        return f"EisensteinInt({self.terms.get(0, 0)}, {self.terms.get(1, 0)})"

    @staticmethod
    def u_to(exp: int) -> "EisensteinInt":
        """u^exp for any integer exponent (u^3 = 1)."""
        r = exp % 3
        if r == 0:
            return EisensteinInt(1)
        if r == 1:
            return EisensteinInt(0, 1)
        return EisensteinInt(-1, -1)  # u^2 = -1 - u


# ---------------------------------------------------------------------------

class Series:
    """Power series in x truncated at an exclusive order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        self.order = order
        coeffs = list(coeffs[:order])
        self.coeffs = coeffs + [0] * (order - len(coeffs))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls(order, [1])

    @classmethod
    def from_terms(cls, order: int, terms) -> "Series":
        """Series from sparse (exponent, coefficient) pairs; high terms drop."""
        s = cls(order)
        for e, c in terms:
            if 0 <= e < order:
                s.coeffs[e] = s.coeffs[e] + c
        return s

    def __eq__(self, other):
        return (isinstance(other, Series) and self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, factor) -> "Series":
        return Series(self.order, [c * factor for c in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[:n - i]):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Series(n, out)

    def mul_terms(self, terms) -> "Series":
        """Multiply by a sparse polynomial given as (exponent, coeff) pairs."""
        out = [0] * self.order
        for e, c in terms:
            if e >= self.order or not c:
                continue
            for i, a in enumerate(self.coeffs[:self.order - e]):
                if a:
                    out[i + e] = out[i + e] + a * c
        return Series(self.order, out)

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires constant term equal to one."""
        if self.coeffs[0] != 1:
            raise ValueError("inverse needs constant term 1")
        inv = [0] * self.order
        inv[0] = 1
        for n in range(1, self.order):
            acc = 0
            for i in range(1, n + 1):
                if self.coeffs[i] and inv[n - i]:
                    acc = acc + self.coeffs[i] * inv[n - i]
            inv[n] = -acc
        return Series(self.order, inv)

    def __repr__(self):
        terms = [f"({c!r})x^{e}" for e, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms[:6]) + (" + ..." if len(terms) > 6 else "")
        return f"Series[O(x^{self.order})]({body or '0'})"


# ---------------------------------------------------------------------------
# products and theta series

def product_over(order: int, factor_terms, start: int = 1) -> "Series":
    """Product of the factors ``factor_terms(a)`` for a = start, start+1, ...

    Each factor is a sparse term list whose constant coefficient must be one.
    The iteration stops at the first factor that is trivial below the
    truncation order, so the x-degrees of the factors must eventually grow;
    a family that never trivializes is rejected.
    """
    out = Series.one(order)
    a = start
    guard = 3 * order + 1000
    while True:
        terms = [(e, c) for e, c in factor_terms(a) if e < order]
        const = [c for e, c in terms if e == 0]
        if len(const) != 1 or const[0] != 1:
            raise ValueError(f"factor at a={a} has constant term != 1")
        if not any(e > 0 and c for e, c in terms):
            break
        out = out.mul_terms(terms)
        a += 1
        if a - start > guard:
            raise ValueError("factor family never trivializes below the order")
    return out


def theta(order: int, mode: str) -> "Series":
    """The Jacobi theta series and its specializations.

    mode "symmetric": sum over all integers w of u^w x^(w^2), Laurent
                      coefficients;
    mode "u=1":       integer coefficients, theta(x, 1) = 1 + 2 sum x^(r^2);
    mode "-x":        integer coefficients, theta(-x, 1).
    """
    if mode not in ("symmetric", "u=1", "-x"):
        raise ValueError(f"unknown theta mode {mode!r}")
    s = Series.one(order)
    r = 1
    while r * r < order:
        if mode == "symmetric":
            s.coeffs[r * r] = HalfLaurent({2 * r: 1, -2 * r: 1})
        else:
            s.coeffs[r * r] = 2 * (-1) ** r if mode == "-x" else 2
        r += 1
    return s


def inverse_theta_neg(order: int) -> "Series":
    """theta(-x, 1)^(-1); its coefficients count overpartitions."""
    return theta(order, "-x").inverse()
