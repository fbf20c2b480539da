"""Truncated formal power series in x over pluggable coefficient rings.

A series holds its coefficients in a dense list up to an exclusive
truncation order; multiplication is exact below that order.  Coefficients
may live in any commutative ring whose elements support +, -, * and mix
with Python ints; the ring object itself only supplies zero, one and int
coercion.  Instances are treated as immutable values.
"""

from __future__ import annotations

from .sl2 import HalfLaurent, RepRingElement

DEFAULT_ORDER = 40


class IntegerRing:
    name = "Z"

    @staticmethod
    def zero():
        return 0

    @staticmethod
    def one():
        return 1

    @staticmethod
    def coerce(v):
        if isinstance(v, int):
            return v
        raise TypeError(f"not an integer coefficient: {v!r}")


class LaurentRing:
    """Laurent polynomials in u^(1/2) (HalfLaurent coefficients)."""

    name = "Z[u^(1/2), u^(-1/2)]"

    @staticmethod
    def zero():
        return HalfLaurent.zero()

    @staticmethod
    def one():
        return HalfLaurent.one()

    @staticmethod
    def coerce(v):
        if isinstance(v, int):
            return HalfLaurent({0: v})
        if isinstance(v, HalfLaurent):
            return v
        raise TypeError(f"not a Laurent coefficient: {v!r}")


class RepRing:
    """The sl2 representation ring (Clebsch-Gordan multiplication)."""

    name = "R(sl2)"

    @staticmethod
    def zero():
        return RepRingElement.zero()

    @staticmethod
    def one():
        return RepRingElement.one()

    @staticmethod
    def coerce(v):
        if isinstance(v, int):
            return RepRingElement({0: v})
        if isinstance(v, RepRingElement):
            return v
        raise TypeError(f"not a representation-ring coefficient: {v!r}")


class EisensteinInt:
    """Element a + b*u of Z[u] / (u^2 + u + 1)."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = a
        self.b = b

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, int):
            other = EisensteinInt(other)
        return (isinstance(other, EisensteinInt)
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        # a constant equals its int, so it must hash like it
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __add__(self, other):
        if isinstance(other, int):
            other = EisensteinInt(other)
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, int):
            other = EisensteinInt(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return EisensteinInt(self.a * other, self.b * other)
        # (a1 + b1 u)(a2 + b2 u) with u^2 = -1 - u
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return EisensteinInt(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __repr__(self):
        return f"EisensteinInt({self.a}, {self.b})"

    @staticmethod
    def u_to(exp: int) -> "EisensteinInt":
        """u^exp for any integer exponent (u^3 = 1)."""
        r = exp % 3
        if r == 0:
            return EisensteinInt(1)
        if r == 1:
            return EisensteinInt(0, 1)
        return EisensteinInt(-1, -1)  # u^2 = -1 - u


class EisensteinRing:
    name = "Z[u]/(u^2+u+1)"

    @staticmethod
    def zero():
        return EisensteinInt(0)

    @staticmethod
    def one():
        return EisensteinInt(1)

    @staticmethod
    def coerce(v):
        if isinstance(v, int):
            return EisensteinInt(v)
        if isinstance(v, EisensteinInt):
            return v
        raise TypeError(f"not an Eisenstein coefficient: {v!r}")


# ---------------------------------------------------------------------------

class Series:
    """Power series in x truncated at an exclusive order."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order: int, coeffs=None):
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        self.ring = ring
        self.order = order
        if coeffs is None:
            self.coeffs = [ring.zero()] * order
        else:
            coeffs = [ring.coerce(c) for c in coeffs]
            if len(coeffs) < order:
                coeffs += [ring.zero()] * (order - len(coeffs))
            self.coeffs = coeffs[:order]

    @classmethod
    def constant(cls, ring, order: int, value=1) -> "Series":
        s = cls(ring, order)
        s.coeffs[0] = ring.coerce(value)
        return s

    @classmethod
    def one(cls, ring, order: int) -> "Series":
        return cls.constant(ring, order, 1)

    @classmethod
    def from_terms(cls, ring, order: int, terms) -> "Series":
        """Series from sparse (exponent, coefficient) pairs; high terms drop."""
        s = cls(ring, order)
        for e, c in terms:
            if 0 <= e < order:
                s.coeffs[e] = s.coeffs[e] + ring.coerce(c)
        return s

    def coeff(self, n: int):
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} beyond truncation {self.order}")
        return self.coeffs[n]

    def is_one(self) -> bool:
        one = self.ring.one()
        return self.coeffs[0] == one and all(not c for c in self.coeffs[1:])

    def __eq__(self, other):
        return (isinstance(other, Series) and self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def first_mismatch(self, other: "Series"):
        """Smallest exponent where the two series differ, or None."""
        n = min(self.order, other.order)
        for e in range(n):
            if self.coeffs[e] != other.coeffs[e]:
                return e, self.coeffs[e], other.coeffs[e]
        return None

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(self.ring, n,
                      [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(self.ring, n,
                      [a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n])])

    def __neg__(self) -> "Series":
        return Series(self.ring, self.order, [-c for c in self.coeffs])

    def scale(self, factor) -> "Series":
        f = self.ring.coerce(factor)
        return Series(self.ring, self.order, [c * f for c in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        out = [self.ring.zero()] * n
        for i, a in enumerate(self.coeffs[:n]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[:n - i]):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Series(self.ring, n, out)

    def mul_terms(self, terms) -> "Series":
        """Multiply by a sparse polynomial given as (exponent, coeff) pairs."""
        out = [self.ring.zero()] * self.order
        for e, c in terms:
            if e >= self.order:
                continue
            c = self.ring.coerce(c)
            if not c:
                continue
            for i, a in enumerate(self.coeffs[:self.order - e]):
                if a:
                    out[i + e] = out[i + e] + a * c
        return Series(self.ring, self.order, out)

    def shift_up(self, s: int) -> "Series":
        """Multiply by x^s."""
        if s < 0:
            raise ValueError("only upward shifts are defined")
        return Series(self.ring, self.order,
                      [self.ring.zero()] * min(s, self.order) + self.coeffs[:self.order - s])

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires constant term equal to one."""
        if self.coeffs[0] != self.ring.one():
            raise ValueError("inverse needs constant term 1")
        inv = [self.ring.zero()] * self.order
        inv[0] = self.ring.one()
        for n in range(1, self.order):
            acc = self.ring.zero()
            for i in range(1, n + 1):
                if self.coeffs[i] and inv[n - i]:
                    acc = acc + self.coeffs[i] * inv[n - i]
            inv[n] = -acc
        return Series(self.ring, self.order, inv)

    def substitute_neg_x(self) -> "Series":
        """x -> -x."""
        return Series(self.ring, self.order,
                      [c if e % 2 == 0 else -c for e, c in enumerate(self.coeffs)])

    def __repr__(self):
        terms = [f"({c!r})x^{e}" for e, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms[:6]) + (" + ..." if len(terms) > 6 else "")
        return f"Series[{self.ring.name}; O(x^{self.order})]({body or '0'})"


# ---------------------------------------------------------------------------
# products and theta series

def product_over(ring, order: int, factor_terms, start: int = 1) -> "Series":
    """Product of the factors ``factor_terms(a)`` for a = start, start+1, ...

    Each factor is a sparse term list whose constant coefficient must be one.
    The iteration stops at the first factor that is trivial below the
    truncation order, so the x-degrees of the factors must eventually grow;
    a family that never trivializes is rejected.
    """
    out = Series.one(ring, order)
    a = start
    guard = 3 * order + 1000
    while True:
        terms = [(e, c) for e, c in factor_terms(a) if e < order]
        const = [c for e, c in terms if e == 0]
        if len(const) != 1 or ring.coerce(const[0]) != ring.one():
            raise ValueError(f"factor at a={a} has constant term != 1")
        if not any(e > 0 and c for e, c in terms):
            break
        out = out.mul_terms(terms)
        a += 1
        if a - start > guard:
            raise ValueError("factor family never trivializes below the order")
    return out


def theta(order: int, mode: str = "u") -> "Series":
    """The Jacobi theta series 1 + 2 sum u^r x^(r^2) and close relatives.

    mode "u":         generic, Laurent coefficients;
    mode "symmetric": sum over all integers w of u^w x^(w^2), Laurent
                      coefficients (coincides with mode "u" at u = 1);
    mode "u=1":       integer coefficients, theta(x, 1);
    mode "-x":        integer coefficients, theta(-x, 1).
    """
    if mode == "u":
        s = Series.one(LaurentRing, order)
        r = 1
        while r * r < order:
            s.coeffs[r * r] = HalfLaurent({2 * r: 2})
            r += 1
        return s
    if mode == "symmetric":
        s = Series.one(LaurentRing, order)
        r = 1
        while r * r < order:
            s.coeffs[r * r] = HalfLaurent({2 * r: 1, -2 * r: 1})
            r += 1
        return s
    if mode in ("u=1", "-x"):
        s = Series.one(IntegerRing, order)
        r = 1
        while r * r < order:
            s.coeffs[r * r] = 2 * (-1) ** r if mode == "-x" else 2
            r += 1
        return s
    raise ValueError(f"unknown theta mode {mode!r}")


def inverse_theta_neg(order: int) -> "Series":
    """theta(-x, 1)^(-1); its coefficients count overpartitions."""
    return theta(order, "-x").inverse()
