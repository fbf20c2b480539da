"""Truncated formal power series in x.

A series holds its coefficients in a dense list up to an exclusive
truncation order; multiplication is exact below that order.  Coefficients
are Python ints or elements of one commutative coefficient ring of
``sl2`` (Laurent polynomials in u^(1/2), or classes of the representation
ring).  An int acts as the matching constant of every ring, so a series
needs no ring object: it pads with the int 0, and ``Series.one`` holds the
int 1.  Instances are treated as immutable values.

``product_over``, which every product side of the identities goes through,
takes int and ``HalfLaurent`` coefficients only (a caller in another ring
maps its classes to Laurent polynomials first and reads them back after).
It does not multiply ring elements: it keeps the whole product as one int64
grid of shape (primes, order, u-exponents), residues modulo 31-bit primes,
one shifted add per factor term.  The number of primes comes from a
majorant that bounds every coefficient, so the CRT lift at the end is
exact; the docstring of ``product_over`` gives the argument.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .sl2 import HalfLaurent

DEFAULT_ORDER = 40

# 31-bit primes, largest first: a residue times a residue fits in int64
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
           2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
           2147483353, 2147483323, 2147483269, 2147483249)


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

def product_over(order: int, factor_terms) -> "Series":
    """Product of the factors ``factor_terms(a)`` for a = 1, 2, ...

    Each factor is a sparse term list whose constant coefficient must be one
    and whose coefficients are ints or ``HalfLaurent``s; any other ring
    raises TypeError.  The iteration stops at the first factor that is
    trivial below the truncation order, so the x-degrees of the factors must
    eventually grow; a family that never trivializes is rejected, and so is
    a negative exponent.  A coefficient is a ``HalfLaurent`` exactly when a
    nonzero coefficient met a nonzero term and one of the two was one, as
    in the ring arithmetic of ``Series``; the others are ints.

    The product runs on a residue grid (see the module docstring) and is
    exact:

    * A coefficient is a map from doubled u-exponent to int (an int c is
      {0: c}), and the grid multiplies these maps as Laurent polynomials,
      so it computes the ``HalfLaurent`` product itself.
    * Let B be the largest coefficient of the majorant
      prod (1 + sum_j |c_j|_1 x^(e_j)) below the order, |c|_1 the sum of
      the absolute values of the coefficient c.  The 1-norm is
      submultiplicative, so by the triangle inequality every x^n row of
      every partial product has 1-norm at most the majorant's x^n
      coefficient (a partial majorant is coefficientwise below the full one,
      every factor having constant term 1).  Every entry, and every sum of
      a row's entries, therefore lies in [-B, B].
    * The residues are kept modulo the fewest primes of ``_PRIMES`` whose
      product M exceeds 2B.  An integer of [-B, B] is the symmetric residue
      of its class mod M, so Garner's mixed-radix CRT returns every entry
      exactly, and such an integer is zero iff all its residues are.
    * The grid spans the doubled u-exponents that a max-plus pass over the
      factor supports reaches below the order, so no nonzero entry falls
      outside it.
    """
    factors = []
    a = 1
    guard = 3 * order + 1000
    while True:
        terms = [(e, c) for e, c in factor_terms(a) if e < order]
        const = [c for e, c in terms if e == 0]
        if len(const) != 1 or const[0] != 1:
            raise ValueError(f"factor at a={a} has constant term != 1")
        if any(e < 0 for e, _ in terms):
            raise ValueError(f"factor at a={a} has a negative exponent")
        if not any(e > 0 and c for e, c in terms):
            break
        factors.append([(e, *_embed(c)) for e, c in terms if c])
        a += 1
        if len(factors) > guard:
            raise ValueError("factor family never trivializes below the order")
    laurent = any(flag for factor in factors for _, flag, _ in factor)

    bound = _majorant(order, factors)
    count = next((i for i in range(1, len(_PRIMES) + 1)
                  if math.prod(_PRIMES[:i]) > 2 * bound), None)
    if count is None:
        raise OverflowError(f"product coefficients up to {bound} at order {order} "
                            f"exceed the range of {len(_PRIMES)} primes")
    primes = np.array(_PRIMES[:count], dtype=np.int64).reshape(-1, 1, 1)
    low, high = _extents(order, factors)
    width = high - low + 1
    grid = np.zeros((count, order, width), dtype=np.int64)
    grid[:, 0, -low] = 1
    # is_laurent[n]: coefficient n is a HalfLaurent, not an int
    is_laurent = np.zeros(order, dtype=bool)
    for factor in factors:
        if laurent:
            live = grid.any(axis=(0, 2))
            was, is_laurent = is_laurent, np.zeros(order, dtype=bool)
            for e, c_laurent, _ in factor:
                is_laurent[e:] |= live[:order - e] & (was[:order - e] | c_laurent)
        _multiply(grid, primes, [(e, image) for e, _, image in factor if e > 0])
    # an entry is zero exactly when all its residues are, so only the
    # others are lifted
    xs, ts = np.nonzero(grid.any(axis=0))
    rows: list[dict] = [{} for _ in range(order)]
    for n, t, v in zip(xs.tolist(), ts.tolist(), _crt(grid[:, xs, ts], _PRIMES[:count])):
        rows[n][t + low] = v
    coeffs = []
    for n, row in enumerate(rows):
        if is_laurent[n]:
            coeffs.append(HalfLaurent(row))
        elif row.keys() - {0}:
            raise ValueError(f"integer coefficient of x^{n} came out as {HalfLaurent(row)!r}")
        else:
            coeffs.append(row.get(0, 0))
    return Series(order, coeffs)


def _embed(c):
    """Whether coefficient ``c`` is a ``HalfLaurent`` (not an int), and its
    terms as a map doubled u-exponent -> int; ``operator.index`` refuses
    every other type with TypeError."""
    if isinstance(c, HalfLaurent):
        return True, c.terms
    return False, {0: operator.index(c)}


def _majorant(order: int, factors) -> int:
    """max over n < order of [x^n] prod (1 + sum_j |c_j|_1 x^(e_j)), in
    exact ints."""
    maj = np.zeros(order, dtype=object)
    maj[0] = 1
    for factor in factors:
        src = maj.copy()
        for e, _, image in factor:
            if e:
                maj[e:] += src[:order - e] * sum(map(abs, image.values()))
    return max(maj)


def _extents(order: int, factors) -> tuple[int, int]:
    """Lowest and highest doubled u-exponent of the product's support below
    the order, by a max-plus (and min-plus) pass over the factor supports."""
    far = 1 << 62  # marks an x-degree that no monomial reaches
    high = np.full(order, -far, dtype=np.int64)
    low = np.full(order, far, dtype=np.int64)
    high[0] = low[0] = 0
    for factor in factors:
        high_src, low_src = high.copy(), low.copy()
        for e, _, image in factor:
            if e:
                np.maximum(high[e:], high_src[:order - e] + max(image), out=high[e:])
                np.minimum(low[e:], low_src[:order - e] + min(image), out=low[e:])
    return int(low.min()), int(high.max())


def _multiply(grid, primes, terms) -> None:
    """Multiply the residue grid in place by 1 + sum of the ``(e, image)``
    terms, one shifted add per (x-exponent, u-exponent) term read from a
    copy of the grid.  Residues are reduced once at the end, unless the
    terms' sum of |v| could carry an entry past 2^63; then the terms are
    taken mod p and the entries reduced after each of them."""
    order, width = grid.shape[1], grid.shape[2]
    first = min(e for e, _ in terms)
    src = grid[:, :order - first].copy()
    total = sum(abs(v) for _, image in terms for v in image.values())
    per_term = (int(primes.max()) - 1) * (1 + total) >= 1 << 63
    for e, image in terms:
        for t, v in image.items():
            if abs(t) >= width:
                continue  # would land outside the support _extents proved
            dst = grid[:, e:, max(t, 0):width + min(t, 0)]
            if per_term:
                v = np.array([v % int(p) for p in primes.flat]).reshape(primes.shape)
            dst += src[:, :order - e, max(-t, 0):width - max(t, 0)] * v
            if per_term:
                np.remainder(dst, primes, out=dst)
    if not per_term:
        touched = grid[:, first:]
        np.remainder(touched, primes, out=touched)


def _crt(residues, primes: tuple) -> list:
    """The integers of absolute value below M/2 with the residues
    ``residues[i]`` modulo ``primes[i]`` (one column per integer), M the
    (odd) product of ``primes``, by Garner's mixed-radix CRT: int64 digits,
    then Horner in Python ints."""
    digits = []
    for i, p in enumerate(primes):
        y = residues[i]
        for q, d in zip(primes[:i], digits):
            y = (y - d) * pow(q, -1, p) % p
        digits.append(y)
    value = digits[-1].astype(object)
    for q, d in zip(primes[-2::-1], digits[-2::-1]):
        value = value * q + d
    modulus = math.prod(primes)
    return np.where(value > modulus // 2, value - modulus, value).tolist()


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
