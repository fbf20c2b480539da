"""Monomial bases and exact operators on the graded chain complexes of L(k).

A monomial is a strictly increasing tuple of generator indices (the empty
tuple is the unit of the degree-zero part).  A chain is a dict mapping
monomials to exact coefficients (int or Fraction); zero coefficients are
never stored.  All operators preserve the (weight, degree) bigrading and are
exact over the rationals.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .generators import epsilon, generator_degree
from .linalg import IntMatrix, add_scaled

Monomial = tuple
Chain = dict


def weight(mono: Monomial) -> int:
    return sum(epsilon(i) for i in mono)


def degree(mono: Monomial) -> int:
    return sum(generator_degree(i) for i in mono)


def normalize_wedge(indices):
    """Canonical form of a wedge word.

    Returns ``(sign, monomial)`` with the indices sorted increasingly, or
    ``None`` when an index repeats (the wedge is zero).  This is an insertion
    sort that flips the sign once per transposition.  The operators below
    place their signs by ``bisect`` instead; this function is kept as the
    independent oracle the tests check those signs against.
    """
    seq = list(indices)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] >= seq[j]:
            if seq[j - 1] == seq[j]:
                return None
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(seq)


def chain_insert(chain: Chain, mono: Monomial, coeff) -> None:
    """Add ``coeff * mono`` to ``chain`` in place, dropping zeros."""
    if not coeff:
        return
    c = chain.get(mono)
    if c is None:
        chain[mono] = coeff
    else:
        c = c + coeff
        if c:
            chain[mono] = c
        else:
            del chain[mono]


def add_chains(*chains: Chain) -> Chain:
    out: Chain = {}
    for c in chains:
        add_scaled(out, c)
    return out


def scale_chain(chain: Chain, factor) -> Chain:
    if not factor:
        return {}
    return {mono: coeff * factor for mono, coeff in chain.items()}


def inner_product(c1: Chain, c2: Chain):
    """Euclidean inner product for which the monomials are orthonormal."""
    if len(c2) < len(c1):
        c1, c2 = c2, c1
    return sum(coeff * c2[mono] for mono, coeff in c1.items() if mono in c2)


def homogeneity(chain: Chain) -> tuple[int, int, int]:
    """The common (q, w, h) of a homogeneous chain; raises on mixed terms."""
    if not chain:
        raise ValueError("zero chain has no bigrading")
    grades = {(len(m), weight(m), degree(m)) for m in chain}
    if len(grades) > 1:
        raise ValueError(f"chain is not homogeneous: {sorted(grades)}")
    return grades.pop()


def _check_support(k: int, chain: Chain) -> None:
    for mono in chain:
        if mono and mono[0] < k:
            raise ValueError(f"monomial {mono} has an index below k={k}")


# ---------------------------------------------------------------------------
# differential and codifferential


def differential(k: int, chain: Chain) -> Chain:
    """Boundary operator of the standard complex: pairs of wedge factors are
    contracted through the bracket.  Lowers q by one, preserves (w, h).

    The pair at 0-based positions s < t of a monomial is replaced by
    eps(i_t - i_s) e_{i_s + i_t} in front of the remaining factors, with the
    alternating sign (-1)^(s+t+1).  The new index is then moved into place:
    ``bisect`` finds its position pos among the remaining (sorted) factors,
    which costs the sign (-1)^pos, and a repeated index gives zero.
    """
    _check_support(k, chain)
    out: Chain = {}
    for mono, coeff in chain.items():
        q = len(mono)
        for s in range(q):
            i_s = mono[s]
            for t in range(s + 1, q):
                e = epsilon(mono[t] - i_s)
                if not e:
                    continue
                ni = i_s + mono[t]
                rest = mono[:s] + mono[s + 1:t] + mono[t + 1:]
                pos = bisect_left(rest, ni)
                if pos < len(rest) and rest[pos] == ni:
                    continue
                c = coeff * e
                chain_insert(out, rest[:pos] + (ni,) + rest[pos:],
                             c if (s + t + pos) % 2 else -c)
    return out


@lru_cache(maxsize=None)
def _splitting_pairs(k: int, i: int) -> tuple:
    """Pairs (a, b, eps(b-a)) with a + b = i, k <= a < b and nonzero sign."""
    out = []
    a = k
    while 2 * a < i:
        e = epsilon(i - 2 * a)
        if e:
            out.append((a, i - a, e))
        a += 1
    return tuple(out)


def codifferential(k: int, chain: Chain) -> Chain:
    """Adjoint of the differential for the monomial inner product.

    Each wedge factor e_i, at 0-based position s, is expanded into the signed
    sum of splittings e_a ^ e_b with a + b = i and k <= a < b.  The pair is
    inserted into the remaining factors at the ``bisect`` positions pa <= pb
    of a and b, with the sign (-1)^(s+pa+pb); a repeated index gives zero.
    Raises q by one, preserves (w, h).
    """
    _check_support(k, chain)
    out: Chain = {}
    for mono, coeff in chain.items():
        for s, i in enumerate(mono):
            rest = mono[:s] + mono[s + 1:]
            for a, b, e in _splitting_pairs(k, i):
                pa = bisect_left(rest, a)
                if pa < len(rest) and rest[pa] == a:
                    continue
                pb = bisect_left(rest, b, pa)
                if pb < len(rest) and rest[pb] == b:
                    continue
                c = coeff * e
                chain_insert(out, rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:],
                             -c if (s + pa + pb) % 2 else c)
    return out


# ---------------------------------------------------------------------------
# degree-zero derivations (adjoint and conjugate generator actions)


def _derivation(chain: Chain, image):
    """Extend a generator map ``image(i) -> (coeff, new_index) | None`` as a
    degree-zero derivation of the exterior algebra."""
    out: Chain = {}
    for mono, coeff in chain.items():
        for s, i in enumerate(mono):
            im = image(i)
            if im is None:
                continue
            c, ni = im
            rest = mono[:s] + mono[s + 1:]
            pos = bisect_left(rest, ni)
            if pos < len(rest) and rest[pos] == ni:
                continue
            sign = 1 if (pos - s) % 2 == 0 else -1
            chain_insert(out, rest[:pos] + (ni,) + rest[pos:], coeff * c * sign)
    return out


def adjoint_action(g: int, chain: Chain, k: int) -> Chain:
    """Adjoint action of e_g for g in {-1, 0, 1}, extended as a derivation.

    Well defined whenever the image stays inside L(k); for k = -1 (mod 3)
    this always holds, which is asserted on the fly.
    """
    if g not in (-1, 0, 1):
        raise ValueError(f"adjoint_action expects g in {{-1, 0, 1}}, got {g}")
    _check_support(k, chain)
    if g == 0:
        return {mono: coeff * w for mono, coeff in chain.items()
                if (w := weight(mono))}

    def image(i, g=g, k=k):
        e = epsilon(i - g)
        if not e:
            return None
        ni = i + g
        if ni < k:
            raise ValueError(
                f"action of e_{g} leaves L({k}): e_{i} -> e_{ni}")
        return e, ni

    return _derivation(chain, image)


def raising_action(r: int, chain: Chain, k: int) -> Chain:
    """Adjoint action of e_r for r >= 1 (always stays inside L(k))."""
    if r < 1:
        raise ValueError("raising_action expects r >= 1")
    _check_support(k, chain)

    def image(i, r=r):
        e = epsilon(i - r)
        return (e, i + r) if e else None

    return _derivation(chain, image)


def conjugate_action(r: int, chain: Chain, k: int) -> Chain:
    """Conjugate of the adjoint e_r action for the monomial inner product.

    Sends e_a to eps(a + r) * e_{a-r}, truncated to zero below index k, and
    extends as a derivation.
    """
    if r < 1:
        raise ValueError("conjugate_action expects r >= 1")
    _check_support(k, chain)

    def image(i, r=r, k=k):
        if i - r < k:
            return None
        e = epsilon(i + r)
        return (e, i - r) if e else None

    return _derivation(chain, image)


# ---------------------------------------------------------------------------
# block bases

class BlockBasis:
    """Ordered monomial basis of a graded piece of the chain complex.

    Monomials are sorted lexicographically on their index tuples, so every
    matrix built on a block is reproducible bit for bit.
    """

    __slots__ = ("k", "h", "w", "monomials", "index")

    def __init__(self, k: int, h: int, monomials, w: int | None = None):
        self.k = k
        self.h = h
        self.w = w
        self.monomials = tuple(monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __repr__(self):
        wpart = "" if self.w is None else f", w={self.w}"
        return f"BlockBasis(k={self.k}, h={self.h}{wpart}, dim={self.dim})"

    def restrict(self, q: int | None = None, w: int | None = None) -> "BlockBasis":
        """Sub-basis with fixed chain dimension and/or weight, order preserved."""
        monos = [m for m in self.monomials
                 if (q is None or len(m) == q) and (w is None or weight(m) == w)]
        return BlockBasis(self.k, self.h, monos, w=w if w is not None else self.w)


def enumerate_block(k: int, h: int, w: int | None = None) -> BlockBasis:
    """All monomials of L(k) with degree h (and weight w when given).

    Positive-degree generators are collected depth first with pruning once
    the degree budget is exhausted; the at most three degree-zero generators
    (indices -1, 0, 1 when >= k) are distributed by subset expansion.
    The empty monomial belongs to the h = 0 block for every k.
    """
    if k < -1:
        raise ValueError(f"blocks are defined for k >= -1, got k={k}")
    if h < 0:
        raise ValueError(f"degree must be non-negative, got h={h}")
    zero_gens = [a for a in (-1, 0, 1) if a >= k]
    positive: list[tuple] = []
    if h == 0:
        positive.append(())
    else:
        cur: list[int] = []

        def descend(a: int, rem: int) -> None:
            while True:
                d = generator_degree(a)
                if d > rem:
                    return
                if d > 0:
                    break
                a += 1
            descend(a + 1, rem)
            cur.append(a)
            if rem == d:
                positive.append(tuple(cur))
            else:
                descend(a + 1, rem - d)
            cur.pop()

        descend(max(k, 2), h)
    monos = []
    for tail in positive:
        for r in range(len(zero_gens) + 1):
            for zs in combinations(zero_gens, r):
                m = zs + tail
                if w is None or weight(m) == w:
                    monos.append(m)
    monos.sort()
    return BlockBasis(k, h, monos, w=w)


def slices(basis: BlockBasis) -> dict:
    """The nonempty (q, w) slices of ``basis``, keyed in sorted order, each a
    basis in the order of ``basis``."""
    groups: dict = {}
    for m in basis.monomials:
        groups.setdefault((len(m), weight(m)), []).append(m)
    return {(q, w): BlockBasis(basis.k, basis.h, monos, w=w)
            for (q, w), monos in sorted(groups.items())}


def _dim_rows(k: int, h_max: int, step, unit) -> list[dict]:
    """Per-degree rows of the product of (1 + t u^weight x^degree) over the
    generators of L(k) with degree <= h_max: ``rows[h]`` maps a key to the
    number of monomials of degree h with that key.  The empty monomial has
    key ``unit``; multiplying by e_a sends a key to ``step(key, epsilon(a))``.

    Each generator runs over the rows from the highest h down, in place, and
    never touches an entry with h + deg a > h_max; a degree-zero generator
    reads a copy of its row.  Counts are Python ints, which do not overflow.
    """
    if k < -1:
        raise ValueError(f"blocks are defined for k >= -1, got k={k}")
    rows: list[dict] = [{} for _ in range(h_max + 1)]
    rows[0][unit] = 1
    a = k
    while (d := generator_degree(a)) <= h_max:
        e = epsilon(a)
        for h in range(h_max - d, -1, -1):
            src, dst = (rows[h], rows[h + d]) if d else (dict(rows[h]), rows[h])
            for key, n in src.items():
                key = step(key, e)
                dst[key] = dst.get(key, 0) + n
        a += 1
    return rows


@lru_cache(maxsize=None)
def block_dim_table(k: int, h_max: int) -> dict:
    """dim C_q^{(w,h)}(L(k)) for all h <= h_max, as a map (q, w, h) -> dim."""
    rows = _dim_rows(k, h_max, lambda qw, e: (qw[0] + 1, qw[1] + e), (0, 0))
    return {(q, w, h): n for h, row in enumerate(rows) for (q, w), n in row.items()}


@lru_cache(maxsize=None)
def weight_dim_table(k: int, h_max: int) -> dict:
    """dim C^{(w,h)}(L(k)) summed over q, as a map (w, h) -> dim."""
    rows = _dim_rows(k, h_max, operator.add, 0)
    return {(w, h): n for h, row in enumerate(rows) for w, n in row.items()}


# ---------------------------------------------------------------------------
# matrices of operators

def matrix_of(op, source: BlockBasis, target: BlockBasis):
    """Exact integer matrix of a chain operator between two block bases.

    Columns follow the source order.  Raises when the image of a basis
    monomial does not lie in the span of the target basis.
    """
    columns = []
    for mono in source.monomials:
        img = op({mono: 1})
        col = {}
        for m2, c in img.items():
            pos = target.index.get(m2)
            if pos is None:
                raise ValueError(
                    f"image term {m2} of {mono} is outside the target block "
                    f"(k={target.k}, h={target.h}, w={target.w})")
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError(f"non-integer matrix entry {c} at {m2}")
                c = c.numerator
            col[pos] = c
        columns.append(col)
    return IntMatrix(target.dim, source.dim, columns)
