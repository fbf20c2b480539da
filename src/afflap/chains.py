"""Monomial bases and exact operators on the graded chain complexes of L(k).

A monomial is a strictly increasing tuple of generator indices (the empty
tuple is the unit of the degree-zero part).  A chain is a dict mapping
monomials to exact coefficients (int or Fraction); zero coefficients are
never stored.  All operators preserve the (weight, degree) bigrading and are
exact over the rationals.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .generators import epsilon, generator_degree
from .linalg import Coo, IntMatrix, coo_from_keys, sparse_sum

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


def add_chains(*chains: Chain) -> Chain:
    return sparse_sum([term for c in chains for term in c.items()])


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
    terms = []
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
                terms.append((rest[:pos] + (ni,) + rest[pos:],
                              c if (s + t + pos) % 2 else -c))
    return sparse_sum(terms)


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
    terms = []
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
                terms.append((rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:],
                              -c if (s + pa + pb) % 2 else c))
    return sparse_sum(terms)


# ---------------------------------------------------------------------------
# degree-zero derivations (adjoint and conjugate generator actions)


def _derivation(chain: Chain, image):
    """Extend a generator map ``image(i) -> (coeff, new_index) | None`` as a
    degree-zero derivation of the exterior algebra."""
    terms = []
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
            terms.append((rest[:pos] + (ni,) + rest[pos:], coeff * c * sign))
    return sparse_sum(terms)


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

    __slots__ = ("k", "h", "w", "monomials", "_index")

    def __init__(self, k: int, h: int, monomials, w: int | None = None):
        self.k = k
        self.h = h
        self.w = w
        self.monomials = tuple(monomials)
        self._index = None

    @property
    def index(self) -> dict:
        """Position of each monomial, built on first access: the spectrum and
        homology walks read only ``monomials``."""
        if self._index is None:
            self._index = {m: i for i, m in enumerate(self.monomials)}
        return self._index

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


def _most_within(degrees, h_max: int) -> int:
    """The largest number of the given generator degrees that sum to at most
    ``h_max``: the smallest ones first."""
    n = total = 0
    for d in sorted(degrees):
        total += d
        if total > h_max:
            break
        n += 1
    return n


def _dim_grid(k: int, h_max: int, by_q: bool) -> tuple[np.ndarray, int]:
    """Monomial counts of L(k) for every degree h <= h_max as a dense grid
    ``g[h, q, w + W]``, and W; without ``by_q`` the q axis has size 1.

    The grid holds the coefficients of the product of (1 + t u^weight
    x^degree) over the generators of degree <= h_max, one shifted add per
    generator.  The source slab is copied first, so a degree-zero generator
    reads its row as it was before the add.  W and the q extent are the most
    same-weight-sign generators, and the most generators, whose degrees fit
    in h_max, so no count leaves the grid.  Every entry, and every partial
    sum on the way to it, is at most the number of all monomials of its
    degree; these totals are computed exactly first, and the grid is int64
    when they fit, Python ints otherwise.
    """
    if k < -1:
        raise ValueError(f"blocks are defined for k >= -1, got k={k}")
    if h_max < 0:
        raise ValueError(f"dimension tables need h_max >= 0, got h_max={h_max}")
    gens = []
    a = k
    while (d := generator_degree(a)) <= h_max:
        gens.append((d, epsilon(a)))
        a += 1
    n = h_max + 1
    totals = np.zeros(n, dtype=object)
    totals[0] = 1
    for d, _ in gens:
        totals[d:] += totals[:n - d].copy()
    big = max(totals) >= 2**63
    width = max(_most_within([d for d, e in gens if e == s], h_max) for s in (1, -1))
    depth = _most_within([d for d, _ in gens], h_max) + 1 if by_q else 1
    g = np.zeros((n, depth, 2 * width + 1), dtype=object if big else np.int64)
    g[0, 0, width] = 1
    q_dst, q_src = (slice(1, None), slice(None, -1)) if by_q else (slice(None),) * 2
    w_cut = {1: (slice(1, None), slice(None, -1)), 0: (slice(None),) * 2,
             -1: (slice(None, -1), slice(1, None))}
    for d, e in gens:
        w_dst, w_src = w_cut[e]
        g[d:, q_dst, w_dst] += g[:n - d, q_src, w_src].copy()
    return g, width


@lru_cache(maxsize=2)
def block_dim_table(k: int, h_max: int) -> dict:
    """dim C_q^{(w,h)}(L(k)) for all h <= h_max, as a map (q, w, h) -> dim.
    A run reads one table per k in {-1, 2}, so two are kept."""
    g, width = _dim_grid(k, h_max, True)
    hs, qs, ws = np.nonzero(g)
    return {(q, w, h): n for h, q, w, n in
            zip(hs.tolist(), qs.tolist(), (ws - width).tolist(), g[hs, qs, ws].tolist())}


def weight_dim_table(k: int, h_max: int) -> dict:
    """dim C^{(w,h)}(L(k)) summed over q, as a map (w, h) -> dim."""
    g, width = _dim_grid(k, h_max, False)
    hs, _, ws = np.nonzero(g)
    return {(w, h): n for h, w, n in
            zip(hs.tolist(), (ws - width).tolist(), g[hs, 0, ws].tolist())}


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


# ---------------------------------------------------------------------------
# whole levels: the operator matrices as int64 coordinate arrays

_EPS = np.array([0, 1, -1], dtype=np.int64)  # epsilon by residue mod 3
KEY_BITS = 16  # a lookup key holds each index minus k in this many bits


class Level:
    """The chain-dimension-q monomials of a union of whole (q, w) slices of
    one degree-h block, as an (N, q) int64 array ``monos``, and the weight
    of each row, ``weights``.

    Rows are sorted stably by weight, so each slice keeps the order of the
    monomials the level is built from, and a matrix that keeps w is block
    diagonal over the slices; ``bounds`` maps each w, increasing, to the row
    range of its slice.  Monomials are looked up by keys of q
    fixed-width big-endian uint16 indices viewed as one ``np.void``, which
    sort and ``searchsorted`` in the lexicographic order of the monomials.
    """

    __slots__ = ("k", "h", "q", "monos", "weights", "bounds", "_keys", "_order")

    def __init__(self, k: int, h: int, q: int, monos=()):
        self.k, self.h, self.q = k, h, q
        monos = np.array(monos, dtype=np.int64).reshape(len(monos), q)
        weights = _EPS[monos % 3].sum(axis=1)
        order = np.argsort(weights, kind="stable")
        self.monos, self.weights = monos[order], weights[order]
        ws, starts = np.unique(self.weights, return_index=True)
        ends = np.append(starts[1:], len(order))
        self.bounds = dict(zip(ws.tolist(), zip(starts.tolist(), ends.tolist())))
        keys = self.pack(self.monos)
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]

    def __len__(self) -> int:
        return len(self.monos)

    def span(self, w: int) -> tuple[int, int]:
        return self.bounds.get(w, (0, 0))

    def pack(self, monos: np.ndarray) -> np.ndarray:
        """The lookup keys of the rows of ``monos``, an (n, q) array."""
        shifted = monos - self.k
        if shifted.size and (shifted.min() < 0 or shifted.max() >> KEY_BITS):
            raise OverflowError(f"monomial indices do not fit {KEY_BITS}-bit keys at "
                                f"k={self.k}, h={self.h}, q={self.q}")
        if not self.q:
            return np.zeros(len(monos), dtype="V1")
        return np.ascontiguousarray(shifted, dtype=">u2").view(f"V{2 * self.q}").ravel()

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The row of each key; -1 for a monomial outside the level."""
        if not len(self):
            return np.full(keys.size, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self._keys, keys), len(self) - 1)
        return np.where(self._keys[at] == keys, self._order[at], -1)


def levels(basis: BlockBasis) -> dict:
    """The ``Level`` of each q of ``basis``, a union of whole (q, w) slices
    of one block, in increasing q."""
    grouped: dict = {}
    for m in basis.monomials:
        grouped.setdefault(len(m), []).append(m)
    return {q: Level(basis.k, basis.h, q, grouped[q]) for q in sorted(grouped)}


def _entry_keys(src: Level, tgt: Level, cols: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The keys col * len(tgt) + row of the entries in the columns ``cols``
    at the rows of the monomials ``images`` of ``tgt``; raises ValueError,
    as ``matrix_of`` does, for an image outside ``tgt``."""
    rows = tgt.find(tgt.pack(images))
    if (rows < 0).any():
        i = int(np.argmax(rows < 0))
        raise ValueError(
            f"image term {tuple(images[i].tolist())} of {tuple(src.monos[cols[i]].tolist())} "
            f"is outside the target level (k={tgt.k}, h={tgt.h}, q={tgt.q})")
    return cols * len(tgt) + rows


def _matrix(src: Level, tgt: Level, entries: list) -> Coo:
    """The compressed matrix that sums the (keys, vals) of ``entries``."""
    empty = np.zeros(0, dtype=np.int64)
    keys, vals = zip((empty, empty), *entries)
    return coo_from_keys((len(tgt), len(src)), np.concatenate(keys), np.concatenate(vals))


def _replaced(src: Level, tgt: Level, rest: np.ndarray, ni: np.ndarray, e: np.ndarray,
              parity) -> tuple:
    """The entries (keys, vals) of the images rest[r, g] with the index
    ni[r, g] inserted, for the monomials r of ``src`` and the groups g of
    factors they replace, with the coefficient e (-1)^(parity + pos), where
    pos is the ``bisect`` position of ni among rest; none where e is 0 or
    ni repeats.  ``rest`` has shape (N, G, r), the others broadcast to
    (N, G)."""
    keep = (e != 0) & (rest != ni[..., None]).all(axis=-1)
    row, group = np.nonzero(keep)
    rest, ni, e = rest[row, group], ni[row, group], e[row, group]
    parity = np.broadcast_to(parity, keep.shape)[row, group] + (rest < ni[:, None]).sum(axis=1)
    return (_entry_keys(src, tgt, row, np.sort(np.concatenate((rest, ni[:, None]), axis=1), axis=1)),
            np.where(parity % 2, -e, e))


def _without(q: int, drop) -> list:
    return [c for c in range(q) if c not in drop]


def differential_coo(k: int, src: Level, tgt: Level) -> Coo:
    """Matrix of ``differential`` from the level ``src`` to the level
    ``tgt`` of dimension q - 1, by its rule, one first factor s at a time,
    over all monomials and all second factors t > s."""
    m, q = src.monos, src.q
    entries = []
    for s in range(q - 1):
        ts = np.arange(s + 1, q)
        rest = m[:, [_without(q, (s, t)) for t in ts.tolist()]]
        entries.append(_replaced(src, tgt, rest, m[:, s, None] + m[:, ts],
                                 _EPS[(m[:, ts] - m[:, s, None]) % 3], s + ts + 1))
    return _matrix(src, tgt, entries)


def codifferential_coo(k: int, src: Level, tgt: Level) -> Coo:
    """Matrix of ``codifferential`` from the level ``src`` to the level
    ``tgt`` of dimension q + 1, by its splitting rule, one factor position
    at a time over all monomials and all their splittings."""
    m = src.monos
    entries = []
    for s in range(src.q):
        i = m[:, s]
        count = np.maximum((i - 1) // 2 - k + 1, 0)  # the a with k <= a and 2a < i
        row = np.repeat(np.arange(len(m)), count)
        a = k + np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
        b = i[row] - a
        e = _EPS[(b - a) % 3]
        row, a, b, e = row[e != 0], a[e != 0], b[e != 0], e[e != 0]
        rest = m[:, _without(src.q, (s,))][row]
        keep = (rest != a[:, None]).all(axis=1) & (rest != b[:, None]).all(axis=1)
        row, a, b, e, rest = row[keep], a[keep], b[keep], e[keep], rest[keep]
        parity = s + (rest < a[:, None]).sum(axis=1) + (rest < b[:, None]).sum(axis=1)
        entries.append((_entry_keys(src, tgt, row, np.sort(np.column_stack((rest, a, b)), axis=1)),
                        np.where(parity % 2, -e, e)))
    return _matrix(src, tgt, entries)


def adjoint_coo(g: int, k: int, level: Level) -> Coo:
    """Matrix of ``adjoint_action(g, ., k)`` for g in {-1, 1} on the
    level, by its image rule e_i -> epsilon(i - g) e_{i+g}, over all
    monomials and factor positions s at once; its images keep q and h but
    may have any weight.  Raises ValueError as ``adjoint_action`` does when
    an image leaves L(k)."""
    m, q = level.monos, level.q
    if not q:
        return Coo.empty((len(level), len(level)))
    e = _EPS[(m - g) % 3]
    out = (e != 0) & (m + g < k)
    if out.any():
        i = int(m.flat[np.argmax(out)])
        raise ValueError(f"action of e_{g} leaves L({k}): e_{i} -> e_{i + g}")
    rest = m[:, [_without(q, (s,)) for s in range(q)]]
    return _matrix(level, level, [_replaced(level, level, rest, m + g, e, np.arange(q))])
