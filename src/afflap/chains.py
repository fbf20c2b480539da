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
from math import comb

import numpy as np

from .generators import epsilon, generator_degree
from .linalg import Coo, IntMatrix, coo_from_keys, floor_mod, sparse_sum, stable_order

Monomial = tuple
Chain = dict

_EPS = np.array([0, 1, -1], dtype=np.int64)  # epsilon by residue mod 3


def _eps(m: np.ndarray) -> np.ndarray:
    """``epsilon`` of each entry of an integer array."""
    return _EPS[floor_mod(m, 3)]


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


def _block_arrays(k: int, h: int) -> dict:
    """The monomials of the degree-h block of L(k) with q factors, as an
    (N, q) int64 array in lexicographic order, for each q that has any, in
    increasing q.  The empty monomial belongs to the h = 0 block for every k.

    The generators of degree at most h, e_k, e_{k+1}, ..., come in
    increasing index and so in nondecreasing degree.  Breadth first, each
    row of length q grows into the rows of length q + 1 that append one
    later generator and leave a degree remainder of 0 or of at least the
    next generator's degree: every degree from there up to h has a
    generator, so each row kept is the start of some monomial of degree h.
    Children follow their parent in increasing index, so the rows of each
    length stay in lexicographic order; the finished ones, of remainder 0,
    are the monomials.
    """
    if k < -1:
        raise ValueError(f"blocks are defined for k >= -1, got k={k}")
    if h < 0:
        raise ValueError(f"degree must be non-negative, got h={h}")
    gens = np.arange(k, 3 * h + 2)
    deg = (gens - _eps(gens)) // 3
    after = np.append(deg[1:], h + 1)  # no remainder fits past the last generator
    rows = np.zeros((1, 0), dtype=np.int64)
    rem, nxt = np.array([h]), np.zeros(1, dtype=np.int64)
    out = {}
    while len(rows):
        done = rem == 0
        if done.any():
            out[rows.shape[1]] = rows[done]
        count = np.maximum(np.searchsorted(deg, rem, side="right") - nxt, 0)
        parent = np.repeat(np.arange(len(rows)), count)
        i = np.arange(parent.size) + np.repeat(nxt - (np.cumsum(count) - count), count)
        rem = rem[parent] - deg[i]
        fits = (rem == 0) | (rem >= after[i])
        parent, i, rem = parent[fits], i[fits], rem[fits]
        rows = np.concatenate((rows[parent], gens[i, None]), axis=1)
        nxt = i + 1
    return out


def enumerate_block(k: int, h: int, w: int | None = None) -> BlockBasis:
    """All monomials of L(k) with degree h (and weight w when given), in
    lexicographic order: the rows of ``_block_arrays`` as tuples."""
    monos = []
    for rows in _block_arrays(k, h).values():
        if w is not None:
            rows = rows[_eps(rows).sum(axis=1) == w]
        monos += map(tuple, rows.tolist())
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

KEY_BITS = 16  # the colex table of a level has one row per index minus k below 2^16
_INT64_MAX = (1 << 63) - 1


@lru_cache(maxsize=32)
def _colex_table(n: int, q: int) -> np.ndarray:
    """C(c, j + 1) at [j, c] for j < q and c < n, as int64, each capped at
    2^63 - 1: the Pascal sums C(c, j + 2) = sum_{c' < c} C(c', j + 1), on
    Python ints."""
    out = np.zeros((q, n), dtype=np.int64)
    col = np.arange(n, dtype=object)
    for j in range(q):
        out[j] = np.minimum(col, _INT64_MAX)
        col = np.concatenate(([0], np.cumsum(col[:-1])))
    return out


class Level:
    """The chain-dimension-q monomials of a union of whole (q, w) slices of
    one degree-h block, as an (N, q) int64 array ``monos``, and the weight
    of each row, ``weights``.

    Rows are sorted stably by weight, so each slice keeps the order of the
    monomials the level is built from, and a matrix that keeps w is block
    diagonal over the slices; ``bounds`` maps each w, increasing, to the row
    range of its slice.  Monomials are looked up by an int64 key, the colex
    rank sum_j C(c_j, j + 1) of their indices minus k, c_0 < ... < c_{q-1}
    (``pack``): distinct increasing rows have distinct ranks, and a row
    whose largest c is at most c_max has a rank below C(c_max + 1, q).  The
    binomials come from a table with one row per c up to the level's
    largest; a level whose largest c reaches 2^16, or whose ranks could
    reach 2^63, is refused with OverflowError naming k, h and q.
    """

    __slots__ = ("k", "h", "q", "monos", "weights", "bounds", "_top", "_colex",
                 "_keys", "_order")

    def __init__(self, k: int, h: int, q: int, monos=()):
        self.k, self.h, self.q = k, h, q
        monos = np.asarray(monos, dtype=np.int64).reshape(len(monos), q)
        weights = _eps(monos).sum(axis=1)
        order = stable_order(weights)
        self.monos, self.weights = monos[order], weights[order]
        starts = np.flatnonzero(np.diff(self.weights, prepend=q + 1)).tolist()
        ends = starts[1:] + [len(order)]
        self.bounds = dict(zip(self.weights[starts].tolist(), zip(starts, ends)))
        self._top = int(monos.max()) - k if monos.size else -1
        if self._top >= 1 << KEY_BITS or comb(self._top + 1, q) > 1 << 63:
            raise OverflowError(f"colex keys do not fit their table or int64 at "
                                f"k={k}, h={h}, q={q}")
        # the table has a power-of-two number of rows, so few sizes are cached
        self._colex = _colex_table(1 << (self._top + 1).bit_length(), q)
        keys = self.pack(self.monos)
        self._order = np.argsort(keys)
        self._keys = keys[self._order]

    def __len__(self) -> int:
        return len(self.monos)

    def span(self, w: int) -> tuple[int, int]:
        return self.bounds.get(w, (0, 0))

    def pack(self, monos: np.ndarray) -> np.ndarray:
        """The lookup keys of the rows of ``monos``, an (n, q) array: the
        colex rank of each strictly increasing row whose indices minus k are
        at most the level's largest, and -1, which no row of the level has,
        for any other row.  Raises OverflowError for an index below k."""
        c = monos - self.k
        if not c.size:
            return np.zeros(len(monos), dtype=np.int64)
        if c.min() < 0:
            raise OverflowError(f"monomial index below k at k={self.k}, h={self.h}, q={self.q}")
        increasing = c[:, 1:] > c[:, :-1]
        if c.max() <= self._top and increasing.all():
            return self._terms(c)
        bad = (c > self._top).any(axis=1) | ~increasing.all(axis=1)
        return np.where(bad, -1, self._terms(np.where(bad[:, None], 0, c)))

    def _terms(self, c: np.ndarray) -> np.ndarray:
        table = self._colex
        terms = np.take(table, c + np.arange(self.q) * table.shape[1])
        return terms @ np.ones(self.q, dtype=np.int64)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The row of each key; -1 for a monomial outside the level."""
        if not len(self):
            return np.full(keys.size, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self._keys, keys), len(self) - 1)
        return np.where(self._keys[at] == keys, self._order[at], -1)


def block_levels(k: int, h: int) -> dict:
    """The ``Level`` of each q of the degree-h block, in increasing q, built
    from the arrays of ``_block_arrays``."""
    return {q: Level(k, h, q, rows) for q, rows in _block_arrays(k, h).items()}


def levels(basis: BlockBasis) -> dict:
    """The ``Level`` of each q of ``basis``, a union of whole (q, w) slices
    of one block, in increasing q."""
    grouped: dict = {}
    for m in basis.monomials:
        grouped.setdefault(len(m), []).append(m)
    return {q: Level(basis.k, basis.h, q, grouped[q]) for q in sorted(grouped)}


def _entries(src: Level, tgt: Level, cols: np.ndarray, images: np.ndarray,
             vals: np.ndarray) -> tuple:
    """The entries (cols, rows, vals) with the rows of the monomials
    ``images`` of ``tgt``, the images of the columns ``cols`` of ``src``;
    raises ValueError, as ``matrix_of`` does, for an image outside
    ``tgt``."""
    rows = tgt.find(tgt.pack(images))
    if (rows < 0).any():
        i = int(np.argmax(rows < 0))
        raise ValueError(
            f"image term {tuple(images[i].tolist())} of {tuple(src.monos[cols[i]].tolist())} "
            f"is outside the target level (k={tgt.k}, h={tgt.h}, q={tgt.q})")
    return cols, rows, vals


def _matrix(src: Level, tgt: Level, entries: list, transposed: bool = False) -> Coo:
    """The compressed matrix from ``src`` to ``tgt`` that sums the
    (cols, rows, vals) of ``entries``, or its transpose."""
    empty = np.zeros(0, dtype=np.int64)
    cols, rows, vals = (np.concatenate(part) for part in zip((empty,) * 3, *entries))
    if transposed:
        rows *= len(src)
        return coo_from_keys((len(src), len(tgt)), rows + cols, vals)
    cols *= len(tgt)
    return coo_from_keys((len(tgt), len(src)), cols + rows, vals)


def _replaced(src: Level, tgt: Level, rest: np.ndarray, ni: np.ndarray, e: np.ndarray,
              parity, first: int = 0) -> tuple:
    """The entries of the images rest[r, g] with the index ni[r, g]
    inserted, for the monomials first + r of ``src`` and the groups g of
    factors they replace, with the coefficient e (-1)^(parity + pos), where
    pos is the ``bisect`` position of ni among rest; none where e is 0 or
    ni repeats.  ``rest`` has shape (N, G, r), the others broadcast to
    (N, G)."""
    keep = (e != 0) & (rest != ni[..., None]).all(axis=-1)
    row, group = np.nonzero(keep)
    rest, ni, e = rest[row, group], ni[row, group], e[row, group]
    parity = np.broadcast_to(parity, keep.shape)[row, group] + (rest < ni[:, None]).sum(axis=1)
    return _entries(src, tgt, first + row,
                    np.sort(np.concatenate((rest, ni[:, None]), axis=1), axis=1),
                    np.where(parity & 1, -e, e))


def _without(q: int, drop) -> list:
    return [c for c in range(q) if c not in drop]


# candidate images times their width built at once by one operator pass
PASS_BUDGET = 1 << 16


def _runs(cost: np.ndarray):
    """Ranges [a, b) of consecutive rows whose costs sum to at most
    ``PASS_BUDGET``, or of one row alone that costs more, covering all
    rows."""
    total = np.cumsum(cost)
    a = 0
    while a < cost.size:
        b = int(np.searchsorted(total, (total[a - 1] if a else 0) + PASS_BUDGET, side="right"))
        yield a, max(b, a + 1)
        a = max(b, a + 1)


def differential_coo(k: int, src: Level, tgt: Level) -> Coo:
    """Matrix of ``differential`` from the level ``src`` to the level
    ``tgt`` of dimension q - 1, by its rule, in one pass over all pairs of
    factors s < t of each run of monomials (``_runs``)."""
    m, q = src.monos, src.q
    pairs = list(combinations(range(q), 2))
    if not pairs:
        return _matrix(src, tgt, [])
    s, t = np.array(pairs).T
    others = [_without(q, pair) for pair in pairs]
    entries = []
    for a, b in _runs(np.full(len(m), len(pairs) * q)):
        run = m[a:b]
        entries.append(_replaced(src, tgt, run[:, others], run[:, s] + run[:, t],
                                 _eps(run[:, t] - run[:, s]), s + t + 1, a))
    return _matrix(src, tgt, entries)


def codifferential_transpose_coo(k: int, src: Level, tgt: Level) -> Coo:
    """The transpose of the matrix of ``codifferential`` from the level
    ``src`` to the level ``tgt`` of dimension q + 1, compressed in the
    orientation of the differential from ``tgt`` to ``src``, which check 1
    compares it with; built by the splitting rule in one pass over all
    factor positions s and splittings of each run of monomials
    (``_runs``).

    The factor e_i splits into the e_a ^ e_b with a + b = i, k <= a < b and
    eps(b - a) = eps(i - 2a) != 0, that is a != 2i (mod 3): with
    a = k + j, j = 0 .. (i - 1) // 2 - k skips the j = 2i - k (mod 3), and
    its t-th kept j is t + (t + 2 - (2i - k) % 3) // 2.  The pair goes into
    the other factors with the sign (-1)^(s + pa + pb) of its ``bisect``
    positions pa <= pb, which is (-1)^s times -1 per factor between a and
    b; a factor equal to a or b gives zero.
    """
    m, q = src.monos, src.q
    if not q:
        return _matrix(src, tgt, [], transposed=True)
    last = (m - 1) // 2 - k  # the last j of each factor
    skip = floor_mod(2 * m - k, 3)
    count = np.maximum(last - (last - skip) // 3, 0)
    others = [_without(q, (s,)) for s in range(q)]
    entries = []
    for r0, r1 in _runs(count.sum(axis=1) * (q + 1)):
        n = count[r0:r1].ravel()
        at = np.repeat(np.arange(n.size), n)  # the (monomial, position) of each splitting
        t = np.arange(at.size) - np.repeat(np.cumsum(n) - n, n)
        a = k + t + (t + 2 - skip[r0:r1].ravel()[at]) // 2
        b = m[r0:r1].ravel()[at] - a
        e = _eps(b - a)
        rest = m[r0:r1, others].reshape(n.size, q - 1)[at]
        keep = ((rest != a[:, None]) & (rest != b[:, None])).all(axis=1)
        at, a, b, e, rest = at[keep], a[keep], b[keep], e[keep], rest[keep]
        between = ((rest > a[:, None]) & (rest < b[:, None])).sum(axis=1)
        row = at // q
        parity = at - row * q + between  # s plus the factors between a and b
        entries.append(_entries(src, tgt, r0 + row, np.sort(np.column_stack((rest, a, b)), axis=1),
                                np.where(parity & 1, -e, e)))
    return _matrix(src, tgt, entries, transposed=True)


def adjoint_coo(g: int, k: int, level: Level) -> Coo:
    """Matrix of ``adjoint_action(g, ., k)`` for g in {-1, 1} on the
    level, by its image rule e_i -> epsilon(i - g) e_{i+g}, over all
    monomials and factor positions s at once; its images keep q and h but
    may have any weight.  Raises ValueError as ``adjoint_action`` does when
    an image leaves L(k)."""
    m, q = level.monos, level.q
    if not q:
        return Coo.empty((len(level), len(level)))
    e = _eps(m - g)
    out = (e != 0) & (m + g < k)
    if out.any():
        i = int(m.flat[np.argmax(out)])
        raise ValueError(f"action of e_{g} leaves L({k}): e_{i} -> e_{i + g}")
    rest = m[:, [_without(q, (s,)) for s in range(q)]]
    return _matrix(level, level, [_replaced(level, level, rest, m + g, e, np.arange(q))])
