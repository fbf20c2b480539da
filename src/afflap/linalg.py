"""Exact sparse integer matrices and the elimination routines used on them.

``Coo``, int64 coordinate arrays, is the computation type: operator
matrices, Gram sums and whole (q, h) levels are built as ``Coo``, and the
(q, w) slices are cut from them as ``Coo``.  Dense rows of Python ints feed
the exact eliminators: fraction-free (Bareiss) elimination over the
integers for ranks and kernels, and the division-free Berkowitz algorithm
for characteristic polynomials.  ``IntMatrix`` (one dict per column) is the
oracle type: ``chains.matrix_of`` builds it from per-monomial chain
operators, and tests compare the two routes with ``==``.
Elimination modulo one word-size prime (numpy) serves twice.  The modular
rank is a certified one-sided bound: rank over GF(p) never exceeds the
rational rank, and ``level_ranks_mod_p`` eliminates the connected
components of the sparsity graph of a block-diagonal matrix one shape at a
time, over all blocks and all their shifts at once; ``rank_mod_p``,
``nullity_mod_p`` and ``certify_full_rank`` are its one-block forms.
``modular_kernel`` lifts the echelon kernel basis mod p to Q
by rational reconstruction and checks every vector exactly, falling back to
``fraction_kernel`` (Bareiss, then rational back-substitution) when a lift
or a check fails; its docstring gives the argument that both routes return
the same basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple

import numpy as np

DEFAULT_PRIME = 1_000_003


def add_scaled(dst: dict, src: dict, scale=1) -> None:
    """``dst += scale * src`` for sparse vectors stored as dicts, in place.

    Entries that cancel are removed, so a zero-free ``dst`` stays zero-free.
    """
    for key, v in src.items():
        s = dst.get(key, 0) + scale * v
        if s:
            dst[key] = s
        else:
            dst.pop(key, None)


class IntMatrix:
    """Sparse exact integer matrix (column-major)."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns=None):
        self.rows = rows
        self.cols = cols
        if columns is None:
            columns = [dict() for _ in range(cols)]
        if len(columns) != cols:
            raise ValueError("column count mismatch")
        self.columns = columns

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [{i: 1} for i in range(n)])

    # -- inspection ---------------------------------------------------
    def nnz(self) -> int:
        return sum(len(c) for c in self.columns)

    def is_zero(self) -> bool:
        return all(not c for c in self.columns)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                if self.columns[i].get(j, 0) != v:
                    return False
        return True

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.columns == other.columns)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        cols = []
        for c1, c2 in zip(self.columns, other.columns):
            c = dict(c1)
            add_scaled(c, c2)
            cols.append(c)
        return IntMatrix(self.rows, self.cols, cols)

    def scale(self, s: int) -> "IntMatrix":
        if s == 0:
            return IntMatrix(self.rows, self.cols)
        return IntMatrix(self.rows, self.cols,
                         [{i: v * s for i, v in c.items()} for c in self.columns])

    def apply(self, vec: dict) -> dict:
        """Image of a sparse column vector {row: value}."""
        out: dict = {}
        for j, v in vec.items():
            if v:
                add_scaled(out, self.columns[j], v)
        return out

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        return IntMatrix(self.rows, other.cols,
                         [self.apply(c) for c in other.columns])

    def transpose(self) -> "IntMatrix":
        cols = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                cols[i][j] = v
        return IntMatrix(self.cols, self.rows, cols)

    # -- conversions ----------------------------------------------------
    def to_dense_rows(self) -> list[list[int]]:
        rows = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                rows[i][j] = v
        return rows


# ---------------------------------------------------------------------------
# int64 coordinate arrays: sums, transposes and Gram sums of whole levels

# expanded (row, col) pairs held at once by one chunk of ``gram``
GRAM_PAIR_BUDGET = 1 << 14


class Coo(NamedTuple):
    """A sparse integer matrix as int64 coordinate arrays.

    ``coo_sum`` and ``gram`` return it compressed: no repeated (row, col),
    no zero value, sorted by column and then by row.
    """

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def empty(cls, shape: tuple) -> "Coo":
        return cls(shape, *(np.zeros(0, dtype=np.int64),) * 3)

    @property
    def T(self) -> "Coo":
        return Coo(self.shape[::-1], self.cols, self.rows, self.vals)

    def scaled(self, s: int) -> "Coo":
        return self._replace(vals=self.vals * s)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Coo":
        """Rows r0..r1-1 and columns c0..c1-1 of a compressed matrix, as a
        compressed matrix indexed from (0, 0); raises ValueError when those
        columns have an entry in another row."""
        lo, hi = np.searchsorted(self.cols, (c0, c1))
        rows = self.rows[lo:hi] - r0
        if rows.size and (rows.min() < 0 or rows.max() >= r1 - r0):
            raise ValueError(f"columns {c0}..{c1 - 1} have entries outside rows {r0}..{r1 - 1}")
        return Coo((r1 - r0, c1 - c0), rows, self.cols[lo:hi] - c0, self.vals[lo:hi])

    def dense(self) -> np.ndarray:
        """The matrix as an int64 array; repeated coordinates are summed."""
        out = np.zeros(self.shape, dtype=np.int64)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def columns(self) -> list:
        """The (row, value) entries of each column of a column-sorted
        matrix, as Python ints; ``searchsorted`` finds where each column
        starts."""
        starts = np.searchsorted(self.cols, np.arange(self.shape[1] + 1)).tolist()
        entries = list(zip(self.rows.tolist(), self.vals.tolist()))
        return [entries[a:b] for a, b in zip(starts, starts[1:])]


def column_image(columns: list, vec: dict) -> dict:
    """A v for the sparse vector v = {col: value} and the matrix A given by
    its ``Coo.columns``; exact Python ints, zero entries kept."""
    out: dict = {}
    for j, x in vec.items():
        for i, v in columns[j]:
            out[i] = out.get(i, 0) + v * x
    return out


def coo_diag(values) -> Coo:
    values = np.asarray(values, dtype=np.int64)
    idx = np.arange(values.size)
    return Coo((values.size, values.size), idx, idx, values)


def coo_from_keys(shape: tuple, key: np.ndarray, vals: np.ndarray) -> Coo:
    """The compressed matrix that sums vals[i] at the position with key
    col * shape[0] + row equal to key[i]."""
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    if key.size:
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        key, vals = key[first], np.add.reduceat(vals, first)
        keep = vals != 0
        key, vals = key[keep], vals[keep]
    nrows = max(shape[0], 1)
    return Coo(shape, key % nrows, key // nrows, vals)


def coo_sum(shape: tuple, *parts: Coo) -> Coo:
    """The compressed sum of matrices of one shape."""
    return coo_from_keys(shape, np.concatenate([p.cols * shape[0] + p.rows for p in parts]),
                         np.concatenate([p.vals for p in parts]))


def gram(parts: list, where: str) -> Coo:
    """The compressed sum of A^T A over the matrices A in ``parts``, which
    share their column count n.

    Stacking the parts makes this one Gram sum, expanded, sorted and
    compressed (Bell, Dalton and Olson 2012): each entry A[r, j] pairs with
    every entry A[r, i] of its row, giving A[r, i] A[r, j] at (i, j).  The
    output columns are taken in chunks of at most ``GRAM_PAIR_BUDGET`` pairs
    (a column never splits), so terms of different parts that cancel do so
    before the next chunk is expanded.  A sum of at most c terms of size at
    most m^2, where c is the largest number of entries of a column and m the
    largest |A[r, i]|, stays below 2^62 when m^2 c does; otherwise this
    raises OverflowError naming ``where``.  Integer arithmetic throughout.
    """
    n = parts[0].shape[1]
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])
    inner = np.concatenate([p.rows + off for p, off in zip(parts, offsets)])
    outer = np.concatenate([p.cols for p in parts])
    vals = np.concatenate([p.vals for p in parts])
    if not vals.size:
        return Coo.empty((n, n))
    big = int(np.abs(vals).max()) ** 2 * int(np.bincount(outer).max())
    if big >= 1 << 62:
        raise OverflowError(f"int64 Gram sum could overflow on {where}")
    order = np.argsort(inner, kind="stable")
    inner, outer, vals = inner[order], outer[order], vals[order]
    starts = np.flatnonzero(np.diff(inner, prepend=-1))
    sizes = np.diff(starts, append=inner.size)
    # each entry, taken as the column side, with the start and size of its row
    by_col = np.argsort(outer, kind="stable")
    start, size = np.repeat(starts, sizes)[by_col], np.repeat(sizes, sizes)[by_col]
    col, val = outer[by_col], vals[by_col]
    del order, inner, by_col  # freed before the chunks are expanded
    ends = np.cumsum(size)
    col_ends = np.flatnonzero(np.append(col[1:] != col[:-1], True))
    pairs_to = ends[col_ends]
    out = []
    lo = 0
    while lo < col.size:
        base = ends[lo] - size[lo]
        cut = np.searchsorted(pairs_to, base + GRAM_PAIR_BUDGET, side="right")
        hi = col_ends[max(cut - 1, np.searchsorted(col_ends, lo))] + 1
        m = size[lo:hi]
        total = int(m.sum())
        pos = np.arange(total) - np.repeat(ends[lo:hi] - m - base, m)
        partner = np.repeat(start[lo:hi], m) + pos
        key = np.repeat(col[lo:hi], m) * n + outer[partner]
        out.append(coo_from_keys((n, n), key, np.repeat(val[lo:hi], m) * vals[partner]))
        lo = hi
    return Coo((n, n), *(np.concatenate([getattr(chunk, field) for chunk in out])
                         for field in ("rows", "cols", "vals")))


# ---------------------------------------------------------------------------
# exact elimination

def _bareiss_forward(m: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) forward elimination of integer rows, in place.

    Returns the pivot columns; pivot ``r`` sits in row ``r``, so their
    count is the rank over Q.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        mr = m[rank]
        pv = mr[col]
        for i in range(rank + 1, nrows):
            mi = m[i]
            f = mi[col]
            # every row below is rescaled, keeping the divisions exact
            for c in range(col, ncols):
                mi[c] = (pv * mi[c] - f * mr[c]) // prev
        pivots.append(col)
        prev = pv
        if rank + 1 == nrows:
            break
    return pivots


def bareiss_rank(dense_rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on integer rows."""
    return len(_bareiss_forward([row[:] for row in dense_rows]))


def fraction_kernel(dense_rows: list[list[int]]) -> list[dict[int, Fraction]]:
    """Exact kernel basis in reduced echelon form, deterministic, of the
    matrix with these integer rows (at least one).

    Forward elimination is fraction-free over the integers; the kernel
    vectors are recovered by rational back-substitution, one per free
    column, with value 1 at their own free column and 0 at the others.
    """
    m = [row[:] for row in dense_rows]
    pivot_cols = _bareiss_forward(m)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(len(m[0])) if c not in pivot_set]
    kernel = []
    for fc in free_cols:
        vec: dict[int, Fraction] = {fc: Fraction(1)}
        for row in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[row]
            if pc > fc:
                continue
            s = Fraction(m[row][fc])
            for c in pivot_cols[row + 1:]:
                if c <= fc and c in vec:
                    s += m[row][c] * vec[c]
            if s:
                vec[pc] = -s / m[row][pc]
        kernel.append(vec)
    return kernel


def exact_nullity(matrix: Coo, lam: int = 0) -> int:
    """The nullity of A - lam I over Q, shifted and eliminated on rows of
    Python ints."""
    rows = matrix.dense().tolist()
    if lam and matrix.shape[0] != matrix.shape[1]:
        raise ValueError("shift needs a square matrix")
    for i, row in enumerate(rows):
        row[i] -= lam
    return matrix.shape[1] - bareiss_rank(rows)


# ---------------------------------------------------------------------------
# modular elimination (certified one-sided bounds, and kernels checked over Q)

# entries of one stack of ``_echelon_mod_p`` in ``level_ranks_mod_p``
STACK_BUDGET = 1 << 18


def _echelon_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Forward elimination over GF(p) of each matrix in the int64 stack ``a``
    (shape (m, rows, cols), entries in [0, p)), in place.

    Rows are never swapped.  At each column every matrix takes as its pivot
    the first row that is nonzero there and holds no earlier pivot, and each
    other such row r becomes pv * r - f * pivot_row (mod p), with pv the
    pivot and f the entry of r in that column: a fraction-free update whose
    products stay below p**2 < 2**63.  Rows that hold no pivot end zero, and
    a pivot row is zero left of its pivot and on every later pivot column.

    Returns an (m, cols) array: the row that holds the pivot of each column,
    or -1 for a column without one.
    """
    m, nrows, ncols = a.shape
    held = np.full((m, ncols), -1, dtype=np.int64)
    if not nrows:
        return held
    free = np.ones((m, nrows), dtype=bool)
    ids = np.arange(m)
    for col in range(ncols):
        cand = (a[:, :, col] != 0) & free
        rows = cand.argmax(axis=1)
        live = cand[ids, rows]
        if not live.any():
            continue
        pm, pr = ids[live], rows[live]
        held[pm, col] = pr
        free[pm, pr] = False
        cand[pm, pr] = False
        mi, ri = np.nonzero(cand)
        if mi.size:
            pivot = a[mi, rows[mi], col:]
            a[mi, ri, col:] = (pivot[:, :1] * a[mi, ri, col:]
                               - a[mi, ri, col, None] * pivot) % p
    return held


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each of ``n`` vertices, the least vertex of its connected
    component in the graph with the edges (u[e], v[e])."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[u], label[v])
        new = label.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _local_index(comp: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Position of each vertex among the vertices of its component, in
    increasing order."""
    order = np.argsort(comp, kind="stable")
    local = np.empty_like(comp)
    local[order] = np.arange(comp.size) - (np.cumsum(count) - count)[comp[order]]
    return local


def level_ranks_mod_p(matrix: Coo, shapes, lams) -> list[list[int]]:
    """The rank of S - lam I over GF(``DEFAULT_PRIME``) for each lam in
    ``lams[s]``, for each diagonal block S of ``matrix``: the blocks have
    the (rows, cols) ``shapes`` in order and ``matrix`` holds no entry
    outside them.

    The rows and columns of the matrix are the vertices of its sparsity
    graph: each entry [i, j] joins row i to column j, and in a square block
    row i is also joined to column i, so S - lam I has the same connected
    components for every lam.  Permuting its rows and columns makes S - lam I
    block diagonal over those components, so its rank is the sum of their
    ranks.  The components of all blocks are grouped by shape, and each
    group is eliminated by ``_echelon_mod_p`` passes over stacks of its
    (component, lam) matrices.  A stack holds at most the entries of the
    dense blocks, and at most ``STACK_BUDGET``, unless one component alone
    needs more.  Raises ValueError when a component crosses two blocks (an
    entry lies outside them) or a nonzero lam comes with a non-square block.
    """
    p = DEFAULT_PRIME
    shapes = np.array(shapes, dtype=np.int64).reshape(-1, 2)
    blocks = np.arange(len(shapes))
    nrows, ncols = (int(n) for n in shapes.sum(axis=0))
    if tuple(matrix.shape) != (nrows, ncols):
        raise ValueError(f"blocks of shape {nrows}x{ncols} do not tile a "
                         f"{matrix.shape[0]}x{matrix.shape[1]} matrix")
    square = shapes[:, 0] == shapes[:, 1]
    if any(lam for s in np.flatnonzero(~square) for lam in lams[s]):
        raise ValueError("shift needs a square matrix")
    row_block = np.repeat(blocks, shapes[:, 0])
    col_block = np.repeat(blocks, shapes[:, 1])
    crossing = np.flatnonzero(row_block[matrix.rows] != col_block[matrix.cols])
    if crossing.size:
        r, c = int(matrix.rows[crossing[0]]), int(matrix.cols[crossing[0]])
        raise ValueError(f"entry ({r}, {c}) joins a component of block {row_block[r]} "
                         f"to one of block {col_block[c]}")
    # vertices: rows 0..nrows-1, then columns nrows..nrows+ncols-1
    diag = np.flatnonzero(square[row_block])
    starts = np.cumsum(shapes, axis=0) - shapes
    diag_col = diag - starts[row_block[diag], 0] + starts[row_block[diag], 1]
    u = np.concatenate((matrix.rows, diag))
    v = nrows + np.concatenate((matrix.cols, diag_col))
    labels, comp = np.unique(_component_labels(nrows + ncols, u, v), return_inverse=True)
    row_comp, col_comp = comp[:nrows], comp[nrows:]
    row_count = np.bincount(row_comp, minlength=labels.size)
    col_count = np.bincount(col_comp, minlength=labels.size)
    comp_block = np.zeros(labels.size, dtype=np.int64)  # read for components with rows only
    comp_block[row_comp] = row_block
    # components in order of shape; their entries sorted the same way
    order = np.lexsort((col_count, row_count))
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    entry_pos = pos[row_comp[matrix.rows]]
    by_pos = np.argsort(entry_pos, kind="stable")
    entry_pos = entry_pos[by_pos]
    entry_row = _local_index(row_comp, row_count)[matrix.rows[by_pos]]
    entry_col = _local_index(col_comp, col_count)[matrix.cols[by_pos]]
    entry_val = matrix.vals[by_pos] % p
    # the (block, lam) pairs, flattened
    count = np.array([len(block_lams) for block_lams in lams], dtype=np.int64)
    first = np.cumsum(count) - count
    shifts = np.array([lam % p for block_lams in lams for lam in block_lams], dtype=np.int64)
    ranks = np.zeros(shifts.size, dtype=np.int64)
    budget = min(int(shapes.prod(axis=1).sum()), STACK_BUDGET)
    shape_of = np.stack((row_count[order], col_count[order]), axis=1)
    group_starts = np.flatnonzero(np.any(np.diff(shape_of, axis=0, prepend=-1) != 0, axis=1))
    for g0, g1 in zip(group_starts.tolist(), [*group_starts[1:].tolist(), order.size]):
        sr, sc = shape_of[g0].tolist()
        if not sr or not sc:
            continue
        turn = max(1, budget // (sr * sc))
        for a in range(g0, g1, turn):
            b = min(g1, a + turn)
            lo, hi = np.searchsorted(entry_pos, (a, b))
            base = np.zeros((b - a, sr, sc), dtype=np.int64)
            base[entry_pos[lo:hi] - a, entry_row[lo:hi], entry_col[lo:hi]] = entry_val[lo:hi]
            # each component of this chunk under each lam of its block
            blk = comp_block[order[a:b]]
            n = count[blk]
            slot = np.repeat(np.arange(b - a), n)
            out = np.repeat(first[blk] - np.cumsum(n) + n, n) + np.arange(slot.size)
            for t in range(0, slot.size, turn):
                stack = base[slot[t:t + turn]]
                if sr == sc:
                    d = np.arange(sr)
                    stack[:, d, d] = (stack[:, d, d] - shifts[out[t:t + turn], None]) % p
                held = _echelon_mod_p(stack, p)
                np.add.at(ranks, out[t:t + turn], (held >= 0).sum(axis=1))
    return [ranks[i:i + n].tolist() for i, n in zip(first.tolist(), count.tolist())]


def rank_mod_p(matrix: Coo, lams) -> list[int]:
    """The rank of A - lam I over GF(``DEFAULT_PRIME``) for each lam in
    ``lams``: ``level_ranks_mod_p`` on the compressed matrix A as one block.
    A nonzero lam needs a square matrix."""
    return level_ranks_mod_p(matrix, [matrix.shape], [list(lams)])[0]


def _rational_reconstruction(u: int, p: int, bound: int) -> Fraction | None:
    """The fraction n/d with |n|, d <= bound and n = d*u (mod p), or None.

    Such a fraction is unique when 2*bound**2 < p.  It is read off the
    extended Euclidean remainder sequence of (p, u) at the first remainder
    not above ``bound`` (Wang, Guy and Davenport 1982); every remainder r
    there satisfies r = s*u (mod p) for its cofactor s.
    """
    r0, r1, s0, s1 = p, u % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if not 0 < abs(s1) <= bound:
        return None
    return Fraction(r1, s1)


def modular_kernel(matrix: Coo) -> list[dict[int, Fraction]]:
    """The kernel basis of ``fraction_kernel``, found mod p and lifted to Q.

    The compressed matrix is reduced mod ``DEFAULT_PRIME`` and brought to
    echelon form by ``_echelon_mod_p``, the forward pass of
    ``level_ranks_mod_p``; its pivot rows, each scaled to a leading 1, are
    back-substituted.  Each free column f gives the vector that is 1 at f,
    0 at the other free columns and supported on the pivot columns left of
    f; its entries are lifted by rational reconstruction with |num|,
    den <= isqrt(p // 2), and it is checked to lie in the kernel exactly,
    over the integers after clearing denominators, on the columns of its
    support.  If any lift or check fails the result is ``fraction_kernel``
    of the matrix's dense rows.

    When every check passes the result equals that ``fraction_kernel``:

    - for every j, the rank of A[:, :j] mod p is at most its rank over Q;
    - each lifted vector is an exact kernel vector that is 1 on its free
      column f, 0 on the other free columns and supported on the pivot
      columns left of f, so column f lies in the rational span of those;
      hence the rank of A[:, :j] over Q is at most the number of pivots mod
      p left of j, which is its rank mod p;
    - so the two ranks of A[:, :j] agree for every j, the pivot sets (the
      columns where that rank grows) coincide, and with them the reduced
      kernel basis, which is unique.
    """
    p = DEFAULT_PRIME
    dense = matrix.dense()
    a = dense % p
    held = _echelon_mod_p(a[None], p)[0]
    pivots = np.nonzero(held >= 0)[0].tolist()
    pivot_set = set(pivots)
    free_cols = [c for c in range(matrix.shape[1]) if c not in pivot_set]
    if not free_cols:
        return []
    # the echelon rows in pivot order, each pivot scaled to 1
    a = a[held[pivots]]
    inverses = [pow(int(a[i, pc]), p - 2, p) for i, pc in enumerate(pivots)]
    a = a * np.array(inverses, dtype=np.int64)[:, None] % p
    # reduce the pivot rows on the free columns only: rows i' < i lose their
    # multiple of row i, from the last pivot up
    reduced = a[:, free_cols]
    for i in range(len(pivots) - 1, 0, -1):
        above = a[:i, pivots[i]]
        mask = above != 0
        if mask.any():
            reduced[:i][mask] = (
                reduced[:i][mask] - np.outer(above[mask], reduced[i])) % p
    bound = isqrt(p // 2)
    columns = matrix.columns()
    kernel = []
    for j, fc in enumerate(free_cols):
        vec: dict[int, Fraction] = {fc: Fraction(1)}
        for i, pc in enumerate(pivots):
            residue = -int(reduced[i, j]) % p
            if not residue:
                continue
            value = _rational_reconstruction(residue, p, bound)
            if value is None:
                return fraction_kernel(dense.tolist())
            vec[pc] = value
        den = lcm(*(v.denominator for v in vec.values()))
        if any(column_image(columns, {c: v.numerator * (den // v.denominator)
                                      for c, v in vec.items()}).values()):
            return fraction_kernel(dense.tolist())
        kernel.append(vec)
    return kernel


def nullity_mod_p(matrix: Coo, lams) -> list[int]:
    """n - rank of A - lam I over GF(p) for each lam in ``lams``; each is an
    upper bound on the rational nullity."""
    return [matrix.shape[1] - rank for rank in rank_mod_p(matrix, lams)]


def certify_full_rank(matrix: Coo) -> bool:
    """True when the rational kernel of A is provably trivial.

    A full modular rank is conclusive; a modular rank deficit is not, so the
    caller must fall back to exact elimination in that case.
    """
    return rank_mod_p(matrix, [0]) == [matrix.shape[1]]


# ---------------------------------------------------------------------------
# characteristic polynomials

def berkowitz_charpoly(dense_rows: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(tI - A), division-free, of the matrix
    A with these integer rows.

    Returns coefficients ascending in t, so the leading entry (for t^n) is 1.
    """
    a = dense_rows
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial needs a square matrix")
    if n == 0:
        return [1]
    # poly holds the char poly of the leading principal minor, descending.
    poly = [1, -a[0][0]]
    for i in range(1, n):
        row = a[i][:i]
        col = [a[t][i] for t in range(i)]
        diag = a[i][i]
        # Toeplitz column: [1, -diag, -row.col, -row.M.col, -row.M^2.col, ...]
        items = [1, -diag]
        vec = col[:]
        for _ in range(i - 1):
            items.append(-sum(r * v for r, v in zip(row, vec)))
            vec = [sum(a[s][t] * vec[t] for t in range(i)) for s in range(i)]
        items.append(-sum(r * v for r, v in zip(row, vec)))
        new = [0] * (len(poly) + 1)
        for s, it in enumerate(items):
            if it:
                for t, pc in enumerate(poly):
                    if s + t < len(new) and pc:
                        new[s + t] += it * pc
        poly = new
    poly.reverse()
    return poly


def strip_integer_roots(coeffs: list[int], root_bound: int):
    """Divide out all non-negative integer roots of a monic polynomial.

    Returns (multiplicity map, remaining factor, ascending).  The remainder
    has no rational roots at all when the matrix is positive semidefinite:
    rational roots of a monic integer polynomial are integers, and the
    spectrum is then contained in [0, root_bound].
    """
    poly = list(coeffs)
    roots: dict[int, int] = {}
    for r in range(0, root_bound + 1):
        while len(poly) > 1 and _poly_eval(poly, r) == 0:
            poly = _synthetic_divide(poly, r)
            roots[r] = roots.get(r, 0) + 1
    return roots, poly


def _poly_eval(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _synthetic_divide(coeffs: list[int], root: int) -> list[int]:
    # coeffs ascending; divide by (t - root), remainder must be zero
    n = len(coeffs) - 1
    out = [0] * n
    carry = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    if carry != 0:
        raise ValueError(f"{root} is not a root")
    return out


def gershgorin_bound(matrix: Coo) -> int:
    """Upper bound on the absolute value of any eigenvalue."""
    return max((sum(map(abs, row)) for row in matrix.dense().tolist()), default=0)
