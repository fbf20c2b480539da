"""Exact sparse integer matrices and the elimination routines used on them.

``Coo``, int64 coordinate arrays, is the computation type: operator
matrices, Gram sums and whole (q, h) levels are built as ``Coo``, summed by
one ``np.sort`` of packed (position, value) words (``coo_from_keys``), and
the (q, w) slices are cut from them as ``Coo``.  Dense rows of Python ints feed
the exact eliminators: fraction-free (Bareiss) elimination over the
integers for ranks and kernels, and the division-free Berkowitz algorithm
for characteristic polynomials.  ``IntMatrix`` (one dict per column) is the
oracle type: ``chains.matrix_of`` builds it from per-monomial chain
operators, and tests compare the two routes with ``==``.  Every sparse
sum that can cancel (chains, ring elements, matrix columns) is formed by
``sparse_sum``, the one place that drops zero entries.
``_level_components`` splits a block-diagonal matrix into the connected
components of its sparsity graph, stacked one shape at a time over all
blocks.  ``runs`` is the one loop that bounds memory: the operator passes
of ``chains``, the Gram sums and the component stacks take their items in
runs whose costs sum to at most ``PASS_BUDGET``.  ``level_nullities``
proves each block's nullities exactly from the traces of its residual
product prod (S - lam I), multiplied through the components.  Elimination
modulo one word-size prime (numpy) gives one-sided bounds, since the rank
over GF(p) never exceeds the rational rank.  ``_ranks_mod_p`` is the one
modular eliminator: it ranks each matrix of a component stack down the
diagonal and searches only where a pivot is zero.  ``level_ranks_mod_p``
sums the component ranks per block, and ``level_kernels`` runs
``fraction_kernel`` (Bareiss, then back-substitution in integers) only on
the components of less than full modular rank; its docstring argues that
this is the reduced kernel basis of each block.
``rank_mod_p``, ``nullity_mod_p`` and ``certify_full_rank``, the one-block
forms of ``level_ranks_mod_p``, are kept only because the benchmark's
tracer (``perfbench/tracer.py``) binds them.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import prod
from typing import NamedTuple

import numpy as np

DEFAULT_PRIME = 1_000_003


def sparse_sum(terms) -> dict:
    """The sum of the (key, value) pairs ``terms`` as a dict, without the
    keys whose values sum to zero."""
    out: dict = {}
    for key, v in terms:
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


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
        return IntMatrix(self.rows, self.cols,
                         [sparse_sum([*c1.items(), *c2.items()])
                          for c1, c2 in zip(self.columns, other.columns)])

    def scale(self, s: int) -> "IntMatrix":
        if s == 0:
            return IntMatrix(self.rows, self.cols)
        return IntMatrix(self.rows, self.cols,
                         [{i: v * s for i, v in c.items()} for c in self.columns])

    def apply(self, vec: dict) -> dict:
        """Image of a sparse column vector {row: value}."""
        return column_image([c.items() for c in self.columns], vec)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        columns = [c.items() for c in self.columns]
        return IntMatrix(self.rows, other.cols,
                         [column_image(columns, c) for c in other.columns])

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

# the cost of one run of ``runs``: candidate entries held at once by one
# operator pass, expanded pairs of one ``gram`` run, or dense entries of one
# stack of ``_level_components``
PASS_BUDGET = 1 << 14


def runs(cost: np.ndarray):
    """Ranges [a, b) of consecutive items whose costs sum to at most
    ``PASS_BUDGET``, or of one item alone that costs more, covering all
    items in order."""
    total = np.cumsum(cost)
    a = 0
    while a < cost.size:
        cut = np.searchsorted(total, (total[a - 1] if a else 0) + PASS_BUDGET, side="right")
        b = max(int(cut), a + 1)
        yield a, b
        a = b


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
    its columns of (row, value) pairs (``Coo.columns``, or the ``items`` of
    ``IntMatrix`` columns); exact Python ints, zero entries left out."""
    terms = []
    for j, x in vec.items():
        for i, v in columns[j]:
            terms.append((i, v * x))
    return sparse_sum(terms)


def coo_diag(values) -> Coo:
    values = np.asarray(values, dtype=np.int64)
    idx = np.arange(values.size)
    return Coo((values.size, values.size), idx, idx, values)


def floor_mod(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m, in [0, m), for an integer array x and a positive int m, as
    x - (x // m) m: numpy divides by a scalar several times faster than it
    takes the remainder."""
    return x - x // m * m


def stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of an integer array: one
    ``np.sort`` of the int64 words (key - min) n + position, n = key.size,
    when they fit, which is far cheaper than a stable argsort."""
    n = key.size
    if not n:
        return np.zeros(0, dtype=np.int64)
    lo = int(key.min())
    if (int(key.max()) - lo + 1) * n >> 63:
        return np.argsort(key, kind="stable")
    return floor_mod(np.sort((key.astype(np.int64) - lo) * n + np.arange(n)), n)


def _key_sums(key: np.ndarray, vals: np.ndarray) -> tuple:
    """The distinct keys of the non-negative int64 ``key``, increasing,
    with the sums of their ``vals``; keys whose values sum to zero are
    dropped.

    Each pair becomes one int64 word (key << b) | (val - min), with 2^b
    above the spread max - min of the values, so a single ``np.sort``
    orders the terms by key and brings their values along.  Words that
    could pass 2^63 - 1 take a stable argsort of the keys instead.  The
    order of the terms of one key cannot change their exact sum.
    """
    if not key.size:
        return key, vals
    lo = int(vals.min())
    bits = (int(vals.max()) - lo).bit_length()
    if (int(key.max()) + 1) << bits > 1 << 63:
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
    else:
        words = key << bits
        words |= vals - lo
        words.sort()
        key = words >> bits
        words &= (1 << bits) - 1
        words += lo
        vals = words
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    if first.size < key.size:
        key, vals = key[first], np.add.reduceat(vals, first)
    keep = vals != 0
    return key[keep], vals[keep]


def coo_from_keys(shape: tuple, key: np.ndarray, vals: np.ndarray) -> Coo:
    """The compressed matrix that sums vals[i] at the position with key
    col * shape[0] + row equal to key[i], for non-negative int64 keys,
    by ``_key_sums``."""
    key, vals = _key_sums(key, vals)
    nrows = max(shape[0], 1)
    cols = key // nrows
    return Coo(shape, key - cols * nrows, cols, vals)


def coo_sum(shape: tuple, *parts: Coo) -> Coo:
    """The compressed sum of matrices of one shape."""
    return coo_from_keys(shape, np.concatenate([p.cols * shape[0] + p.rows for p in parts]),
                         np.concatenate([p.vals for p in parts]))


def gram(parts: list, where: str) -> Coo:
    """The compressed sum of A^T A over the matrices A in ``parts``, which
    share their column count n.

    Stacking the parts makes this one Gram sum, expanded, sorted and
    compressed (Bell, Dalton and Olson 2012): each entry A[r, j] pairs with
    the entries A[r, i] of its row with i < j, giving A[r, i] A[r, j] at
    (i, j); the sum, symmetric, is mirrored from this strict upper triangle,
    and its diagonal is the sum of A[r, j]^2 over each column.
    ``stable_order`` puts the entries in row order, each row by column, so
    the partners of an entry are the ones of its row before itself, and
    then in column order for the expansion.  The entries are taken in
    ``runs``, each costing its number of pairs, and each run is summed by
    ``_key_sums``, so terms of different parts that cancel do so before the
    next run is expanded; a column that spans two runs is summed with the
    rest at the end.  Positions are held as int32 while n and the entry
    count stay below 2^31.  A sum of at most c terms of size at most m^2,
    where c is the largest number of entries of a column and m the largest
    |A[r, i]|, stays below 2^62 when m^2 c does, and so does each partial
    sum of a run; otherwise this raises OverflowError naming ``where``.
    Integer arithmetic throughout.
    """
    n = parts[0].shape[1]
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])
    inner = np.concatenate([p.rows + off for p, off in zip(parts, offsets)])
    if not inner.size:
        return Coo.empty((n, n))
    index = np.int32 if max(n, inner.size) < 1 << 31 else np.int64
    outer = np.concatenate([p.cols for p in parts])
    vals = np.concatenate([p.vals for p in parts])
    big = int(np.abs(vals).max()) ** 2 * int(np.bincount(outer).max())
    if big >= 1 << 62:
        raise OverflowError(f"int64 Gram sum could overflow on {where}")
    order = stable_order(inner * n + outer)
    inner, outer, vals = inner[order], outer[order].astype(index), vals[order]
    starts = np.flatnonzero(np.diff(inner, prepend=-1))
    first = np.repeat(starts.astype(index), np.diff(starts, append=inner.size))
    del inner
    # each entry as the column side: its column, value, and partners first..itself - 1
    order = stable_order(outer)
    col, val, first, m = outer[order], vals[order], first[order], order.astype(index)
    m -= first
    del order
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    diagonal = col[starts] * np.int64(n + 1), np.add.reduceat(val * val, starts)
    keys, values = [], []
    for lo, hi in runs(m):
        count = m[lo:hi]
        partner = (np.arange(int(count.sum()))
                   + np.repeat(first[lo:hi] - (np.cumsum(count) - count), count))
        key, value = _key_sums(np.repeat(col[lo:hi] * np.int64(n), count) + outer[partner],
                               np.repeat(val[lo:hi], count) * vals[partner])
        keys.append(key)
        values.append(value)
    del col, val, first, m, outer, vals
    upper, values = np.concatenate(keys), np.concatenate(values)
    j = upper // n
    i = upper - j * n  # row i < column j
    return coo_from_keys((n, n), np.concatenate((upper, i * n + j, diagonal[0])),
                         np.concatenate((values, values, diagonal[1])))


# ---------------------------------------------------------------------------
# exact elimination

def _bareiss_forward(m: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) forward elimination of integer rows, in place.

    Returns the pivot columns; pivot ``r`` sits in row ``r``, so their
    count is the rank over Q.  Entry c of row r is then the minor on rows
    0..r and the columns of pivots 0..r-1 and c, so pivot r is the minor on
    the pivot columns of rows 0..r.
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
        tail = m[rank][col:]
        pv = tail[0]
        for i in range(rank + 1, nrows):
            mi = m[i]
            f = mi[col]
            # every row below is rescaled, keeping the divisions exact
            if f:
                mi[col:] = [(pv * x - f * y) // prev for x, y in zip(mi[col:], tail)]
            elif pv != prev:
                mi[col:] = [pv * x // prev for x in mi[col:]]
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
    vectors are recovered by back-substitution, one per free column, with
    value 1 at their own free column and 0 at the others.  For the free
    column f, the rows 0..t-1 with pivots left of f form a triangular system
    whose solution x has the denominator d = pivot t-1, their minor on the
    pivot columns (Cramer's rule); so y = d x is solved in integers, each
    division exact, and x = y / d is formed once per entry.
    """
    m = [row[:] for row in dense_rows]
    pivot_cols = _bareiss_forward(m)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(len(m[0])) if c not in pivot_set]
    kernel = []
    for fc in free_cols:
        t = bisect_left(pivot_cols, fc)
        d = m[t - 1][pivot_cols[t - 1]] if t else 1
        y: dict[int, int] = {}
        for row in range(t - 1, -1, -1):
            mr = m[row]
            s = -mr[fc] * d - sum(mr[c] * y[c] for c in pivot_cols[row + 1:t] if c in y)
            if s:
                y[pivot_cols[row]], rest = divmod(s, mr[pivot_cols[row]])
                if rest:
                    raise ArithmeticError("inexact fraction-free back-substitution")
        kernel.append({fc: Fraction(1), **{c: Fraction(v, d) for c, v in y.items()}})
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
# modular elimination (certified one-sided bounds)

def _ranks_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """The rank over GF(p) of each matrix of the int64 stack ``a`` (shape
    (m, r, c), entries in [0, p)), an (m,) array; ``a`` is eliminated in
    place.

    Step j first makes the pivot a[j, j] nonzero where it can: only the
    matrices whose pivot is zero search, each swapping row j and column j
    with the row and column of the first nonzero entry, in row-major order,
    of its trailing block a[j:, j:].  Then, with no search and no row
    gathered, each row i > j becomes pv * (row i) - f * (row j) (mod p) on
    the contiguous trailing block, with pv = a[j, j] and f the entry of row
    i in column j, so products stay below p^2 < 2^63.  Swaps keep the rank,
    and so does the update when pv != 0: it scales row i by pv and clears
    its column-j entry, which no later step reads, so it is not written.
    When pv = 0 the trailing block is zero and stays zero.  The rank is the
    number of nonzero diagonal entries at the end.
    """
    _, r, c = a.shape
    n = min(r, c)
    for j in range(n):
        pv = a[:, j, j]  # a view, so it sees the swaps
        if np.count_nonzero(pv) < pv.size:
            g = np.flatnonzero(pv == 0)
            trail = a[g, j:, j:].reshape(g.size, -1) != 0
            live = trail.any(axis=1)
            g, first = g[live], trail[live].argmax(axis=1)
            row, col = first // (c - j) + j, first % (c - j) + j
            a[g, j], a[g, row] = a[g, row], a[g, j]
            a[g, :, j], a[g, :, col] = a[g, :, col], a[g, :, j]
        if j + 1 < n:
            block = pv[:, None, None] * a[:, j + 1:, j + 1:]
            block -= a[:, j + 1:, j, None] * a[:, j, None, j + 1:]
            a[:, j + 1:, j + 1:] = floor_mod(block, p)
    d = np.arange(n)
    return (a[:, d, d] != 0).sum(axis=1)


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
    order = stable_order(comp)
    local = np.empty_like(comp)
    local[order] = np.arange(comp.size) - (np.cumsum(count) - count)[comp[order]]
    return local


def _level_components(matrix: Coo, shapes):
    """Yield ``(blocks, rows, stack)`` for the connected components of the
    sparsity graph of ``matrix``, whose diagonal blocks have the
    (rows, cols) ``shapes`` in order, for a run of m components of one
    shape (r, c) at a time: the block of each component,
    its r rows of the matrix in increasing order (an (m, r) array), and its
    dense r x c submatrix on those rows and its columns in increasing
    order, with the exact values (an (m, r, c) int64 array).

    The rows and columns are the vertices: each entry [i, j] joins row i to
    column j, and in a square block row i is also joined to column i.
    Components without a row or a column are left out.  Runs follow the
    order of shape, and components in a run the order of their least
    vertex.  A run's m r x c matrices hold at most ``PASS_BUDGET``
    entries, unless one alone needs more (``runs``).
    Raises ValueError when the blocks do not tile the matrix or a component
    crosses two blocks (an entry lies outside them).
    """
    nrows, ncols = (int(n) for n in shapes.sum(axis=0))
    if tuple(matrix.shape) != (nrows, ncols):
        raise ValueError(f"blocks of shape {nrows}x{ncols} do not tile a "
                         f"{matrix.shape[0]}x{matrix.shape[1]} matrix")
    row_block, col_block = (np.repeat(np.arange(len(shapes)), n) for n in shapes.T)
    crossing = np.flatnonzero(row_block[matrix.rows] != col_block[matrix.cols])
    if crossing.size:
        r, c = int(matrix.rows[crossing[0]]), int(matrix.cols[crossing[0]])
        raise ValueError(f"entry ({r}, {c}) joins a component of block {row_block[r]} "
                         f"to one of block {col_block[c]}")
    # vertices: rows 0..nrows-1, then columns nrows..nrows+ncols-1
    diag = np.flatnonzero((shapes[:, 0] == shapes[:, 1])[row_block])
    starts = np.cumsum(shapes, axis=0) - shapes
    diag_col = diag - starts[row_block[diag], 0] + starts[row_block[diag], 1]
    u = np.concatenate((matrix.rows, diag))
    v = nrows + np.concatenate((matrix.cols, diag_col))
    # the components, numbered in order of their least vertex, which is its own label
    labels = _component_labels(nrows + ncols, u, v)
    least = labels == np.arange(labels.size)
    comp = (np.cumsum(least) - 1)[labels]
    count = int(least.sum())
    row_comp, col_comp = comp[:nrows], comp[nrows:]
    row_count = np.bincount(row_comp, minlength=count)
    col_count = np.bincount(col_comp, minlength=count)
    # components in order of shape; their blocks, rows and entries sorted the same way
    order = stable_order(row_count * (ncols + 1) + col_count)
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    comp_block = np.zeros(count, dtype=np.int64)  # read for components with rows only
    comp_block[pos[row_comp]] = row_block
    members = stable_order(pos[row_comp])
    row_first = np.cumsum(row_count[order]) - row_count[order]
    entry_pos = pos[row_comp[matrix.rows]]
    by_pos = stable_order(entry_pos)
    entry_pos = entry_pos[by_pos]
    entry_row = _local_index(row_comp, row_count)[matrix.rows[by_pos]]
    entry_col = _local_index(col_comp, col_count)[matrix.cols[by_pos]]
    entry_val = matrix.vals[by_pos]
    shape_of = np.stack((row_count[order], col_count[order]), axis=1)
    group_starts = np.flatnonzero(np.any(np.diff(shape_of, axis=0, prepend=-1) != 0, axis=1))
    for g0, g1 in zip(group_starts.tolist(), [*group_starts[1:].tolist(), order.size]):
        sr, sc = shape_of[g0].tolist()
        if not sr or not sc:
            continue
        for r0, r1 in runs(np.full(g1 - g0, sr * sc)):
            a, b = g0 + r0, g0 + r1
            lo, hi = np.searchsorted(entry_pos, (a, b))
            stack = np.zeros((b - a, sr, sc), dtype=np.int64)
            stack[entry_pos[lo:hi] - a, entry_row[lo:hi], entry_col[lo:hi]] = entry_val[lo:hi]
            rows = members[row_first[a]:row_first[a] + (b - a) * sr].reshape(b - a, sr)
            yield comp_block[a:b], rows, stack


def level_ranks_mod_p(matrix: Coo, shapes) -> list[int]:
    """The rank over GF(``DEFAULT_PRIME``) of each diagonal block of
    ``matrix``: the blocks have the (rows, cols) ``shapes`` in order and
    ``matrix`` holds no entry outside them.

    Permuting the rows and columns of a block makes it block diagonal over
    its sparsity components (``_level_components``), so its rank is the sum
    of theirs.  Each run of components is eliminated by one
    ``_ranks_mod_p`` pass per stack.  Raises ValueError as
    ``_level_components`` does.
    """
    shapes = np.array(shapes, dtype=np.int64).reshape(-1, 2)
    ranks = np.zeros(len(shapes), dtype=np.int64)
    for blk, _, stack in _level_components(matrix, shapes):
        np.add.at(ranks, blk, _ranks_mod_p(floor_mod(stack, DEFAULT_PRIME), DEFAULT_PRIME))
    return ranks.tolist()


def level_kernels(matrix: Coo, sizes) -> list[list[dict[int, Fraction]]]:
    """The ``fraction_kernel`` of each square diagonal block of ``matrix``,
    of the given ``sizes`` in order, in block-local indices; ``matrix``
    holds no entry outside the blocks.

    One stacked ``_ranks_mod_p`` pass per run of same-size sparsity
    components (``_level_components``) proves the nonsingular ones: a
    component of full rank mod p has full rank over Q, and adds no vector.
    ``fraction_kernel`` runs on the exact dense rows of each other component
    (its indices in increasing order); each vector is mapped back to the
    indices of its block, and each block's vectors are returned in the
    order of their free columns, which are their largest keys.  Raises
    ValueError as ``_level_components`` does.

    This is the reduced kernel basis of each block.  The symmetric
    permutation that groups the components makes the block A block diagonal
    over them, so the rank of A[:, :j] is the sum of the ranks of the
    components' columns left of j, and a column is a pivot (a column where
    that rank grows) exactly when it is one within its own component.  The
    component vector of a free column f, padded with zeros, is then a kernel
    vector of A that is 1 at f, 0 at every other free column and supported
    on pivot columns left of f.  Two such vectors differ by a kernel vector
    supported on pivot columns only, which is zero since the pivot columns
    are independent; so it is the reduced basis vector of f.
    """
    sizes = np.array(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    kernels: list = [[] for _ in sizes]
    for blk, rows, stack in _level_components(matrix, np.stack((sizes, sizes), axis=1)):
        ranks = _ranks_mod_p(floor_mod(stack, DEFAULT_PRIME), DEFAULT_PRIME)
        for c in np.flatnonzero(ranks < stack.shape[1]).tolist():
            b = int(blk[c])
            index = (rows[c] - starts[b]).tolist()
            kernels[b] += [{index[i]: x for i, x in vec.items()}
                           for vec in fraction_kernel(stack[c].tolist())]
    return [sorted(kernel, key=max) for kernel in kernels]


def level_nullities(matrix: Coo, sizes, lams) -> list:
    """The nullity over Q of S - lam I for each lam in ``lams[s]``, or None
    when P_L != 0, with P_j = (S - lam_1 I) ... (S - lam_j I) over the lams
    of S, for each square diagonal block S of ``matrix`` of the given
    ``sizes`` (no entry lies outside them).  Raises ValueError when a lam
    repeats within a block, or as ``_level_components`` does.

    Each run of sparsity components is multiplied through its shifted
    factors as one stack, by I past a component's own lams; tr P_0, ...,
    tr P_{L-1} are summed per block in Python ints and P_L is tested for
    zero.  The stack is int64 when r prod_j max(1, |S_c - lam_j I|) < 2^63
    for each r x r component S_c, with |.| the row-sum norm, which bounds
    every entry, partial sum and trace; else it runs on Python ints.  The
    norms themselves are at most r max|entry| + max|lam|, and are taken in
    int64 when that is below 2^63.

    Distinct lams and P_L = 0 make the minimal polynomial of S square-free,
    so S is diagonalizable over Q with its eigenvalues among the lams, and
    the nullities n_i of S - lam_i I sum to n.  Then tr P_j =
    sum_i n_i prod_{l <= j} (lam_i - lam_l): n_i has the coefficient 0 for
    i <= j and a nonzero one for i = j + 1, so back-substitution gives
    n_L, ..., n_1.  One symmetric permutation makes every S - lam I block
    diagonal over the components of S, so P_j, its trace and its vanishing
    split over them.
    """
    if any(len(set(block_lams)) < len(block_lams) for block_lams in lams):
        raise ValueError("a lam repeats within one block")
    count = np.array([len(block_lams) for block_lams in lams], dtype=np.int64)
    first = np.cumsum(count) - count
    top_lam = max((abs(lam) for block_lams in lams for lam in block_lams), default=0)
    padded = np.zeros((len(lams), int(count.max(initial=0))), dtype=object)  # 0 past a block's lams
    for s, block_lams in enumerate(lams):
        padded[s, :len(block_lams)] = block_lams
    traces = np.zeros(int(count.sum()), dtype=object)
    vanishes = np.ones(len(lams), dtype=bool)
    shapes = np.array([(n, n) for n in sizes], dtype=np.int64).reshape(-1, 2)
    for blk, _, stack in _level_components(matrix, shapes):
        m, r, _ = stack.shape
        depth = int(count[blk].max())
        active = np.arange(depth) < count[blk][:, None]
        wide = r * max(int(stack.max()), -int(stack.min())) + top_lam >= 1 << 63
        entries = stack.astype(object) if wide else stack
        shift = padded[blk, :depth].astype(entries.dtype)
        d = np.arange(r)
        diagonals = entries[:, d, d, None] - shift[:, None, :]  # of each factor
        norms = ((np.abs(entries).sum(axis=2) - np.abs(entries[:, d, d]))[:, :, None]
                 + np.abs(diagonals))
        norms = np.where(active, np.maximum(norms.max(axis=1), 1), 1).astype(object).prod(axis=1)
        if r * max(norms) >= 1 << 63:
            stack = stack.astype(object)
        eye = np.eye(r, dtype=stack.dtype)
        product = np.broadcast_to(eye, stack.shape)
        step = np.zeros((m, depth), dtype=object)
        for j in range(depth):
            step[:, j] = np.trace(product, axis1=1, axis2=2)
            factor = stack.copy()
            factor[:, d, d] = diagonals[:, :, j]
            factor[~active[:, j]] = eye
            product = product @ factor
        np.add.at(traces, (first[blk][:, None] + np.arange(depth))[active], step[active])
        vanishes[blk[product.reshape(m, -1).any(axis=1)]] = False
    return [_trace_nullities(traces[a:a + len(block_lams)].tolist(), block_lams)
            if vanishes[s] else None for s, (a, block_lams) in enumerate(zip(first.tolist(), lams))]


def _trace_nullities(traces: list, lams: list) -> list[int]:
    """The n_i with traces[j] = sum_i n_i prod_{l < j} (lams[i] - lams[l]),
    solved from the last j back."""
    n = [0] * len(lams)
    for j in reversed(range(len(lams))):
        coef = [prod(x - lam for lam in lams[:j]) for x in lams]
        n[j] = (traces[j] - sum(c * x for c, x in zip(coef[j + 1:], n[j + 1:]))) // coef[j]
    return n


def rank_mod_p(matrix: Coo, lams) -> list[int]:
    """The rank of A - lam I over GF(``DEFAULT_PRIME``) for each lam in
    ``lams``: ``level_ranks_mod_p`` on A - lam I as one block.  A nonzero
    lam needs a square matrix."""
    n = matrix.shape[0]
    if any(lams) and n != matrix.shape[1]:
        raise ValueError("shift needs a square matrix")
    return [level_ranks_mod_p(coo_sum(matrix.shape, matrix,
                                      coo_diag(np.full(n, -(lam % DEFAULT_PRIME)))),
                              [matrix.shape])[0] for lam in lams]


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
