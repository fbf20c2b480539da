"""Exact sparse integer matrices and the elimination routines used on them.

Matrices are stored column major (one dict per column), which matches how
operator matrices are assembled from chain images.  Ranks and kernels are
exact: fraction-free (Bareiss) elimination over the integers for ranks, and
the division-free Berkowitz algorithm for characteristic polynomials.
Elimination modulo one word-size prime (numpy) serves twice.  The modular
rank is a certified one-sided bound: rank over GF(p) never exceeds the
rational rank.  ``modular_kernel`` lifts the echelon kernel basis mod p to Q
by rational reconstruction and checks every vector exactly, falling back to
``fraction_kernel`` (Bareiss, then rational back-substitution) when a lift
or a check fails; its docstring gives the argument that both routes return
the same basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

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

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    # -- inspection ---------------------------------------------------
    def entry(self, i: int, j: int) -> int:
        return self.columns[j].get(i, 0)

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

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, s: int) -> "IntMatrix":
        if s == 0:
            return IntMatrix.zero(self.rows, self.cols)
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

    def shifted(self, lam: int) -> "IntMatrix":
        """self - lam * I (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("shift needs a square matrix")
        if lam == 0:
            return self
        cols = []
        for j, col in enumerate(self.columns):
            c = dict(col)
            add_scaled(c, {j: 1}, -lam)
            cols.append(c)
        return IntMatrix(self.rows, self.cols, cols)

    # -- conversions ----------------------------------------------------
    def to_dense_rows(self) -> list[list[int]]:
        rows = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def to_numpy_mod(self, p: int) -> np.ndarray:
        a = np.zeros((self.rows, self.cols), dtype=np.int64)
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                a[i, j] = v % p
        return a


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


def fraction_kernel(matrix: IntMatrix) -> list[dict[int, Fraction]]:
    """Exact kernel basis in reduced echelon form, deterministic.

    Forward elimination is fraction-free over the integers; the kernel
    vectors are recovered by rational back-substitution, one per free
    column, with value 1 at their own free column and 0 at the others.
    """
    m = matrix.to_dense_rows()
    pivot_cols = _bareiss_forward(m)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_set]
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


def exact_nullity(matrix: IntMatrix, lam: int = 0) -> int:
    shifted = matrix.shifted(lam) if lam else matrix
    return matrix.cols - bareiss_rank(shifted.to_dense_rows())


# ---------------------------------------------------------------------------
# modular elimination (certified one-sided bounds, and kernels checked over Q)

def _echelon_mod_p(a: np.ndarray, p: int) -> list[int]:
    """Forward elimination of the int64 array ``a`` (entries in [0, p)) over
    GF(p), in place.

    Returns the pivot columns; pivot ``r`` sits in row ``r`` and is scaled
    to 1, every entry below a pivot is 0 and each row is 0 left of its pivot.
    """
    nrows, ncols = a.shape
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank, col:] = (a[rank, col:] * inv) % p
        below = a[rank + 1:, col]
        mask = below != 0
        if mask.any():
            a[rank + 1:, col:][mask] = (
                a[rank + 1:, col:][mask] - np.outer(below[mask], a[rank, col:])
            ) % p
        pivots.append(col)
    return pivots


def rank_mod_p(matrix: IntMatrix, lam: int = 0, p: int = DEFAULT_PRIME) -> int:
    shifted = matrix.shifted(lam) if lam else matrix
    return len(_echelon_mod_p(shifted.to_numpy_mod(p), p))


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


def modular_kernel(matrix: IntMatrix) -> list[dict[int, Fraction]]:
    """The kernel basis of ``fraction_kernel``, found mod p and lifted to Q.

    The matrix is reduced mod ``DEFAULT_PRIME``, brought to echelon form by
    the forward pass of ``rank_mod_p`` and back-substituted over the pivot
    rows.  Each free column f gives the vector that is 1 at f, 0 at the
    other free columns and supported on the pivot columns left of f; its
    entries are lifted by rational reconstruction with |num|, den <=
    isqrt(p // 2), and it is checked to lie in the kernel exactly, over the
    integers after clearing denominators.  If any lift or check fails the
    result is ``fraction_kernel(matrix)``.

    When every check passes the result equals ``fraction_kernel(matrix)``:

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
    a = matrix.to_numpy_mod(p)
    pivots = _echelon_mod_p(a, p)
    pivot_set = set(pivots)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_set]
    if not free_cols:
        return []
    # reduce the pivot rows on the free columns only: rows i' < i lose their
    # multiple of row i, from the last pivot up
    reduced = a[:len(pivots), free_cols]
    for i in range(len(pivots) - 1, 0, -1):
        above = a[:i, pivots[i]]
        mask = above != 0
        if mask.any():
            reduced[:i][mask] = (
                reduced[:i][mask] - np.outer(above[mask], reduced[i])) % p
    bound = isqrt(p // 2)
    kernel = []
    for j, fc in enumerate(free_cols):
        vec: dict[int, Fraction] = {fc: Fraction(1)}
        for i, pc in enumerate(pivots):
            residue = -int(reduced[i, j]) % p
            if not residue:
                continue
            value = _rational_reconstruction(residue, p, bound)
            if value is None:
                return fraction_kernel(matrix)
            vec[pc] = value
        den = lcm(*(v.denominator for v in vec.values()))
        if matrix.apply({c: v.numerator * (den // v.denominator)
                         for c, v in vec.items()}):
            return fraction_kernel(matrix)
        kernel.append(vec)
    return kernel


def nullity_mod_p(matrix: IntMatrix, lam: int = 0, p: int = DEFAULT_PRIME) -> int:
    """n - rank over GF(p); an upper bound on the rational nullity."""
    return matrix.cols - rank_mod_p(matrix, lam, p)


def certify_full_rank(matrix: IntMatrix, lam: int = 0) -> bool:
    """True when the rational kernel of (A - lam I) is provably trivial.

    A full modular rank is conclusive; a modular rank deficit is not, so the
    caller must fall back to exact elimination in that case.
    """
    return rank_mod_p(matrix, lam, DEFAULT_PRIME) == matrix.cols


# ---------------------------------------------------------------------------
# characteristic polynomials

def berkowitz_charpoly(matrix: IntMatrix) -> list[int]:
    """Characteristic polynomial det(tI - A), division-free.

    Returns coefficients ascending in t, so the leading entry (for t^n) is 1.
    """
    a = matrix.to_dense_rows()
    n = matrix.rows
    if n != matrix.cols:
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


def gershgorin_bound(matrix: IntMatrix) -> int:
    """Upper bound on the absolute value of any eigenvalue."""
    sums: dict[int, int] = {}
    for col in matrix.columns:
        for i, v in col.items():
            sums[i] = sums.get(i, 0) + abs(v)
    return max(sums.values(), default=0)
