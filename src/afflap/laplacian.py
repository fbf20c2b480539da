"""The graded Laplacian of L(k): constructions, exact spectra, homology.

Gamma = d delta + delta d keeps the chain dimension q, the weight w and the
degree h.  Its matrices are built one (q, h) level at a time, as int64
coordinate arrays over the level's monomial array (``chains.Level``): D_q,
the matrix of the differential from level q to level q-1, the
codifferential and Gamma keep w, so their level matrices are block
diagonal over the (q, w) slices, and e_{+-1} shift w by exactly one.
Each walk builds the levels of its block once (``block_levels``), from
the monomial arrays of its enumeration, each slice a row range
``bounds[w]``, and passes the same ``Level`` to ``_gamma_levels``, which
forms D_q^T D_q + D_{q+1} D_{q+1}^T on it as one ``linalg.gram``, to
``sl2.sl2_level`` and to the certificate; a spectrum is one table of
(q, w, lambda) cells.  Only the oracle paths build a ``BlockBasis`` per
slice: ``laplacian_slices`` cuts Gamma into slice blocks, and
``laplacian_by_definition`` scatters those onto a basis.
``laplacian_closed_apply`` evaluates the paper's second-order closed form
monomial by monomial, and its matrix ``laplacian_closed_form`` is the
oracle the slices are tested against.  The arrays stay exact: no floating
point is used, ``gram`` raises before a sum could pass 2^62, and ``Level``
before a colex key could leave its table or int64, each naming k, h and q.

Spectra are exact.  Every (q, w) slice passes these exact integer checks
in order, level by level: check 1 in ``_gamma_levels``, then the others in
``_certify_level``; a failure raises ClaimFalsified.  For k in {0, 1}
Gamma is the scalar ``predicted_eigenvalue(k, w, h)`` on the slice, and
check 6 with that one lambda, prod (Gamma - lambda I) = Gamma - lambda I = 0,
is exactly that law; checks 2-5 are for k in {-1, 2}.
Checks 1-4 are statements about one slice.  Each is checked on a whole
level at once, which checks it on every slice of the level, since the level
matrices are block diagonal over the slices (E_1 sends each slice into the
next); a failure names the k, h, q and w of the slice of the first failing
column:

1. the matrix of the codifferential, built on its own by its splitting
   rule, equals D_q^T;
2. E_w, the matrix of the adjoint e_1 from the (q, w) slice, lands in the
   (q, w+1) slice, and the matrix of e_{-1}, built on its own by its image
   rule, equals E_w^T, so it lands in the (q, w-1) slice;
3. E_{w-1} E_{w-1}^T - E_w^T E_w = w I, which is [e_1, e_{-1}] = e_0 (the
   grading gives the e_0 relations), so the block is a finite-dimensional
   sl2-module and the Casimir C acts by w'(w'+1) on its isotypic piece of
   dominant weight w' (checks 2-3 and E_w come from ``sl2.sl2_level``);
4. 2 Gamma = 2h I + C for k = -1 and 2h I - C for k = 2, with
   C = E_w^T E_w + w^2 I + E_{w-1} E_{w-1}^T: the paper's closed form, so
   Gamma acts on that piece by h +- w'(w'+1)/2;
5. the piece of dominant weight w' >= |w| occurs dim(q, w') - dim(q, w'+1)
   times in the slice, with an eigenvalue that must be non-negative; an
   sl2-module has non-negative counts that fill the slice, and check 6
   proves that again;
6. each predicted multiplicity m_lambda equals the nullity of Gamma - lambda
   on the slice: one ``level_nullities`` call per level proves
   prod (Gamma - lambda I) = 0 over each slice's distinct lambdas, so Gamma
   is diagonalizable there with its eigenvalues among them and the
   nullities fill the slice, and reads every nullity exactly from the
   traces of the prefix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .chains import (
    BlockBasis,
    Chain,
    Level,
    add_chains,
    adjoint_action,
    block_levels,
    codifferential,
    codifferential_transpose_coo,
    conjugate_action,
    differential,
    differential_coo,
    matrix_of,
    raising_action,
    scale_chain,
    slices,
    weight,
)
from .generators import epsilon
from .linalg import (
    Coo,
    IntMatrix,
    berkowitz_charpoly,
    column_image,
    coo_diag,
    coo_from_keys,
    coo_sum,
    exact_nullity,
    gershgorin_bound,
    gram,
    level_kernels,
    level_nullities,
    nullity_mod_p,  # noqa: F401  (perfbench/tracer.py wraps it here)
    sparse_sum,
    strip_integer_roots,
)
from .sl2 import ClaimFalsified, require_equal, sl2_level

# ---------------------------------------------------------------------------
# the two constructions, as chain operators

def laplacian_apply(k: int, chain: Chain) -> Chain:
    """d(delta(c)) + delta(d(c)), exactly."""
    return add_chains(differential(k, codifferential(k, chain)),
                      codifferential(k, differential(k, chain)))


def _grading_term(chain: Chain) -> Chain:
    from .chains import degree

    return {m: c * h for m, c in chain.items() if (h := degree(m))}


def _weight_poly_term(chain: Chain, sq: int, lin: int) -> Chain:
    """(sq * e_0^2 + lin * e_0)(c) for diagonal integer coefficients."""
    out: Chain = {}
    for m, c in chain.items():
        w = weight(m)
        f = sq * w * w + lin * w
        if f:
            out[m] = c * f
    return out


def laplacian_closed_apply(k: int, chain: Chain) -> Chain:
    """Closed-form Laplacian as an operator; equals laplacian_apply.

    For k >= 1 this is the second-order expression
    ``p + (eps(k+1)^2 e_0 - e_0^2 - sum_{r=1}^{k-1} (e_{-r} e_r + e_r e_{-r})) / 2``
    with the conjugate actions truncated below k.  For k = 0 and k = -1
    the same shape holds with the genuine sl2 actions:
    ``p + (e_0^2 + e_0)/2`` and ``p + (e_{-1}e_1 + e_0^2 + e_1 e_{-1})/2``.
    """
    if k < -1:
        raise ValueError(f"closed form defined for k >= -1, got k={k}")
    twice = _closed_apply_twice(k, chain)
    out: Chain = {}
    for m, c in twice.items():
        if isinstance(c, int) and c % 2 == 0:
            out[m] = c // 2
        else:
            out[m] = c * Fraction(1, 2)
    return out


def _closed_apply_twice(k: int, chain: Chain) -> Chain:
    """2 * closed-form Laplacian, kept in integer arithmetic."""
    p2 = scale_chain(_grading_term(chain), 2)
    if k == -1:
        up = adjoint_action(1, chain, k)
        down = adjoint_action(-1, chain, k)
        return add_chains(p2, adjoint_action(-1, up, k),
                          adjoint_action(1, down, k),
                          _weight_poly_term(chain, 1, 0))
    if k == 0:
        return add_chains(p2, _weight_poly_term(chain, 1, 1))
    parts = [p2, _weight_poly_term(chain, -1, epsilon(k + 1) ** 2)]
    for r in range(1, k):
        parts.append(scale_chain(conjugate_action(r, raising_action(r, chain, k), k), -1))
        parts.append(scale_chain(raising_action(r, conjugate_action(r, chain, k), k), -1))
    return add_chains(*parts)


def _gamma_levels(k: int, h: int, by_q: dict):
    """Yield ``(level, gamma)`` for the levels ``by_q`` of the degree-h
    block (its ``block_levels``) in increasing q: gamma is
    D_q^T D_q + D_{q+1} D_{q+1}^T on the whole level, one
    ``gram`` over the stacked D_q and D_{q+1}^T.  Each D_q is built once and
    compared with the matrix of the codifferential from level q-1, built on
    its own by its splitting rule and transposed into the orientation of
    D_q: the two must be equal (``require_equal``), or ClaimFalsified names
    the (q, w) of the first column of their difference.
    """

    def boundary(q: int) -> Coo:
        src = by_q.get(q) or Level(k, h, q)
        if not q:
            return Coo.empty((0, len(src)))
        tgt = by_q.get(q - 1) or Level(k, h, q - 1)
        d = differential_coo(k, src, tgt)
        require_equal(d, codifferential_transpose_coo(k, tgt, src), src.weights,
                      f"codifferential is not the transpose of the differential on "
                      f"k={k}, h={h}, q={q}")
        return d

    upper: dict = {}  # q + 1 -> D_{q+1}, kept for that level
    for q, level in by_q.items():
        d = upper.pop(q, None) or boundary(q)
        u = upper[q + 1] = boundary(q + 1)
        gamma = gram([d, u.T], f"k={k}, h={h}, q={q}")
        del d  # not held while the consumer works on the level
        yield level, gamma


def laplacian_slices(k: int, h: int):
    """Yield ``(q, w, basis, gamma)`` for the (q, w) slices of the degree-h
    block in sorted order.

    ``gamma`` is the slice block D_q^T D_q + D_{q+1} D_{q+1}^T of
    Gamma = d delta + delta d, with D_q the matrix of the differential from
    the (q, w) slice to the (q-1, w) slice, cut from the level matrices of
    ``_gamma_levels`` (check 1 runs there).
    """
    for level, gamma in _gamma_levels(k, h, block_levels(k, h)):
        for w, (a, b) in level.bounds.items():
            basis = BlockBasis(k, h, map(tuple, level.monos[a:b].tolist()), w=w)
            yield level.q, w, basis, gamma.block(a, b, a, b)


def _whole_slices(k: int, basis: BlockBasis):
    """Yield ``(q, part, whole, gamma)`` for each of the ``slices`` of
    ``basis``, in the order of ``laplacian_slices`` of the degree
    ``basis.h`` block, which gives the whole slice and its Gamma.  Each part
    is checked to be a whole (q, w) slice of the block; raises ValueError,
    after the walk, for the first part that is not."""
    parts = slices(basis)
    for q, w, whole, gamma in laplacian_slices(k, basis.h):
        part = parts.get((q, w))
        if part is not None and sorted(part.monomials) == list(whole.monomials):
            del parts[(q, w)]
            yield q, part, whole, gamma
    if parts:
        raise ValueError(f"basis splits the (q, w) = {next(iter(parts))} slice of the "
                         f"(k={k}, h={basis.h}) block")


def laplacian_by_definition(k: int, basis: BlockBasis) -> IntMatrix:
    """Matrix of Gamma = d delta + delta d on a union of whole (q, w) slices:
    the ``laplacian_slices`` of the degree ``basis.h`` block, scattered to
    the positions of ``basis``, as the oracle type ``IntMatrix``.

    Raises ValueError when ``basis`` holds part of a (q, w) slice but not all
    of it, or a monomial outside the degree ``basis.h`` block, and
    ClaimFalsified when a codifferential matrix is not D_q^T.
    """
    columns: list = [{} for _ in range(basis.dim)]
    for _, _, whole, gamma in _whole_slices(k, basis):
        pos = [basis.index[m] for m in whole.monomials]
        for i, j, v in zip(gamma.rows.tolist(), gamma.cols.tolist(), gamma.vals.tolist()):
            columns[pos[j]][pos[i]] = v
    return IntMatrix(basis.dim, basis.dim, columns)


def laplacian_closed_form(k: int, basis: BlockBasis) -> IntMatrix:
    return matrix_of(lambda c: laplacian_closed_apply(k, c), basis, basis)


# ---------------------------------------------------------------------------
# the one- and two-dimensional case tables

def one_dim_eigenvalue(k: int, a: int) -> int:
    """Eigenvalue of the Laplacian on the single generator e_a, k >= 1."""
    if k < 1:
        raise ValueError("the floor formula applies for k >= 1")
    if a < k:
        raise ValueError(f"e_{a} does not belong to L({k})")
    if a >= 2 * k - 2:
        return (a - 2 * k + 2) // 3
    return 0


def two_dim_pairing_oracle(k: int, pair1: tuple[int, int], pair2: tuple[int, int]) -> int:
    """Matrix entry of the Laplacian between two 2-monomials, by case table.

    Independent of both constructions; used only as an oracle against them.
    """
    a, b = pair1
    x, y = pair2
    if k < 1:
        raise ValueError("the case table applies for k >= 1")
    if not (a < b and x < y and min(a, x) >= k):
        raise ValueError("expects increasing pairs inside L(k)")
    if a + b != x + y:
        raise ValueError("pairs in different blocks: a+b != x+y")
    if (x, y) == (a, b):
        if b - a >= k:
            return one_dim_eigenvalue(k, a) + one_dim_eigenvalue(k, b) - epsilon(a) * epsilon(b)
        return one_dim_eigenvalue(k, a) + one_dim_eigenvalue(k, b) + epsilon(a - b) ** 2
    if (0 < x - a < k <= y - a) or (0 < a - x < k <= b - x):
        return -epsilon(a + x) * epsilon(b + y)
    if (a < x and y - a < k) or (x < a and b - x < k):
        return epsilon(b - a) * epsilon(y - x)
    return 0


# ---------------------------------------------------------------------------
# eigenvalue laws

def predicted_eigenvalue(k: int, w: int, h: int) -> int:
    """Predicted Laplacian eigenvalue; w is a monomial weight for k in {0, 1}
    and a dominant weight for k in {-1, 2}.  Triangular numbers of integers
    are integers, so the value is exact."""
    if k == 0:
        return h + w * (w + 1) // 2
    if k == 1:
        return h - w * (w - 1) // 2
    if k in (-1, 2):
        # lambda = h - (-1)^k w(w+1)/2: plus for k = -1, minus for k = 2
        sign = 1 if k % 2 else -1
        return h + sign * w * (w + 1) // 2
    raise ValueError(f"no closed eigenvalue law for k={k}")


# ---------------------------------------------------------------------------
# spectrum

@dataclass
class SpectrumResult:
    k: int
    h: int
    dim: int
    # (q, w, lambda) -> multiplicity: w is the monomial weight of a scalar
    # slice for k in {0, 1}, the dominant weight of an isotypic piece for
    # k in {-1, 2}, summed over the slices where that piece occurs
    cells: dict
    exact_slices: int = 0  # (slice, lambda) pairs proved by check 6
    modular_slices: int = 0  # always 0, kept for perfbench/tracer.py
    residual_checked: int = 0  # slices whose residual product vanishes

    @property
    def lines(self) -> list:
        """(lambda, multiplicity) pairs summed over q and w, sorted."""
        return sorted(sparse_sum((lam, m) for (_, _, lam), m in self.cells.items()).items())


def _certify_level(k: int, h: int, level: Level, gamma: Coo, result: SpectrumResult) -> None:
    """Certify and record the spectrum of Gamma on every slice of a level.

    Each slice predicts its (w, lambda, multiplicity) records, which are
    added to ``result.cells``.  For k in {0, 1} a slice of weight w predicts
    the one eigenvalue ``predicted_eigenvalue(k, w, h)`` on all of it.  For
    k in {-1, 2} checks 2-3 run in ``sl2_level``, then 4, and check 5
    predicts one record per isotypic piece from the level's weight counts.
    Then every slice passes check 6, in one ``level_nullities`` call: the
    nullities are never negative, fill the slice and equal the predicted
    counts, so the counts are non-negative and fill it too.
    """
    q, n = level.q, len(level)
    dims = {w: b - a for w, (a, b) in level.bounds.items()}
    if k in (0, 1):
        predicted = []
        for w, dim in dims.items():
            lam = predicted_eigenvalue(k, w, h)
            if lam < 0:
                raise ClaimFalsified(
                    f"negative predicted eigenvalue at k={k}, (q,w,h)=({q},{w},{h})")
            predicted.append([(w, lam, dim)])
    else:
        sign = 1 if k == -1 else -1
        casimir = sl2_level(k, level)[1]
        require_equal(gamma.scaled(2),
                      coo_sum((n, n), coo_diag(np.full(n, 2 * h)), casimir.scaled(sign)),
                      level.weights,
                      f"2 Gamma != 2h I {'+' if sign > 0 else '-'} C on k={k}, h={h}, q={q}")
        del casimir  # not held through checks 5 and 6
        pieces = []  # (w', eigenvalue, multiplicity) of the pieces that occur, by increasing w'
        for wp in reversed(range(max(map(abs, dims)) + 1)):
            m_pred = dims.get(wp, 0) - dims.get(wp + 1, 0)
            if m_pred:
                lam = predicted_eigenvalue(k, wp, h)
                if lam < 0:
                    raise ClaimFalsified(f"negative predicted eigenvalue at k={k}, h={h}, w'={wp}")
                pieces.insert(0, (wp, lam, m_pred))
        predicted = [[(wp, lam, m) for wp, lam, m in pieces if wp >= abs(w)] for w in dims]
    expected = []
    for records in predicted:
        want: dict[int, int] = {}
        for wp, lam, m_pred in records:
            want[lam] = want.get(lam, 0) + m_pred
            result.cells[q, wp, lam] = result.cells.get((q, wp, lam), 0) + m_pred
        expected.append(dict(sorted(want.items())))
    nullities = level_nullities(gamma, list(dims.values()), [list(want) for want in expected])
    for w, want, found in zip(dims, expected, nullities):
        if found is None:
            raise ClaimFalsified(
                f"residual product does not annihilate k={k}, h={h}, q={q}, w={w}")
        for (lam, m_pred), nullity in zip(want.items(), found):
            if nullity != m_pred:
                raise ClaimFalsified(f"eigenvalue {lam} on k={k}, h={h}, q={q}, w={w}: "
                                     f"nullity {nullity}, predicted {m_pred}")
        result.exact_slices += len(want)
        result.residual_checked += 1


def spectrum(k: int, h: int) -> SpectrumResult:
    """Complete exact spectral decomposition of the degree-h block.

    Raises ClaimFalsified when the predicted eigenvalues fail to exhaust a
    slice or any certified multiplicity disagrees with its prediction.
    """
    if k not in (-1, 0, 1, 2):
        raise ValueError("exact spectra are provided for k in {-1, 0, 1, 2}")
    by_q = block_levels(k, h)
    result = SpectrumResult(k=k, h=h, dim=sum(map(len, by_q.values())), cells={})
    for level, gamma in _gamma_levels(k, h, by_q):
        _certify_level(k, h, level, gamma, result)
    return result


# ---------------------------------------------------------------------------
# harmonic chains and homology

def _kernel_chains(k: int, h: int, q: int, w: int, monomials, gamma: Coo,
                   kernel: list) -> list[Chain]:
    """The vectors ``kernel`` of the (q, w, h) slice matrix ``gamma`` on the
    basis ``monomials``, as chains.  Each vector v is checked to satisfy
    Gamma v = 0 exactly, as Gamma (c v) = 0 in integers, with c the least
    common multiple of its denominators; a failure raises ClaimFalsified
    naming k, h, q and w."""
    columns = gamma.columns()
    chains = []
    for vec in kernel:
        scale = lcm(*(x.denominator for x in vec.values()))
        if column_image(columns, {i: x.numerator * (scale // x.denominator)
                                  for i, x in vec.items()}):
            raise ClaimFalsified(f"kernel vector is not annihilated by Gamma on "
                                 f"k={k}, h={h}, q={q}, w={w}")
        chains.append({monomials[i]: c for i, c in sorted(vec.items())})
    return chains


def harmonic_basis(k: int, basis: BlockBasis) -> list[Chain]:
    """Exact basis of the Laplacian kernel on a union of whole (q, w) slices,
    echelon-normalized: the ``level_kernels`` of each slice in the order
    of ``basis``, with the vectors in the order of their free monomials.

    Gamma is block diagonal over the slices, so this is the reduced kernel
    basis of the whole matrix.  Raises ValueError as
    ``laplacian_by_definition`` does, and ClaimFalsified as
    ``_kernel_chains`` does.
    """
    chains = []
    for q, part, whole, gamma in _whole_slices(k, basis):
        pos = np.array([part.index[m] for m in whole.monomials], dtype=np.int64)
        in_part = coo_from_keys(gamma.shape, pos[gamma.cols] * part.dim + pos[gamma.rows],
                                gamma.vals)
        chains += _kernel_chains(k, basis.h, q, part.w, part.monomials, in_part,
                                 level_kernels(in_part, [part.dim])[0])
    # a reduced kernel vector ends on its free monomial
    return sorted(chains, key=lambda chain: basis.index[next(reversed(chain))])


@dataclass
class HomologyTable:
    k: int
    h_max: int
    entries: dict  # (q, w, h) -> dim, only nonzero
    chains: dict   # (q, w, h) -> list of Chain, the reduced kernel basis of each entry
    matches_closed_form: bool
    deviations: list


def expected_homology(k: int, h_max: int) -> dict:
    """Nonzero homology dimensions (q, w, h) -> dim predicted by the closed
    forms, restricted to h <= h_max.  The empty monomial spans degree zero."""
    out = {(0, 0, 0): 1}
    if k == 0:
        out[(1, 0, 0)] = 1
    elif k == 1:
        q = 1
        while True:
            hp = q * (q - 1) // 2
            hm = q * (q + 1) // 2
            if hp > h_max and hm > h_max:
                break
            if hp <= h_max:
                out[(q, q, hp)] = 1
            if hm <= h_max:
                out[(q, -q, hm)] = 1
            q += 1
    elif k == -1:
        out[(3, 0, 0)] = 1
    elif k == 2:
        q = 1
        while q * (q + 1) // 2 <= h_max:
            h = q * (q + 1) // 2
            for w in range(-q, q + 1):
                out[(q, w, h)] = 1
            q += 1
    else:
        raise ValueError("closed homology forms exist for k in {-1, 0, 1, 2}")
    return out


def closed_form_deviations(k: int, entries: dict, h_min: int, h_max: int) -> list:
    """``((q, w, h), computed, expected)`` for every (q, w, h) with
    h_min <= h <= h_max where the computed dimensions ``entries`` and
    ``expected_homology`` differ, sorted by (q, w, h)."""
    expected = expected_homology(k, h_max)
    deviations = []
    for key in sorted(set(entries) | set(expected)):
        got, want = entries.get(key, 0), expected.get(key, 0)
        if key[2] >= h_min and got != want:
            deviations.append((key, got, want))
    return deviations


def homology_table(k: int, h_max: int, h_min: int = 0) -> HomologyTable:
    """Exact harmonic dimensions for all blocks with h_min <= h <= h_max.

    Every (q, w, h) slice is certified by one ``level_kernels`` call per
    level: a sparsity component of full modular rank has a trivial kernel,
    and the kernel of every other component is found exactly.
    ``_kernel_chains`` checks each vector on its slice.
    """
    if k not in (-1, 0, 1, 2):
        raise ValueError("homology tables are provided for k in {-1, 0, 1, 2}")
    chains: dict = {}
    for h in range(h_min, h_max + 1):
        for level, gamma in _gamma_levels(k, h, block_levels(k, h)):
            kernels = level_kernels(gamma, [b - a for a, b in level.bounds.values()])
            for (w, (a, b)), kernel in zip(level.bounds.items(), kernels):
                if kernel:
                    chains[level.q, w, h] = _kernel_chains(
                        k, h, level.q, w, list(map(tuple, level.monos[a:b].tolist())),
                        gamma.block(a, b, a, b), kernel)
    entries = {key: len(kernel) for key, kernel in chains.items()}
    deviations = closed_form_deviations(k, entries, h_min, h_max)
    return HomologyTable(k=k, h_max=h_max, entries=entries, chains=chains,
                         matches_closed_form=not deviations, deviations=deviations)


# ---------------------------------------------------------------------------
# explicit harmonic families

def staircase_chain(start: int, q: int) -> Chain:
    """The monomial e_start ^ e_{start+3} ^ ... with q factors."""
    return {tuple(start + 3 * i for i in range(q)): 1} if q else {(): 1}


def lowering_orbit(q: int, r: int) -> Chain:
    """r-fold lowering of the top harmonic monomial of L(2) in dimension q."""
    c = staircase_chain(4, q)
    for _ in range(r):
        c = adjoint_action(-1, c, 2)
    return c


# ---------------------------------------------------------------------------
# characteristic polynomials and the k > 2 spot check

def characteristic_polynomial(k: int, basis: BlockBasis) -> list[int]:
    """Exact characteristic polynomial (ascending coefficients) of the
    Laplacian on the block."""
    return berkowitz_charpoly(laplacian_by_definition(k, basis).to_dense_rows())


@dataclass(frozen=True)
class IrrationalFinding:
    k: int
    h: int
    q: int
    w: int
    dim: int
    factor: tuple  # ascending integer coefficients, no rational roots
    charpoly: tuple


def find_irrational_spectrum(k: int, h_max: int) -> IrrationalFinding | None:
    """Search the blocks of L(k) for a non-integral Laplacian eigenvalue.

    The Laplacian is symmetric positive semidefinite with a monic integer
    characteristic polynomial, so any rational eigenvalue is a non-negative
    integer.  A slice whose integer eigenspaces do not fill it therefore has
    an irrational eigenvalue; the certificate is the non-linear factor left
    after stripping the integer roots of its characteristic polynomial.
    """
    for h in range(1, h_max + 1):
        for q, w, basis, gamma in laplacian_slices(k, h):
            n = basis.dim
            bound = gershgorin_bound(gamma)
            total = 0
            for lam in range(bound + 1):
                total += exact_nullity(gamma, lam)
                if total == n:
                    break
            if total == n:
                continue
            poly = berkowitz_charpoly(gamma.dense().tolist())
            _, remainder = strip_integer_roots(poly, bound)
            if len(remainder) < 3:
                raise ClaimFalsified(
                    f"irrational detection inconsistent at k={k}, h={h}, q={q}, w={w}")
            return IrrationalFinding(k=k, h=h, q=q, w=w, dim=n,
                                     factor=tuple(remainder), charpoly=tuple(poly))
    return None
