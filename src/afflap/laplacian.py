"""The graded Laplacian of L(k): constructions, exact spectra, homology.

Gamma = d delta + delta d keeps the chain dimension q, the weight w and the
degree h.  Its matrices are built one (q, h) level at a time, as int64
coordinate arrays over the level's monomial array (``chains.Level``): D_q,
the matrix of the differential from level q to level q-1, the
codifferential and Gamma keep w, so their level matrices are block
diagonal over the (q, w) slices, and e_{+-1} shift w by exactly one.
``_gamma_levels`` forms D_q^T D_q + D_{q+1} D_{q+1}^T on a level as one
``linalg.gram``; ``laplacian_slices`` cuts it into the slice blocks that
are decomposed one at a time, and ``laplacian_by_definition`` scatters
those onto a basis.  ``laplacian_closed_apply`` evaluates the paper's
second-order closed form monomial by monomial, and its matrix
``laplacian_closed_form`` is the oracle the slices are tested against.
The arrays stay exact: no floating point is used, ``gram`` raises before a
sum could pass 2^62, and ``Level`` before an index overflows its key, each
naming k, h and q.

Spectra are exact.  For k in {0, 1} Gamma is scalar on every slice, and
each level of Gamma is compared entrywise with the diagonal matrix of its
slices' scalars.  For k in {-1, 2} every (q, w) slice passes these exact
integer checks in order; a failure raises ClaimFalsified.
Checks 1-4 are statements about one slice.  Each is checked on a whole
level at once, which checks it on every slice of the level, since the level
matrices are block diagonal over the slices (E_1 sends each slice into the
next); a failure names the k, h, q and w of the slice of the first failing
column:

1. the matrix of the codifferential, built on its own by its splitting
   rule, equals D_q^T;
2. E_w, the matrix of the adjoint e_1 from the (q, w) slice, lands in the
   (q, w+1) slice, and the matrix of e_{-1}, built on its own by its image
   rule, equals E_w^T;
3. E_{w-1} E_{w-1}^T - E_w^T E_w = w I, which is [e_1, e_{-1}] = e_0 (the
   grading gives the e_0 relations), so the block is a finite-dimensional
   sl2-module and the Casimir C acts by w'(w'+1) on its isotypic piece of
   dominant weight w' (checks 2-3 and E_w come from ``sl2.sl2_levels``);
4. 2 Gamma = 2h I + C for k = -1 and 2h I - C for k = 2, with
   C = E_w^T E_w + w^2 I + E_{w-1} E_{w-1}^T: the paper's closed form, so
   Gamma acts on that piece by h +- w'(w'+1)/2;
5. the piece of dominant weight w' >= |w| occurs dim(q, w') - dim(q, w'+1)
   times in the slice; these weight counts must be non-negative and fill it;
6. each predicted multiplicity m_lambda equals the nullity of Gamma - lambda
   on the slice.  One ``level_ranks_mod_p`` call gives the rank mod p of
   Gamma - lambda for every lambda of every slice of a level.  Gamma -
   lambda has the same sparsity components for every lambda, since row i
   is joined to column i; they never cross a slice, since the level matrix
   is block diagonal over the slices; and permuting rows and columns makes
   it block diagonal over them, so its rank mod p on a slice is the sum of
   the ranks of the slice's shifted components.  A fraction-free step
   replaces a row r by pv r - f s, with s the pivot row and pv != 0 mod p:
   an invertible row operation over GF(p), so the rank mod p is kept.  The
   rank mod p never exceeds the rank over Q, so each modular nullity
   null_p bounds null_Q from above; where it differs from m_lambda,
   fraction-free elimination decides exactly.  On slices of dimension at
   most ``EXACT_NULLITY_CUT`` the residual product prod (Gamma - lambda I)
   over the slice's distinct lambdas is also checked to be zero, exactly,
   and that makes every nullity exact:
   - the product is zero, so Gamma is diagonalizable on the slice with
     eigenvalues among the lambdas, and sum_lambda null_Q = n;
   - null_Q <= null_p = m_lambda for each lambda (or null_Q = m_lambda
     where elimination decided it);
   - sum_lambda m_lambda = n (check 5), so null_Q = m_lambda for every
     lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .chains import (
    BlockBasis,
    Chain,
    Level,
    add_chains,
    adjoint_action,
    codifferential,
    codifferential_coo,
    conjugate_action,
    differential,
    differential_coo,
    enumerate_block,
    levels,
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
    level_ranks_mod_p,
    modular_kernel,
    nullity_mod_p,  # noqa: F401  (perfbench/tracer.py wraps it here)
    strip_integer_roots,
)
from .sl2 import ClaimFalsified, sl2_levels

# Slices up to this dimension get exact nullities from their modular ranks
# and the residual product check; on larger ones a modular nullity that
# matches its prediction is taken as it is (check 6).
EXACT_NULLITY_CUT = 48


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


@lru_cache(maxsize=None)
def _slice_bases(k: int, h: int) -> dict:
    """The ``slices`` of the degree-h block."""
    return slices(enumerate_block(k, h))


def _slice(k: int, h: int, q: int, w: int) -> BlockBasis:
    return _slice_bases(k, h).get((q, w)) or BlockBasis(k, h, (), w=w)


def _gamma_levels(k: int, h: int, qs=None):
    """Yield ``(level, gamma)`` for the levels of the degree-h block in
    increasing q, or for the q in ``qs`` only: gamma is D_q^T D_q +
    D_{q+1} D_{q+1}^T on the whole level, one ``gram`` over the stacked
    D_q and D_{q+1}^T.  Each D_q is built once and compared with the matrix
    of the codifferential from level q-1, built on its own by its splitting
    rule; a mismatch raises ClaimFalsified naming the (q, w) of its first
    column.
    """
    by_q = levels(_slice_bases(k, h))

    def boundary(q: int) -> Coo:
        src = by_q.get(q) or Level(k, h, q)
        if not q:
            return Coo.empty((0, len(src)))
        tgt = by_q.get(q - 1) or Level(k, h, q - 1)
        d = differential_coo(k, src, tgt)
        diff = coo_sum(d.shape, d, codifferential_coo(k, tgt, src).T.scaled(-1))
        if diff.vals.size:
            raise ClaimFalsified(
                f"codifferential is not the transpose of the differential on "
                f"k={k}, h={h}, q={q}, w={src.weights[diff.cols[0]]}")
        return d

    upper: dict = {}  # q + 1 -> D_{q+1}, kept for that level
    for q, level in by_q.items():
        if qs is not None and q not in qs:
            continue
        d = upper.pop(q, None) or boundary(q)
        u = upper[q + 1] = boundary(q + 1)
        gamma = gram([d, u.T], f"k={k}, h={h}, q={q}")
        del d  # not held while the consumer works on the level
        yield level, gamma


def _diagonal_block(matrix: Coo, level: Level, w: int) -> Coo:
    return matrix.block(*level.span(w), *level.span(w))


def laplacian_slices(k: int, h: int, keys=None):
    """Yield ``(q, w, basis, gamma)`` for the (q, w) slices of the degree-h
    block in sorted order, or for those in ``keys`` only.

    ``gamma`` is the slice block D_q^T D_q + D_{q+1} D_{q+1}^T of
    Gamma = d delta + delta d, with D_q the matrix of the differential from
    the (q, w) slice to the (q-1, w) slice, cut from the level matrices of
    ``_gamma_levels`` (check 1 runs there).
    """
    qs = None if keys is None else {q for q, _ in keys}
    for level, gamma in _gamma_levels(k, h, qs):
        for basis in level.slices:
            if keys is None or (level.q, basis.w) in keys:
                yield level.q, basis.w, basis, _diagonal_block(gamma, level, basis.w)


def _whole_slices(k: int, basis: BlockBasis) -> dict:
    """The ``slices`` of ``basis``, each checked to be a whole (q, w) slice
    of the degree ``basis.h`` block; raises ValueError otherwise."""
    parts = slices(basis)
    for (q, w), part in parts.items():
        if sorted(part.monomials) != list(_slice(k, basis.h, q, w).monomials):
            raise ValueError(
                f"basis splits the (q, w) = ({q}, {w}) slice of the "
                f"(k={k}, h={basis.h}) block")
    return parts


def laplacian_by_definition(k: int, basis: BlockBasis) -> IntMatrix:
    """Matrix of Gamma = d delta + delta d on a union of whole (q, w) slices:
    the ``laplacian_slices`` of the degree ``basis.h`` block, scattered to
    the positions of ``basis``, as the oracle type ``IntMatrix``.

    Raises ValueError when ``basis`` holds part of a (q, w) slice but not all
    of it, or a monomial outside the degree ``basis.h`` block, and
    ClaimFalsified when a codifferential matrix is not D_q^T.
    """
    columns: list = [{} for _ in range(basis.dim)]
    for _, _, whole, gamma in laplacian_slices(k, basis.h, _whole_slices(k, basis)):
        pos = [basis.index[m] for m in whole.monomials]
        for i, j, v in zip(gamma.rows.tolist(), gamma.cols.tolist(), gamma.vals.tolist()):
            columns[pos[j]][pos[i]] = v
    return IntMatrix(basis.dim, basis.dim, columns)


def laplacian_closed_form(k: int, basis: BlockBasis) -> IntMatrix:
    return matrix_of(lambda c: laplacian_closed_apply(k, c), basis, basis)


# ---------------------------------------------------------------------------
# the sl2 certificate for k in {-1, 2}

def _casimir_certified(k: int, h: int):
    """The ``_gamma_levels`` of the degree-h block (check 1), each walked
    beside its ``sl2_levels`` (checks 2-3 of the module docstring) and
    checked to satisfy 2 Gamma = 2h I +- C (check 4) before it is yielded.
    Raises ClaimFalsified naming k, h, q and the w of the first failing
    column.
    """
    sign = 1 if k == -1 else -1
    checked = sl2_levels(k, _slice_bases(k, h))
    for level, gamma in _gamma_levels(k, h):
        casimir = next(checked)[2]
        n = len(level)
        diff = coo_sum((n, n), gamma.scaled(2), coo_diag(np.full(n, -2 * h)),
                       casimir.scaled(-sign))
        del casimir  # only gamma is passed on
        if diff.vals.size:
            raise ClaimFalsified(
                f"2 Gamma != 2h I {'+' if sign > 0 else '-'} C on "
                f"k={k}, h={h}, q={level.q}, w={level.weights[diff.cols[0]]}")
        yield level, gamma


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

@dataclass(frozen=True)
class SpectralBlock:
    """One verified eigenvalue record of a spectrum computation.

    For k in {0, 1} the weight w is the monomial weight of the scalar slice;
    for k in {-1, 2} it is the dominant weight of the isotypic piece inside
    the (q, w)-slice, and mult counts that piece's contribution.
    """

    k: int
    w: int
    h: int
    q: int
    dim: int
    predicted_lambda: int
    mult: int
    kernel_dim: int
    method: str


@dataclass
class SpectrumResult:
    k: int
    h: int
    dim: int
    lines: list  # (lambda, multiplicity), sorted
    refinement: list  # SpectralBlock records, deterministic order
    exact_slices: int = 0
    modular_slices: int = 0
    residual_checked: int = 0


def _residual_annihilates(matrix: Coo, lams: list[int]) -> bool:
    """Apply prod (A - lam I) to every basis vector; exact integers, on the
    sparse columns of A."""
    columns = matrix.columns()
    for j in range(matrix.shape[1]):
        vec = {j: 1}
        for lam in lams:
            img = column_image(columns, vec)
            for i, x in vec.items():
                img[i] = img.get(i, 0) - lam * x
            vec = {i: x for i, x in img.items() if x}
            if not vec:
                break
        if vec:
            return False
    return True


def _scalar_level(k: int, h: int, level: Level, gamma: Coo, result: SpectrumResult,
                  totals: dict) -> None:
    """Check that Gamma is the scalar ``predicted_eigenvalue`` on every slice
    of a level of L(0) or L(1), in one comparison with the diagonal matrix
    of those scalars, and record the slices."""
    lams = [predicted_eigenvalue(k, basis.w, h) for basis in level.slices]
    n = len(level)
    scalars = coo_diag(np.repeat(lams, [basis.dim for basis in level.slices]))
    diff = coo_sum((n, n), gamma, scalars.scaled(-1))
    failing = level.weights[diff.cols[0]] if diff.vals.size else None
    q = level.q
    for basis, lam in zip(level.slices, lams):
        w, n = basis.w, basis.dim
        if lam < 0:
            raise ClaimFalsified(f"negative predicted eigenvalue at k={k}, (q,w,h)=({q},{w},{h})")
        if w == failing:
            raise ClaimFalsified(f"block k={k}, h={h}, q={q}, w={w} is not scalar {lam}")
        totals[lam] = totals.get(lam, 0) + n
        result.refinement.append(SpectralBlock(
            k=k, w=w, h=h, q=q, dim=n, predicted_lambda=lam,
            mult=n, kernel_dim=n if lam == 0 else 0, method="scalar"))
        result.exact_slices += 1


def _predicted_multiplicities(k: int, h: int, q: int, basis: BlockBasis, dims: dict,
                              result: SpectrumResult) -> dict:
    """Check 5 on the (q, w0) slice: the multiplicity of each predicted
    eigenvalue on it, recorded in ``result.refinement``."""
    n, w0 = basis.dim, basis.w
    # dominant weights w' >= |w0| occur with multiplicity
    # dim(q, w') - dim(q, w'+1); each contributes its predicted
    # eigenvalue to this slice exactly once per copy.
    expected: dict[int, int] = {}
    wp = abs(w0)
    while dims.get((q, wp), 0) or dims.get((q, wp + 1), 0):
        m_pred = dims.get((q, wp), 0) - dims.get((q, wp + 1), 0)
        if m_pred < 0:
            raise ClaimFalsified(
                f"weight dimensions not unimodal at k={k}, h={h}, q={q}, w'={wp}")
        if m_pred:
            lam = predicted_eigenvalue(k, wp, h)
            if lam < 0:
                raise ClaimFalsified(
                    f"negative predicted eigenvalue at k={k}, h={h}, w'={wp}")
            expected[lam] = expected.get(lam, 0) + m_pred
            result.refinement.append(SpectralBlock(
                k=k, w=wp, h=h, q=q, dim=n, predicted_lambda=lam,
                mult=m_pred,
                kernel_dim=m_pred if lam == 0 else 0,
                method="exact" if n <= EXACT_NULLITY_CUT else "modular"))
        wp += 1
    if sum(expected.values()) != n:
        raise ClaimFalsified(
            f"predicted eigenvalues do not exhaust k={k}, h={h}, q={q}, w={w0}: "
            f"{sum(expected.values())} of {n}")
    return expected


def _certify_level(k: int, h: int, level: Level, gamma: Coo, dims: dict,
                   result: SpectrumResult, totals: dict) -> None:
    """Checks 5 and 6 on every slice of a level of L(-1) or L(2): one
    ``level_ranks_mod_p`` pass gives every slice's modular nullities."""
    q = level.q
    expected = [_predicted_multiplicities(k, h, q, basis, dims, result)
                for basis in level.slices]
    lams = [sorted(want) for want in expected]
    ranks = level_ranks_mod_p(gamma, [(basis.dim, basis.dim) for basis in level.slices], lams)
    for basis, want, slice_lams, slice_ranks in zip(level.slices, expected, lams, ranks):
        n, w0 = basis.dim, basis.w
        small = n <= EXACT_NULLITY_CUT
        block = None
        for lam, rank in zip(slice_lams, slice_ranks):
            m_pred = want[lam]
            nullity = n - rank
            if nullity != m_pred:
                # modular nullity only bounds from above; decide exactly
                if block is None:
                    block = _diagonal_block(gamma, level, w0)
                nullity = exact_nullity(block, lam)
            if nullity != m_pred:
                raise ClaimFalsified(
                    f"eigenvalue {lam} on k={k}, h={h}, q={q}, w={w0}: "
                    f"nullity {nullity}, predicted {m_pred}")
            if small:
                result.exact_slices += 1
            else:
                result.modular_slices += 1
            totals[lam] = totals.get(lam, 0) + m_pred
        if small:
            if block is None:
                block = _diagonal_block(gamma, level, w0)
            if not _residual_annihilates(block, slice_lams):
                raise ClaimFalsified(
                    f"residual product does not annihilate k={k}, h={h}, q={q}, w={w0}")
            result.residual_checked += 1


def spectrum(k: int, h: int) -> SpectrumResult:
    """Complete exact spectral decomposition of the degree-h block.

    Raises ClaimFalsified when the predicted eigenvalues fail to exhaust the
    block or any certified multiplicity disagrees with its prediction.
    """
    if k not in (-1, 0, 1, 2):
        raise ValueError("exact spectra are provided for k in {-1, 0, 1, 2}")
    dims = {key: basis.dim for key, basis in _slice_bases(k, h).items()}
    result = SpectrumResult(k=k, h=h, dim=sum(dims.values()), lines=[], refinement=[])
    totals: dict[int, int] = {}

    if k in (0, 1):
        for level, gamma in _gamma_levels(k, h):
            _scalar_level(k, h, level, gamma, result, totals)
    else:
        for level, gamma in _casimir_certified(k, h):
            _certify_level(k, h, level, gamma, dims, result, totals)
    if sum(totals.values()) != result.dim:
        raise ClaimFalsified(
            f"multiplicities sum to {sum(totals.values())} != dim {result.dim} at k={k}, h={h}")
    result.lines = sorted(totals.items())
    return result


# ---------------------------------------------------------------------------
# harmonic chains and homology

def _kernel_chains(gamma: Coo, basis: BlockBasis) -> list[Chain]:
    """The ``modular_kernel`` of a slice matrix on ``basis``, as chains."""
    return [{basis.monomials[i]: c for i, c in sorted(vec.items())}
            for vec in modular_kernel(gamma)]


def harmonic_basis(k: int, basis: BlockBasis) -> list[Chain]:
    """Exact basis of the Laplacian kernel on a union of whole (q, w) slices,
    echelon-normalized: the ``modular_kernel`` of each slice in the order of
    ``basis``, with the vectors in the order of their free monomials.

    Gamma is block diagonal over the slices, so this is the reduced kernel
    basis of the whole matrix.  Raises ValueError as
    ``laplacian_by_definition`` does.
    """
    parts = _whole_slices(k, basis)
    chains = []
    for q, w, whole, gamma in laplacian_slices(k, basis.h, parts):
        part = parts[(q, w)]
        pos = np.array([part.index[m] for m in whole.monomials], dtype=np.int64)
        in_part = coo_from_keys(gamma.shape, pos[gamma.cols] * part.dim + pos[gamma.rows],
                                gamma.vals)
        chains += _kernel_chains(in_part, part)
    # a reduced kernel vector ends on its free monomial
    return sorted(chains, key=lambda chain: basis.index[next(reversed(chain))])


@dataclass
class HomologyTable:
    k: int
    h_max: int
    entries: dict  # (q, w, h) -> dim, only nonzero
    chains: dict   # (q, w, h) -> list of Chain, for small verified blocks
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

    Every (q, w, h) slice is certified: a full modular rank proves a trivial
    kernel, and one ``level_ranks_mod_p`` pass decides that for every slice
    of a level; any other kernel is found by ``modular_kernel``.
    """
    if k not in (-1, 0, 1, 2):
        raise ValueError("homology tables are provided for k in {-1, 0, 1, 2}")
    entries: dict = {}
    chains: dict = {}
    for h in range(h_min, h_max + 1):
        for level, gamma in _gamma_levels(k, h):
            shapes = [(basis.dim, basis.dim) for basis in level.slices]
            ranks = level_ranks_mod_p(gamma, shapes, [[0]] * len(shapes))
            for basis, (rank,) in zip(level.slices, ranks):
                if rank == basis.dim:
                    continue
                q, w = level.q, basis.w
                kernel = _kernel_chains(_diagonal_block(gamma, level, w), basis)
                if kernel:
                    entries[(q, w, h)] = len(kernel)
                    chains[(q, w, h)] = kernel
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
