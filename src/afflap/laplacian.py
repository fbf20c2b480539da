"""The graded Laplacian of L(k): constructions, exact spectra, homology.

Gamma = d delta + delta d keeps the chain dimension q, the weight w and the
degree h, so it is built and decomposed one (q, w) slice of a degree-h block
at a time.  ``laplacian_slices`` yields each slice basis with its block
D_q^T D_q + D_{q+1} D_{q+1}^T, where D_q is the matrix of the differential
from the (q, w) slice to the (q-1, w) slice; ``laplacian_by_definition``
scatters those blocks onto a basis.  ``laplacian_closed_apply`` evaluates
the paper's second-order closed form monomial by monomial, and its matrix
``laplacian_closed_form`` is the oracle the slices are tested against.

Spectra are exact.  For k in {0, 1} Gamma is scalar on every slice, and the
scalar is checked entrywise.  For k in {-1, 2} every (q, w) slice passes
these exact integer checks in order; a failure raises ClaimFalsified, and
checks 1-4 name the k, h, q and w of the slice:

1. the matrix of ``codifferential``, built on its own, equals D_q^T;
2. E_w, the matrix of the adjoint e_1 from the (q, w) slice, lands in the
   (q, w+1) slice, and the matrix of e_{-1}, built on its own, equals E_w^T;
3. E_{w-1} E_{w-1}^T - E_w^T E_w = w I, which is [e_1, e_{-1}] = e_0 (the
   grading gives the e_0 relations), so the block is a finite-dimensional
   sl2-module and the Casimir C acts by w'(w'+1) on its isotypic piece of
   dominant weight w' (checks 2-3 and E_w come from ``sl2.sl2_slices``);
4. 2 Gamma = 2h I + C for k = -1 and 2h I - C for k = 2, with
   C = E_w^T E_w + w^2 I + E_{w-1} E_{w-1}^T: the paper's closed form, so
   Gamma acts on that piece by h +- w'(w'+1)/2;
5. the piece of dominant weight w' >= |w| occurs dim(q, w') - dim(q, w'+1)
   times in the slice; these weight counts must be non-negative and fill it;
6. each predicted multiplicity equals the nullity of Gamma - lambda on the
   slice: fraction-free elimination on small slices, modular rank (decided
   exactly on a mismatch) on large ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chains import (
    BlockBasis,
    Chain,
    add_chains,
    adjoint_action,
    codifferential,
    conjugate_action,
    differential,
    enumerate_block,
    matrix_of,
    raising_action,
    scale_chain,
    slices,
    weight,
)
from .generators import epsilon
from .linalg import (
    IntMatrix,
    add_scaled,
    berkowitz_charpoly,
    certify_full_rank,
    exact_nullity,
    gershgorin_bound,
    modular_kernel,
    nullity_mod_p,
    strip_integer_roots,
)
from .sl2 import ClaimFalsified, sl2_slices

# Slices up to this dimension get their nullities by exact elimination and
# the residual product check; the larger ones use modular ranks.
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


def laplacian_slices(k: int, h: int, keys=None):
    """Yield ``(q, w, basis, gamma)`` for the (q, w) slices of the degree-h
    block in sorted order, or for those in ``keys`` only.

    ``gamma`` is the slice block D_q^T D_q + D_{q+1} D_{q+1}^T of
    Gamma = d delta + delta d, with D_q the matrix of ``differential`` from
    the (q, w) slice to the (q-1, w) slice.  Each D_q is built once and
    compared with the matrix of ``codifferential`` from the (q-1, w) slice
    to the (q, w) slice, built independently; a mismatch raises
    ClaimFalsified.
    """
    def boundary(q: int, w: int) -> tuple[IntMatrix, IntMatrix]:
        """(D_q, D_q^T) on weight w, D_q^T checked against the codifferential."""
        src, tgt = _slice(k, h, q, w), _slice(k, h, q - 1, w)
        d = matrix_of(lambda c: differential(k, c), src, tgt)
        dt = d.transpose()
        if matrix_of(lambda c: codifferential(k, c), tgt, src) != dt:
            raise ClaimFalsified(
                f"codifferential is not the transpose of the differential on "
                f"k={k}, h={h}, q={q}, w={w}")
        return d, dt

    upper: dict = {}  # (q + 1, w) -> (D_{q+1}, D_{q+1}^T), kept for that slice
    for (q, w), basis in _slice_bases(k, h).items():
        if keys is not None and (q, w) not in keys:
            continue
        d, dt = upper.pop((q, w), None) or boundary(q, w)
        u, ut = upper[(q + 1, w)] = boundary(q + 1, w)
        # one column at a time: whole products would hold three slice-sized
        # matrices at once
        columns = []
        for j in range(basis.dim):
            col = dt.apply(d.columns[j])
            add_scaled(col, u.apply(ut.columns[j]))
            columns.append(col)
        yield q, w, basis, IntMatrix(basis.dim, basis.dim, columns)


def laplacian_by_definition(k: int, basis: BlockBasis) -> IntMatrix:
    """Matrix of Gamma = d delta + delta d on a union of whole (q, w) slices:
    the ``laplacian_slices`` of the degree ``basis.h`` block, scattered to
    the positions of ``basis``.

    Raises ValueError when ``basis`` holds part of a (q, w) slice but not all
    of it, or a monomial outside the degree ``basis.h`` block, and
    ClaimFalsified when a codifferential matrix is not D_q^T.
    """
    h = basis.h
    parts = slices(basis)
    for (q, w), part in parts.items():
        if sorted(part.monomials) != list(_slice(k, h, q, w).monomials):
            raise ValueError(
                f"basis splits the (q, w) = ({q}, {w}) slice of the "
                f"(k={k}, h={h}) block")
    columns: list = [None] * basis.dim
    for _, _, whole, gamma in laplacian_slices(k, h, parts):
        pos = [basis.index[m] for m in whole.monomials]
        for p, col in zip(pos, gamma.columns):
            columns[p] = {pos[i]: v for i, v in col.items()}
    return IntMatrix(basis.dim, basis.dim, columns)


def laplacian_closed_form(k: int, basis: BlockBasis) -> IntMatrix:
    return matrix_of(lambda c: laplacian_closed_apply(k, c), basis, basis)


# ---------------------------------------------------------------------------
# the sl2 certificate for k in {-1, 2}

def _casimir_certified(k: int, h: int):
    """The ``laplacian_slices`` of the degree-h block, walked beside its
    ``sl2_slices`` (checks 2-3 of the module docstring), each checked to
    satisfy 2 Gamma = 2h I +- C (check 4).  Raises ClaimFalsified naming k,
    h, q and w.
    """
    sign = 1 if k == -1 else -1
    for (q, w, basis, gamma), (*_, casimir) in zip(
            laplacian_slices(k, h), sl2_slices(k, _slice_bases(k, h))):
        eye = IntMatrix.identity(basis.dim)
        if gamma.scale(2) != eye.scale(2 * h) + casimir.scale(sign):
            raise ClaimFalsified(
                f"2 Gamma != 2h I {'+' if sign > 0 else '-'} C on "
                f"k={k}, h={h}, q={q}, w={w}")
        yield q, w, basis, gamma


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


def _residual_annihilates(matrix: IntMatrix, lams: list[int]) -> bool:
    """Apply prod (A - lam I) to every basis vector; exact integers."""
    for j in range(matrix.cols):
        vec = {j: 1}
        for lam in lams:
            img = matrix.apply(vec)
            add_scaled(img, vec, -lam)
            vec = img
            if not vec:
                break
        if vec:
            return False
    return True


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
        for q, w, basis, gamma in laplacian_slices(k, h):
            n = basis.dim
            lam = predicted_eigenvalue(k, w, h)
            if lam < 0:
                raise ClaimFalsified(f"negative predicted eigenvalue at k={k}, (q,w,h)=({q},{w},{h})")
            if gamma != IntMatrix.identity(n).scale(lam):
                raise ClaimFalsified(
                    f"block k={k}, h={h}, q={q}, w={w} is not scalar {lam}")
            totals[lam] = totals.get(lam, 0) + n
            result.refinement.append(SpectralBlock(
                k=k, w=w, h=h, q=q, dim=n, predicted_lambda=lam,
                mult=n, kernel_dim=n if lam == 0 else 0, method="scalar"))
            result.exact_slices += 1
    else:
        for q, w0, basis, gamma in _casimir_certified(k, h):
            n = basis.dim
            use_exact = n <= EXACT_NULLITY_CUT
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
                        method="exact" if use_exact else "modular"))
                wp += 1
            if sum(expected.values()) != n:
                raise ClaimFalsified(
                    f"predicted eigenvalues do not exhaust k={k}, h={h}, q={q}, w={w0}: "
                    f"{sum(expected.values())} of {n}")
            for lam, m_pred in sorted(expected.items()):
                if use_exact:
                    nullity = exact_nullity(gamma, lam)
                    result.exact_slices += 1
                else:
                    nullity = nullity_mod_p(gamma, lam)
                    result.modular_slices += 1
                    if nullity != m_pred:
                        # modular nullity only bounds from above; decide exactly
                        nullity = exact_nullity(gamma, lam)
                if nullity != m_pred:
                    raise ClaimFalsified(
                        f"eigenvalue {lam} on k={k}, h={h}, q={q}, w={w0}: "
                        f"nullity {nullity}, predicted {m_pred}")
                totals[lam] = totals.get(lam, 0) + m_pred
            if use_exact and expected:
                if not _residual_annihilates(gamma, sorted(expected)):
                    raise ClaimFalsified(
                        f"residual product does not annihilate k={k}, h={h}, q={q}, w={w0}")
                result.residual_checked += 1

    if sum(totals.values()) != result.dim:
        raise ClaimFalsified(
            f"multiplicities sum to {sum(totals.values())} != dim {result.dim} at k={k}, h={h}")
    result.lines = sorted(totals.items())
    return result


# ---------------------------------------------------------------------------
# harmonic chains and homology

def harmonic_basis(k: int, basis: BlockBasis) -> list[Chain]:
    """Exact basis of the Laplacian kernel on the block, echelon-normalized."""
    kernel = modular_kernel(laplacian_by_definition(k, basis))
    return [{basis.monomials[i]: c for i, c in sorted(vec.items())}
            for vec in kernel]


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


def homology_table(k: int, h_max: int, h_min: int = 0,
                   with_chains: bool = True) -> HomologyTable:
    """Exact harmonic dimensions for all blocks with h_min <= h <= h_max.

    Every (q, w, h) slice is certified: a full modular rank proves a trivial
    kernel, and any other kernel is found by ``modular_kernel``.
    """
    if k not in (-1, 0, 1, 2):
        raise ValueError("homology tables are provided for k in {-1, 0, 1, 2}")
    entries: dict = {}
    chains: dict = {}
    for h in range(h_min, h_max + 1):
        for q, w, basis, gamma in laplacian_slices(k, h):
            if certify_full_rank(gamma):
                continue
            kernel = modular_kernel(gamma)
            if not kernel:
                continue
            entries[(q, w, h)] = len(kernel)
            if with_chains:
                chains[(q, w, h)] = [
                    {basis.monomials[i]: c for i, c in sorted(vec.items())}
                    for vec in kernel]
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
    return berkowitz_charpoly(laplacian_by_definition(k, basis))


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
            poly = berkowitz_charpoly(gamma)
            _, remainder = strip_integer_roots(poly, bound)
            if len(remainder) < 3:
                raise ClaimFalsified(
                    f"irrational detection inconsistent at k={k}, h={h}, q={q}, w={w}")
            return IrrationalFinding(k=k, h=h, q=q, w=w, dim=n,
                                     factor=tuple(remainder), charpoly=tuple(poly))
    return None
