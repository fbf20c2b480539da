"""The graded Laplacian of L(k): constructions, exact spectra, homology.

Two independent constructions are provided.  ``laplacian_by_definition``
assembles Gamma = d delta + delta d from boundary matrices: on every (q, w)
slice of a degree-h block it builds D_q, the matrix of the differential from
the (q, w) slice to the (q-1, w) slice, and sets the slice block of Gamma to
D_q^T D_q + D_{q+1} D_{q+1}^T.  The codifferential matrix is built on its
own from ``codifferential`` and asserted to equal D_q^T, so the adjointness
of the two operators is checked, not assumed.  ``laplacian_closed_form``
evaluates the second-order expression in the grading element, the weight
operator and the conjugate generator actions.  Their entrywise equality on
every block is the central cross-check of the package, not an assumption.

Spectra are computed exactly.  For k in {0, 1} the Laplacian is scalar on
every (q, w) slice and the scalar is verified entrywise.  For k in {-1, 2}
``_structure_certificate`` checks, as exact integer matrix identities, that
the two constructions agree; that the adjoint e_{-1}, e_0, e_1 satisfy the
sl2 relations, so the Casimir C acts by w(w+1) on the isotypic piece of
dominant weight w; and that 2 Gamma = 2h I + C for k = -1, 2h I - C for
k = 2, so Gamma acts on that piece by h +- w(w+1)/2.  ``spectrum`` counts
the multiplicities from weight-space dimensions and cross-checks each one
by a per-slice nullity: fraction-free elimination on small slices, modular
rank (decided exactly on a mismatch) on large ones.
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
    weight,
)
from .generators import epsilon
from .linalg import (
    IntMatrix,
    add_scaled,
    berkowitz_charpoly,
    certify_full_rank,
    exact_nullity,
    fraction_kernel,
    gershgorin_bound,
    nullity_mod_p,
    strip_integer_roots,
)
from .sl2 import ClaimFalsified, WeightModuleView

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


def laplacian_by_definition(k: int, basis: BlockBasis) -> IntMatrix:
    """Matrix of Gamma = d delta + delta d on a union of whole (q, w) slices.

    Gamma preserves (q, w, h), so it is assembled one slice at a time.  With
    D_q the matrix of ``differential`` from the (q, w) slice of the degree
    ``basis.h`` block to its (q-1, w) slice, the slice block of Gamma is
    D_q^T D_q + D_{q+1} D_{q+1}^T, and its columns are scattered to the
    positions of ``basis``.  Each D_q is built once and compared with the
    matrix of ``codifferential`` from the (q-1, w) slice to the (q, w) slice,
    built independently; a mismatch raises ClaimFalsified.

    Raises ValueError when ``basis`` holds part of a (q, w) slice but not all
    of it, or a monomial outside the degree ``basis.h`` block.
    """
    h = basis.h
    full = _full_block(k, h)
    layout = _slice_layout(k, h)

    def slice_basis(q: int, w: int) -> BlockBasis:
        return BlockBasis(k, h, [full.monomials[p] for p in layout.get((q, w), ())], w=w)

    groups: dict = {}
    for m in basis.monomials:
        groups.setdefault((len(m), weight(m)), []).append(m)
    slices = {}
    for (q, w), monos in groups.items():
        whole = slice_basis(q, w)
        if sorted(monos) != list(whole.monomials):
            raise ValueError(
                f"basis splits the (q, w) = ({q}, {w}) slice of the "
                f"(k={k}, h={h}) block")
        slices[(q, w)] = whole

    def boundary(q: int, w: int) -> tuple[IntMatrix, IntMatrix]:
        """(D_q, D_q^T) on weight w, D_q^T checked against the codifferential."""
        src, tgt = slice_basis(q, w), slice_basis(q - 1, w)
        d = matrix_of(lambda c: differential(k, c), src, tgt)
        dt = d.transpose()
        if matrix_of(lambda c: codifferential(k, c), tgt, src) != dt:
            raise ClaimFalsified(
                f"codifferential is not the transpose of the differential on "
                f"k={k}, h={h}, q={q}, w={w}")
        return d, dt

    columns: list = [None] * basis.dim
    for w in sorted({w for _, w in slices}):
        carried = None  # (q + 1, D_{q+1}) from the slice just below
        for q in sorted(q for q, ww in slices if ww == w):
            d, dt = carried[1] if carried and carried[0] == q else boundary(q, w)
            u, ut = boundary(q + 1, w)
            carried = (q + 1, (u, ut))
            # one column of D_q^T D_q + D_{q+1} D_{q+1}^T at a time: whole
            # products would hold three slice-sized matrices at once
            pos = [basis.index[m] for m in slices[(q, w)].monomials]
            for j, p in enumerate(pos):
                col = add_chains(dt.apply(d.columns[j]), u.apply(ut.columns[j]))
                columns[p] = {pos[i]: v for i, v in col.items()}
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
# cached per-(k, h) block data

@lru_cache(maxsize=None)
def _full_block(k: int, h: int) -> BlockBasis:
    return enumerate_block(k, h)


@lru_cache(maxsize=None)
def definition_matrix(k: int, h: int) -> IntMatrix:
    """Cached Laplacian-by-definition matrix on the full degree-h block."""
    return laplacian_by_definition(k, _full_block(k, h))


@lru_cache(maxsize=None)
def closed_matrix(k: int, h: int) -> IntMatrix:
    """Cached closed-form Laplacian matrix on the full degree-h block."""
    return laplacian_closed_form(k, _full_block(k, h))


@lru_cache(maxsize=None)
def _slice_layout(k: int, h: int) -> dict:
    """Positions of the (q, w) slices inside the full h-block."""
    basis = _full_block(k, h)
    slices: dict = {}
    for pos, m in enumerate(basis.monomials):
        slices.setdefault((len(m), weight(m)), []).append(pos)
    return slices


def _submatrix(matrix: IntMatrix, positions: list[int]) -> IntMatrix:
    lookup = {p: i for i, p in enumerate(positions)}
    cols = []
    for p in positions:
        col = {}
        for i, v in matrix.columns[p].items():
            ni = lookup.get(i)
            if ni is None:
                if v:
                    raise ClaimFalsified(
                        "operator does not preserve the (q, w) slice")
            else:
                col[ni] = v
        cols.append(col)
    return IntMatrix(len(positions), len(positions), cols)


@lru_cache(maxsize=None)
def _structure_certificate(k: int, h: int) -> bool:
    """Exact matrix identities that pin the spectrum of the degree-h block.

    Checked entrywise over the integers, for k in {-1, 2}:

    1. the two Laplacian constructions agree, Gamma = Gamma_closed;
    2. the adjoint actions e_{-1}, e_0, e_1 satisfy the sl2 relations
       [e_0, e_{+-1}] = +-e_{+-1} and [e_1, e_{-1}] = e_0, so the block is
       a finite-dimensional sl2-module and C = e_{-1} e_1 + e_0^2 + e_1 e_{-1}
       acts by w(w+1) on its isotypic piece of dominant weight w;
    3. 2 Gamma = 2h I + C for k = -1 and 2 Gamma = 2h I - C for k = 2, so
       Gamma acts on that piece by ``predicted_eigenvalue(k, w, h)``,
       h +- w(w+1)/2.

    The multiplicity of each piece then follows from weight-space
    dimensions, which ``spectrum`` counts; its per-slice nullities are the
    independent cross-check.  Raises ClaimFalsified naming k and h.
    """
    if k not in (-1, 2):
        raise ValueError("the Casimir identity holds for k in {-1, 2}")
    gamma = definition_matrix(k, h)
    if gamma != closed_matrix(k, h):
        raise ClaimFalsified(f"Laplacian constructions differ on k={k}, h={h}")
    view = WeightModuleView.from_basis(k, _full_block(k, h))
    view.check_relations()
    sign = 1 if k % 2 else -1
    twice = IntMatrix.identity(gamma.cols).scale(2 * h) + view.casimir().scale(sign)
    if gamma.scale(2) != twice:
        raise ClaimFalsified(
            f"2 Gamma != 2h I {'+' if sign > 0 else '-'} C on k={k}, h={h}")
    return True


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
    basis = _full_block(k, h)
    layout = _slice_layout(k, h)
    gamma = definition_matrix(k, h)
    result = SpectrumResult(k=k, h=h, dim=basis.dim, lines=[], refinement=[])
    totals: dict[int, int] = {}

    if k in (0, 1):
        for (q, w), positions in sorted(layout.items()):
            lam = predicted_eigenvalue(k, w, h)
            if lam < 0:
                raise ClaimFalsified(f"negative predicted eigenvalue at k={k}, (q,w,h)=({q},{w},{h})")
            sub = _submatrix(gamma, positions)
            if sub != IntMatrix.identity(len(positions)).scale(lam):
                raise ClaimFalsified(
                    f"block k={k}, h={h}, q={q}, w={w} is not scalar {lam}")
            totals[lam] = totals.get(lam, 0) + len(positions)
            result.refinement.append(SpectralBlock(
                k=k, w=w, h=h, q=q, dim=len(positions), predicted_lambda=lam,
                mult=len(positions),
                kernel_dim=len(positions) if lam == 0 else 0, method="scalar"))
            result.exact_slices += 1
    else:
        _structure_certificate(k, h)
        dims = {key: len(pos) for key, pos in layout.items()}
        for (q, w0), positions in sorted(layout.items()):
            n = len(positions)
            use_exact = n <= EXACT_NULLITY_CUT
            sub = _submatrix(gamma, positions)
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
                    nullity = exact_nullity(sub, lam)
                    result.exact_slices += 1
                else:
                    nullity = nullity_mod_p(sub, lam)
                    result.modular_slices += 1
                    if nullity != m_pred:
                        # modular nullity only bounds from above; decide exactly
                        nullity = exact_nullity(sub, lam)
                if nullity != m_pred:
                    raise ClaimFalsified(
                        f"eigenvalue {lam} on k={k}, h={h}, q={q}, w={w0}: "
                        f"nullity {nullity}, predicted {m_pred}")
                totals[lam] = totals.get(lam, 0) + m_pred
            if use_exact and expected:
                if not _residual_annihilates(sub, sorted(expected)):
                    raise ClaimFalsified(
                        f"residual product does not annihilate k={k}, h={h}, q={q}, w={w0}")
                result.residual_checked += 1

    if sum(totals.values()) != basis.dim:
        raise ClaimFalsified(
            f"multiplicities sum to {sum(totals.values())} != dim {basis.dim} at k={k}, h={h}")
    result.lines = sorted(totals.items())
    return result


# ---------------------------------------------------------------------------
# harmonic chains and homology

def harmonic_basis(k: int, basis: BlockBasis) -> list[Chain]:
    """Exact basis of the Laplacian kernel on the block, echelon-normalized."""
    kernel = fraction_kernel(laplacian_by_definition(k, basis))
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


def homology_table(k: int, h_max: int, with_chains: bool = True) -> HomologyTable:
    """Exact harmonic dimensions for all blocks with h <= h_max.

    Every (q, w, h) slice is certified: a full modular rank proves a trivial
    kernel, anything else is decided by exact elimination.
    """
    if k not in (-1, 0, 1, 2):
        raise ValueError("homology tables are provided for k in {-1, 0, 1, 2}")
    entries: dict = {}
    chains: dict = {}
    for h in range(h_max + 1):
        gamma = definition_matrix(k, h)
        for (q, w), positions in sorted(_slice_layout(k, h).items()):
            sub = _submatrix(gamma, positions)
            if certify_full_rank(sub):
                continue
            kernel = fraction_kernel(sub)
            if not kernel:
                continue
            entries[(q, w, h)] = len(kernel)
            if with_chains:
                basis = _full_block(k, h)
                chains[(q, w, h)] = [
                    {basis.monomials[positions[i]]: c for i, c in sorted(vec.items())}
                    for vec in kernel]
    expected = expected_homology(k, h_max)
    deviations = []
    for key in sorted(set(entries) | set(expected)):
        got = entries.get(key, 0)
        want = expected.get(key, 0)
        if got != want:
            deviations.append((key, got, want))
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
        gamma = definition_matrix(k, h)
        for (q, w), positions in sorted(_slice_layout(k, h).items()):
            sub = _submatrix(gamma, positions)
            n = len(positions)
            bound = gershgorin_bound(sub)
            total = 0
            for lam in range(bound + 1):
                total += exact_nullity(sub, lam)
                if total == n:
                    break
            if total == n:
                continue
            poly = berkowitz_charpoly(sub)
            _, remainder = strip_integer_roots(poly, bound)
            if len(remainder) < 3:
                raise ClaimFalsified(
                    f"irrational detection inconsistent at k={k}, h={h}, q={q}, w={w}")
            return IrrationalFinding(k=k, h=h, q=q, w=w, dim=n,
                                     factor=tuple(remainder), charpoly=tuple(poly))
    return None
