"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic; the tolerances are equality.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import time
from fractions import Fraction

from afflap.chains import block_dim_table, enumerate_block, levels
from afflap.cli import main as cli_main
from afflap.identities import all_identities, verify_identity
from afflap.laplacian import (
    find_irrational_spectrum,
    harmonic_basis,
    homology_table,
    laplacian_apply,
    laplacian_by_definition,
    laplacian_closed_apply,
    laplacian_closed_form,
    laplacian_slices,
    lowering_orbit,
    one_dim_eigenvalue,
    spectrum,
    staircase_chain,
    two_dim_pairing_oracle,
)
from afflap.sl2 import (
    cg_singular_vector,
    motzkin_sums,
    sl2_level,
    tensor_power_Q,
)
from test_linalg import int_matrix

H_FULL = 12
H_EQ2 = 8


def test_criterion_1_laplacian_equality():
    """Both constructions agree entrywise: k in {-1,0,1,2} for h <= 12 and
    k in {3,4} for h <= 8, in under two minutes.  For k <= 2 the blocks are
    compared one (q, w) slice at a time; an entry of the closed form
    between two slices would make ``matrix_of`` raise, so every entry of
    the block is still compared."""
    start = time.time()
    for k in (-1, 0, 1, 2):
        for h in range(H_FULL + 1):
            for q, w, basis, gamma in laplacian_slices(k, h):
                assert int_matrix(gamma) == laplacian_closed_form(k, basis), (k, h, q, w)
    for k in (3, 4):
        for h in range(H_EQ2 + 1):
            basis = enumerate_block(k, h)
            assert laplacian_by_definition(k, basis) == laplacian_closed_form(k, basis), (k, h)
    elapsed = time.time() - start
    assert elapsed < 120, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: construction equality (h<=12, plus k=3,4 h<=8) "
          f"exact in {elapsed:.1f}s  PASS")


def test_criterion_2_case_table_oracles():
    """The one- and two-dimensional closed tables match both constructions
    for k in {1,2,3} and all pairs with a+b <= 40."""
    for k in (1, 2, 3):
        for a in range(k, 41):
            lam = one_dim_eigenvalue(k, a)
            expect = {(a,): lam} if lam else {}
            assert laplacian_apply(k, {(a,): 1}) == expect
            assert laplacian_closed_apply(k, {(a,): 1}) == expect
    checked = 0
    for k in (1, 2, 3):
        for s in range(2 * k + 1, 41):
            pairs = [(a, s - a) for a in range(k, (s + 1) // 2)]
            for a, b in pairs:
                by_def = laplacian_apply(k, {(a, b): 1})
                closed = laplacian_closed_apply(k, {(a, b): 1})
                for x, y in pairs:
                    want = two_dim_pairing_oracle(k, (a, b), (x, y))
                    assert by_def.get((x, y), 0) == want, (k, (a, b), (x, y))
                    assert closed.get((x, y), 0) == want, (k, (a, b), (x, y))
                    checked += 1
    print(f"ACCEPTANCE 2: case-table oracles, {checked} pair entries exact  PASS")


def test_criterion_3_integral_spectrum():
    """Exact spectral decompositions for k in {-1,0,1,2}, h <= 12: every
    eigenvalue is the predicted non-negative integer and the multiplicities
    fill each block.  For every k each (slice, lambda) pair is proved
    exactly, with the residual product of every slice; for k in {0, 1} a
    slice has one lambda."""
    counts = {}
    for k in (-1, 0, 1, 2):
        table = block_dim_table(k, H_FULL)
        for h in range(H_FULL + 1):
            res = spectrum(k, h)
            assert sum(m for _, m in res.lines) == res.dim, (k, h)
            for lam, mult in res.lines:
                assert isinstance(lam, int) and lam >= 0 and mult > 0
            assert res.modular_slices == 0
            slices = sum(key[2] == h for key in table)
            assert res.residual_checked == slices, (k, h)
            if k in (0, 1):
                assert res.exact_slices == slices, (k, h)
            exact, residual = counts.get(k, (0, 0))
            counts[k] = (exact + res.exact_slices, residual + res.residual_checked)
    assert counts[-1] == (1333, 568)
    print(f"ACCEPTANCE 3: integral spectra h<=12 (exact (slice, lambda) pairs "
          f"{sum(e for e, _ in counts.values())}, residual products "
          f"{sum(r for _, r in counts.values())}, modular-certified 0)  PASS")


def test_criterion_4_homology_closed_forms():
    """Computed harmonic dimensions reproduce the four closed forms up to
    h = 12 (which reaches q = 4 for L(2))."""
    for k in (-1, 0, 1, 2):
        table = homology_table(k, H_FULL)
        assert table.matches_closed_form, (k, table.deviations)
    qs = {q for (q, _, _) in table.entries}  # the L(2) table of the last pass
    assert max(qs) == 4
    print("ACCEPTANCE 4: homology tables h<=12 match the closed forms  PASS")


def test_criterion_5_explicit_harmonic_bases():
    """The staircase monomials and the lowering orbit are annihilated by the
    Laplacian and span exactly the computed kernels."""
    # the two staircase families of L(1)
    for q in range(1, 6):
        h = q * (q - 1) // 2
        if h <= H_FULL:
            c = staircase_chain(1, q)
            assert laplacian_apply(1, c) == {}
            basis = enumerate_block(1, h, q)
            assert harmonic_basis(1, basis) == [{mono: Fraction(1)} for mono in c]
        h = q * (q + 1) // 2
        if h <= H_FULL:
            c = staircase_chain(2, q)
            assert laplacian_apply(1, c) == {}
            basis = enumerate_block(1, h, -q)
            assert harmonic_basis(1, basis) == [{mono: Fraction(1)} for mono in c]
    # the lowering orbit of L(2): e_{-1}^r applied to the top staircase
    for q in range(1, 5):
        h = q * (q + 1) // 2
        for r in range(2 * q + 1):
            c = lowering_orbit(q, r)
            assert c and laplacian_apply(2, c) == {}
            w = q - r
            basis = enumerate_block(2, h, w).restrict(q=q)
            kern = harmonic_basis(2, basis)
            assert len(kern) == 1, (q, r)
            # the kernel line is spanned by the orbit chain
            (vec,) = kern
            assert set(c) == set(vec), (q, r)
            ratios = {Fraction(c[m]) / vec[m] for m in vec}
            assert len(ratios) == 1, (q, r)
        assert lowering_orbit(q, 2 * q + 1) == {}
    print("ACCEPTANCE 5: explicit harmonic families span the kernels  PASS")


def test_criterion_6_identity_suite():
    """All sixteen registered identities pass at truncation order 40."""
    start = time.time()
    failures = []
    for name in all_identities():
        rep = verify_identity(name, 40)
        if not rep.passed:
            failures.append((name, rep.first_mismatch))
    elapsed = time.time() - start
    assert not failures, failures
    assert elapsed < 300, f"took {elapsed:.1f}s"
    assert len(all_identities()) == 16
    print(f"ACCEPTANCE 6: all 16 identities exact at order 40 in {elapsed:.1f}s  PASS")


def test_criterion_7_sl2_machinery():
    """Casimir law, Clebsch-Gordan singular vectors, and the two tensor-power
    routes with independently recomputed Motzkin sums."""
    # Casimir acts as w(w+1) on every isotypic piece of small chain blocks
    from afflap.linalg import exact_nullity

    for k, h in ((2, 2), (2, 3), (2, 4), (-1, 1)):
        block = enumerate_block(k, h)
        dims: dict = {}
        casimirs = []  # C on each (q, h) level
        for level in levels(block).values():
            up, cas = sl2_level(k, level)
            casimirs.append(cas)
            up, cas = int_matrix(up), int_matrix(cas)
            assert cas * up == up * cas  # C e_1 = e_1 C
            for w, (a, b) in level.bounds.items():
                dims[w] = dims.get(w, 0) + b - a
        w = 0
        accounted = 0
        while dims.get(w, 0) or dims.get(w + 1, 0):
            m = dims.get(w, 0) - dims.get(w + 1, 0)
            if m:
                # distinct dominant weights give distinct Casimir values; C
                # is block diagonal over the slices of a level, so its
                # nullity on the level sums those of its slices
                nullity = sum(exact_nullity(cas, w * (w + 1)) for cas in casimirs)
                assert nullity == m * (2 * w + 1), (k, h, w)
                accounted += m * (2 * w + 1)
            w += 1
        assert accounted == block.dim
    # Clebsch-Gordan grid: every output is raising-annihilated by construction
    for d1 in range(7):
        for d2 in range(7):
            for p in range(min(d1, d2) + 1):
                cg_singular_vector(Fraction(d1, 2), Fraction(d2, 2), p)
    # the two tensor-power routes agree and hit the Motzkin sums
    sums = motzkin_sums(13)
    for r in range(13):
        assert tensor_power_Q(r).mult(0) == sums[r]
    print("ACCEPTANCE 7: sl2 machinery (Casimir, Clebsch-Gordan grid, "
          "tensor powers vs Motzkin sums)  PASS")


def test_criterion_8_irrational_spot_check():
    """Some block of L(3) has an irrational eigenvalue within h <= 10."""
    finding = find_irrational_spectrum(3, 10)
    assert finding is not None
    assert len(finding.factor) >= 3  # degree >= 2, no rational roots left
    print(f"ACCEPTANCE 8: L(3) irrational spectrum at h={finding.h}, "
          f"slice (q={finding.q}, w={finding.w}), factor {list(finding.factor)} "
          f"(ascending)  PASS")


def test_criterion_9_deterministic_output(tmp_path):
    """Byte-identical spectrum output for different worker counts."""
    files = []
    for jobs in ("1", "2"):
        out = tmp_path / f"spectrum-{jobs}.json"
        code = cli_main(["spectrum", "--k", "2", "--h-max", "8",
                         "--format", "json", "--jobs", jobs, "--out", str(out)])
        assert code == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    payload = json.loads(files[0])
    assert "jobs" not in payload["config"]
    print("ACCEPTANCE 9: byte-identical output across --jobs 1 and 2  PASS")
