from fractions import Fraction

import numpy as np
import pytest

from afflap.chains import (
    BlockBasis,
    adjoint_action,
    block_dim_table,
    codifferential,
    differential,
    enumerate_block,
    matrix_of,
    weight,
    weight_dim_table,
)
from afflap.laplacian import (
    ClaimFalsified,
    characteristic_polynomial,
    expected_homology,
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
    predicted_eigenvalue,
    spectrum,
    two_dim_pairing_oracle,
)
from afflap.linalg import Coo, coo_diag, coo_sum


def test_constructions_agree_small():
    for k in (-1, 0, 1, 2, 3, 4):
        for h in range(6):
            basis = enumerate_block(k, h)
            assert laplacian_by_definition(k, basis) == laplacian_closed_form(k, basis)


def test_constructions_agree_higher_k():
    # the second-order expression keeps matching for larger index bounds
    for k in (5, 6, 7):
        for h in range(6):
            basis = enumerate_block(k, h)
            assert laplacian_by_definition(k, basis) == laplacian_closed_form(k, basis)


def test_definition_on_slice_basis_is_restriction_of_block():
    for k in (-1, 2):
        for h in range(7):
            full = enumerate_block(k, h)
            gamma = laplacian_by_definition(k, full)
            for q, w in sorted({(len(m), weight(m)) for m in full}):
                basis = enumerate_block(k, h, w).restrict(q=q)
                pos = [full.index[m] for m in basis]
                restricted = [{i: gamma.columns[p][r] for i, r in enumerate(pos)
                               if r in gamma.columns[p]} for p in pos]
                assert laplacian_by_definition(k, basis).columns == restricted, (k, h, w, q)


def test_definition_rejects_split_slices():
    whole = enumerate_block(2, 4, 0).restrict(q=2)
    assert whole.dim > 1
    with pytest.raises(ValueError):
        laplacian_by_definition(2, BlockBasis(2, 4, whole.monomials[1:]))
    # a monomial of another degree is not part of any slice of this block
    with pytest.raises(ValueError):
        laplacian_by_definition(2, BlockBasis(2, 4, [(2, 3)]))


def _row(level, mono) -> int:
    """The row of ``mono`` in the level, or -1."""
    if len(mono) != level.q:
        return -1
    return int(level.find(level.pack(np.array([mono], dtype=np.int64)))[0])


def _flipped(matrix, level_rows, level_cols, image, source):
    """``matrix`` with the sign of its (image, source) entry flipped."""
    row, col = _row(level_rows, image), _row(level_cols, source)
    hit = (matrix.rows == row) & (matrix.cols == col) & (col >= 0)
    return matrix._replace(vals=np.where(hit, -matrix.vals, matrix.vals))


def test_definition_checks_codifferential_against_transpose(monkeypatch):
    from afflap import laplacian

    real = laplacian.codifferential_transpose_coo

    def one_sign_flipped(k, src, tgt):
        return _flipped(real(k, src, tgt), src, tgt, (5,), (2, 3))

    basis = enumerate_block(2, 2)
    assert codifferential(2, {(5,): 1}) == {(2, 3): 1}
    laplacian_by_definition(2, basis)
    monkeypatch.setattr(laplacian, "codifferential_transpose_coo", one_sign_flipped)
    with pytest.raises(ClaimFalsified):
        laplacian_by_definition(2, basis)


def _first_image_monomial(k, h, g, terms=1):
    """The first monomial of the degree-h block whose e_g image has at
    least ``terms`` terms, with that image."""
    return next((m, image) for m in enumerate_block(k, h)
                if len(image := adjoint_action(g, {m: 1}, k)) >= terms)


def test_certificate_rejects_a_lowering_matrix_that_is_not_the_transpose(monkeypatch):
    from afflap import sl2

    real = sl2.adjoint_coo
    target, image = _first_image_monomial(2, 4, -1)

    def one_entry_flipped(g, k, level):
        matrix = real(g, k, level)
        return _flipped(matrix, level, level, min(image), target) if g == -1 else matrix

    monkeypatch.setattr(sl2, "adjoint_coo", one_entry_flipped)
    q, w = len(target), weight(target) - 1
    with pytest.raises(ClaimFalsified, match=rf"^e_-1 is not the transpose of e_1 "
                                             rf"on k=2, h=4, q={q}, w={w}$"):
        spectrum(2, 4)


def test_certificate_rejects_a_raising_image_of_the_wrong_weight(monkeypatch):
    from afflap import sl2

    real = sl2.adjoint_coo
    target, _ = _first_image_monomial(2, 4, 1)

    def escapes(g, k, level):
        matrix = real(g, k, level)
        at = _row(level, target)
        if g != 1 or at < 0:
            return matrix
        return Coo(matrix.shape, np.append(matrix.rows, at), np.append(matrix.cols, at),
                   np.append(matrix.vals, 1))

    monkeypatch.setattr(sl2, "adjoint_coo", escapes)
    q, w = len(target), weight(target)
    with pytest.raises(ClaimFalsified, match=rf"^e_1 leaves weight {w + 1} "
                                             rf"on k=2, h=4, q={q}, w={w}: "):
        spectrum(2, 4)


def _break_the_bracket(monkeypatch):
    """Flip one entry of e_1 and the matching entry of e_-1 on the (2, 4)
    block: the two matrices are still transposes, but [e_1, e_-1] = w I
    fails.  The e_1 column has two terms, so E E^T changes on the slice
    above.  Returns the message the bracket check must raise."""
    from afflap import sl2

    real = sl2.adjoint_coo
    source, image = _first_image_monomial(2, 4, 1, terms=2)
    target = min(image)

    def matching_flips(g, k, level):
        matrix = real(g, k, level)
        if g == 1:
            return _flipped(matrix, level, level, target, source)
        return _flipped(matrix, level, level, source, target)

    monkeypatch.setattr(sl2, "adjoint_coo", matching_flips)
    q, w = len(source), weight(source)
    return rf"^\[e_1, e_-1\] != w I on k=2, h=4, q={q}, w=({w}|{w + 1})$"


def test_certificate_rejects_a_broken_sl2_relation(monkeypatch):
    with pytest.raises(ClaimFalsified, match=_break_the_bracket(monkeypatch)):
        spectrum(2, 4)


def test_singular_route_shares_the_bracket_check(monkeypatch):
    """The singular multiplicities of a small block take their E_w from the
    same checked slices as the certificate, so a broken bracket stops them
    too."""
    from afflap.sl2 import MATRIX_ROUTE_CUT, singular_block_dims

    assert enumerate_block(2, 4).dim <= MATRIX_ROUTE_CUT
    with pytest.raises(ClaimFalsified, match=_break_the_bracket(monkeypatch)):
        singular_block_dims(2, 4)


def test_certificate_checks_gamma_against_casimir(monkeypatch):
    """Gamma + I on every level keeps the sl2 checks passing, but
    2 Gamma = 2h I - C fails on the first slice."""
    from afflap import laplacian

    real = laplacian.gram

    def shifted(parts, where):
        gamma = real(parts, where)
        return coo_sum(gamma.shape, gamma, coo_diag(np.ones(gamma.shape[0], dtype=np.int64)))

    assert spectrum(2, 4).lines
    monkeypatch.setattr(laplacian, "gram", shifted)
    q, w = min((len(m), weight(m)) for m in enumerate_block(2, 4))
    with pytest.raises(ClaimFalsified, match=rf"^2 Gamma != 2h I - C on k=2, h=4, q={q}, w={w}$"):
        spectrum(2, 4)


def test_spectrum_builds_each_level_once(monkeypatch):
    """spectrum(2, 8) builds the Level of each q of its block once, and the
    two empty levels that D_1 maps into and D_{q+1} maps out of: Gamma, the
    sl2 certificate and checks 5-6 share the same levels."""
    from afflap import chains

    real = chains.Level.__init__
    built = []

    def counting(self, k, h, q, monos=()):
        built.append(q)
        real(self, k, h, q, monos)

    monkeypatch.setattr(chains.Level, "__init__", counting)
    spectrum(2, 8)
    qs = sorted({len(m) for m in enumerate_block(2, 8)})
    assert len(built) == 7
    assert sorted(built) == [0, *qs, max(qs) + 1]


def test_oracle_paths_enumerate_their_block_once(monkeypatch):
    """laplacian_by_definition and harmonic_basis check the basis against
    the same levels they build Gamma on: one enumeration of the block, by
    ``block_levels``."""
    from afflap import laplacian

    basis = enumerate_block(2, 8)
    real = laplacian.block_levels
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(laplacian, "block_levels", counting)
    for oracle in (laplacian_by_definition, harmonic_basis):
        calls.clear()
        oracle(2, basis)
        assert calls == [(2, 8)], oracle.__name__


def test_closed_form_is_h_plus_or_minus_half_casimir():
    """The chain-composed closed form equals h I +- C/2, with C assembled
    slice by slice from the e_1 matrices E_w as in the certificate:
    C = E_w^T E_w + w^2 I + E_{w-1} E_{w-1}^T."""
    from afflap.linalg import IntMatrix

    for k, sign in ((-1, 1), (2, -1)):
        for h in range(7):
            block = enumerate_block(k, h)

            def slice_of(q, w):
                return BlockBasis(k, h, [m for m in block
                                         if (len(m), weight(m)) == (q, w)], w=w)

            def raising(source, target):
                return matrix_of(lambda c: adjoint_action(1, c, k), source, target)

            columns = [None] * block.dim
            for q, w in sorted({(len(m), weight(m)) for m in block}):
                here = slice_of(q, w)
                up = raising(here, slice_of(q, w + 1))
                up_below = raising(slice_of(q, w - 1), here)
                eye = IntMatrix.identity(here.dim)
                casimir = up.transpose() * up + eye.scale(w * w) + up_below * up_below.transpose()
                twice = eye.scale(2 * h) + casimir.scale(sign)
                pos = [block.index[m] for m in here]
                for p, col in zip(pos, twice.columns):
                    columns[p] = {pos[i]: v for i, v in col.items()}
            expected = IntMatrix(block.dim, block.dim, columns)
            assert laplacian_closed_form(k, block).scale(2) == expected, (k, h)


def test_one_dim_eigenvalues():
    assert one_dim_eigenvalue(2, 7) == 1
    assert one_dim_eigenvalue(1, 1) == 0
    assert one_dim_eigenvalue(3, 3) == 0
    with pytest.raises(ValueError):
        one_dim_eigenvalue(0, 1)
    with pytest.raises(ValueError):
        one_dim_eigenvalue(2, 1)
    for k in (1, 2, 3):
        for a in range(k, 31):
            expect = {} if one_dim_eigenvalue(k, a) == 0 else {(a,): one_dim_eigenvalue(k, a)}
            assert laplacian_apply(k, {(a,): 1}) == expect
            assert laplacian_closed_apply(k, {(a,): 1}) == expect


def test_single_generator_examples():
    assert laplacian_apply(1, {(5,): 1}) == {(5,): 1}
    assert laplacian_apply(2, {(4,): 1}) == {}
    assert laplacian_apply(0, {(0,): 1}) == {}


def test_two_dim_pairing_oracle():
    assert two_dim_pairing_oracle(2, (2, 3), (2, 3)) == 1
    with pytest.raises(ValueError):
        two_dim_pairing_oracle(2, (2, 3), (2, 4))
    with pytest.raises(ValueError):
        two_dim_pairing_oracle(2, (3, 2), (2, 3))
    for k in (1, 2, 3):
        for s in range(2 * k + 1, 25):
            pairs = [(a, s - a) for a in range(k, (s + 1) // 2)]
            for a, b in pairs:
                image = laplacian_apply(k, {(a, b): 1})
                closed = laplacian_closed_apply(k, {(a, b): 1})
                for x, y in pairs:
                    want = two_dim_pairing_oracle(k, (a, b), (x, y))
                    assert image.get((x, y), 0) == want
                    assert closed.get((x, y), 0) == want


def test_zero_block_laplacian():
    basis = enumerate_block(3, 0)
    gamma = laplacian_by_definition(3, basis)
    assert gamma.is_zero() and gamma.rows == 1
    assert characteristic_polynomial(3, basis) == [0, 1]


def test_characteristic_polynomial_block_2_2():
    assert characteristic_polynomial(2, enumerate_block(2, 2)) == [1, -6, 15, -20, 15, -6, 1]


def test_harmonic_basis_examples():
    assert harmonic_basis(1, enumerate_block(1, 1, 2)) == [{(1, 4): Fraction(1)}]
    # top-weight harmonic of L(2) in dimension q
    for q in (1, 2, 3):
        h = q * (q + 1) // 2
        basis = enumerate_block(2, h, q).restrict(q=q)
        kern = harmonic_basis(2, basis)
        assert len(kern) == 1
        mono = tuple(4 + 3 * i for i in range(q))
        (vec,) = kern
        assert set(vec) == {mono}
    basis = enumerate_block(-1, 0, 0).restrict(q=3)
    assert harmonic_basis(-1, basis) == [{(-1, 0, 1): Fraction(1)}]
    # whole-block version: the h=1 block of L(2) is entirely harmonic
    kern = harmonic_basis(2, enumerate_block(2, 1))
    assert [set(v) for v in kern] == [{(2,)}, {(3,)}, {(4,)}]


def test_harmonic_basis_is_the_reduced_kernel_of_the_whole_block():
    """The per-slice kernels come back in the order of the reduced kernel
    basis of the whole-block matrix, whose slices interleave.  For L(1) that
    order is not the (q, w) order of the slices: at h = 1 the kernel of
    (q, w) = (2, 2) ends on (1, 4), before the (2,) of (1, -1).  A shuffled
    basis changes the free monomials, and with them the basis.  For L(-1)
    only h = 0 has a kernel; h <= 4 keeps ``fraction_kernel`` on the whole
    block under a second."""
    import random

    from afflap.linalg import fraction_kernel

    rng = random.Random(0)
    for k, h_max in ((-1, 4), (1, 6), (2, 6)):
        for h in range(h_max + 1):
            block = enumerate_block(k, h)
            shuffled = rng.sample(block.monomials, block.dim)
            for basis in (block, BlockBasis(k, h, shuffled)):
                want = [{basis.monomials[i]: c for i, c in sorted(vec.items())}
                        for vec in fraction_kernel(
                            laplacian_by_definition(k, basis).to_dense_rows())]
                assert harmonic_basis(k, basis) == want, (k, h, basis.monomials)


def test_homology_kernels_run_only_on_rank_deficient_slices(monkeypatch):
    """The level pass proves every other slice of homology_table(2, 12)
    trivial, one sparsity component at a time: ``fraction_kernel`` runs once
    for each of the 25 components whose modular rank falls short, and each
    of them carries the homology of its own slice."""
    from afflap import linalg

    calls = []
    exact = linalg.fraction_kernel
    monkeypatch.setattr(linalg, "fraction_kernel",
                        lambda rows: calls.append(len(rows)) or exact(rows))
    assert len(homology_table(2, 12).entries) == len(calls) == 25


def test_a_modular_rank_deficit_sends_one_component_to_exact_elimination(monkeypatch):
    """A component of full rank left unproved mod p (one zero pivot too
    many) makes ``fraction_kernel`` run on that component too; it returns no
    vector, and the homology table does not change."""
    from afflap import linalg

    want = homology_table(2, 8)
    real = linalg._nonsingular_mod_p
    lowered = []

    def one_too_few(stack, p):
        before = stack.copy()
        full = real(stack, p)
        if not lowered and full.any():
            c = int(np.argmax(full))
            full[c] = False
            lowered.append(before[c].tolist())
        return full

    runs = []
    exact = linalg.fraction_kernel

    def recording(rows):
        runs.append((rows, exact(rows)))
        return runs[-1][1]

    monkeypatch.setattr(linalg, "_nonsingular_mod_p", one_too_few)
    monkeypatch.setattr(linalg, "fraction_kernel", recording)
    got = homology_table(2, 8)
    assert (got.entries, got.chains) == (want.entries, want.chains)
    assert len(lowered) == 1 and len(runs) == len(want.entries) + 1
    p = linalg.DEFAULT_PRIME
    assert [kernel for rows, kernel in runs
            if [[v % p for v in row] for row in rows] == lowered[0]] == [[]]


def test_a_wrong_kernel_vector_is_a_falsified_claim(monkeypatch, capsys):
    """Each kernel vector is checked to satisfy Gamma v = 0 exactly.  With
    the free entry of every ``fraction_kernel`` vector doubled, the first
    vector of a slice whose free column Gamma does not annihilate fails that
    check: homology_table and harmonic_basis raise, and the CLI exits 1."""
    from afflap import cli, linalg

    exact = linalg.fraction_kernel

    def doubled(rows):
        return [{**vec, max(vec): 2 * vec[max(vec)]} for vec in exact(rows)]

    monkeypatch.setattr(linalg, "fraction_kernel", doubled)
    message = "^kernel vector is not annihilated by Gamma on k=2, h=3, q=2, w=-1$"
    with pytest.raises(ClaimFalsified, match=message):
        homology_table(2, 3)
    with pytest.raises(ClaimFalsified, match=message):
        harmonic_basis(2, enumerate_block(2, 3))
    assert cli.main(["homology", "--k", "2", "--h-max", "3", "--jobs", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("falsified claim: kernel vector is not annihilated by Gamma "
                   "on k=2, h=3, q=2, w=-1\n")


def test_spectrum_small_blocks():
    assert spectrum(2, 2).lines == [(1, 6)]
    assert spectrum(1, 1).lines == [(0, 2), (1, 4)]
    assert spectrum(0, 0).lines == [(0, 2), (1, 2)]
    assert spectrum(-1, 0).lines == [(0, 2), (1, 6)]
    with pytest.raises(ValueError):
        spectrum(3, 2)


def test_spectrum_degree_zero_blocks():
    # for k >= 2 the degree-zero block is the unit monomial alone; the flat
    # generators enlarge it for k <= 1, and not all of it is harmonic
    # (the splitting e_1 -> e_0 ^ e_1 gives eigenvalue 1 inside L(0))
    assert spectrum(2, 0).lines == [(0, 1)]
    assert spectrum(1, 0).lines == [(0, 2)]  # the unit and the cycle e_1
    assert spectrum(0, 0).lines == [(0, 2), (1, 2)]
    assert spectrum(-1, 0).lines == [(0, 2), (1, 6)]


def test_spectrum_matches_characteristic_polynomial():
    """Independent route: the characteristic polynomial of a whole block,
    with its integer roots stripped, reproduces the spectrum lines.  The
    block is block diagonal over its slices, so the largest slice bound
    bounds its eigenvalues."""
    from afflap.linalg import gershgorin_bound, strip_integer_roots

    for k, h in ((2, 5), (1, 4), (-1, 2), (0, 3)):
        block = enumerate_block(k, h)
        bound = max(gershgorin_bound(gamma) for *_, gamma in laplacian_slices(k, h))
        poly = characteristic_polynomial(k, block)
        roots, rest = strip_integer_roots(poly, bound)
        assert rest == [1], (k, h)  # the spectrum is integral
        assert sorted(roots.items()) == spectrum(k, h).lines, (k, h)


def test_exact_certificates_match_exact_nullities():
    """Redo every nullity of the slices up to dimension 130 by fraction-free
    elimination and require agreement with the prediction and with the
    modular rank.  ``spectrum`` proves every (slice, lambda) pair exactly,
    with the residual product of every slice, and none by a modular bound."""
    from afflap.linalg import exact_nullity, nullity_mod_p

    h = 7
    for k in (-1, 2):
        res = spectrum(k, h)
        slices = list(laplacian_slices(k, h))
        assert res.modular_slices == 0
        assert res.residual_checked == len(slices)
        dims = {(q, w): basis.dim for q, w, basis, _ in slices}
        pairs = 0
        checked = {True: 0, False: 0}
        for q, w0, basis, sub in slices:
            n = basis.dim
            wp = abs(w0)
            while dims.get((q, wp), 0) or dims.get((q, wp + 1), 0):
                m_pred = dims.get((q, wp), 0) - dims.get((q, wp + 1), 0)
                if m_pred:
                    pairs += 1
                    if n <= 130:
                        lam = predicted_eigenvalue(k, wp, h)
                        assert exact_nullity(sub, lam) == m_pred == nullity_mod_p(sub, [lam])[0]
                        checked[n <= 48] += 1
                wp += 1
        assert res.exact_slices == pairs > 0
        assert checked[False] >= (3 if k == -1 else 0)


def test_certified_paths_build_no_int_matrix(monkeypatch):
    """Spectra, homology and singular multiplicities keep every slice a
    ``Coo``: ``IntMatrix`` is only the oracle type."""
    from afflap import linalg
    from afflap.sl2 import singular_multiplicities

    want = spectrum(-1, 7)
    block = enumerate_block(2, 6)

    def refuse(self, *args):
        raise AssertionError("an IntMatrix was built")

    monkeypatch.setattr(linalg.IntMatrix, "__init__", refuse)
    assert spectrum(-1, 7) == want
    assert spectrum(1, 6).lines
    assert homology_table(2, 8).matches_closed_form
    assert singular_multiplicities(2, block).dimension() == block.dim


def test_residual_product_gates_every_slice(monkeypatch, capsys):
    """The traces prove the nullities of a slice only together with
    prod (Gamma - lambda I) = 0: Gamma + I on the first slice of dimension
    above 48 fails that product, and the CLI exits 1 naming the slice."""
    from afflap import cli, laplacian

    real = laplacian.level_nullities
    shifted = []

    def plus_identity(matrix, sizes, lams):
        large = [s for s, n in enumerate(sizes) if n > 48]
        if large and not shifted:
            start, n = sum(sizes[:large[0]]), sizes[large[0]]
            shifted.append(n)
            idx = np.arange(start, start + n)
            matrix = coo_sum(matrix.shape, matrix, Coo(matrix.shape, idx, idx, np.ones_like(idx)))
        return real(matrix, sizes, lams)

    dims = {(q, w): basis.dim for q, w, basis, _ in laplacian_slices(-1, 6)}
    monkeypatch.setattr(laplacian, "level_nullities", plus_identity)
    assert cli.main(["spectrum", "--k", "-1", "--h-max", "7", "--jobs", "1"]) == 1
    out, err = capsys.readouterr()
    assert (out, shifted) == ("", [dims[4, 0]]) and dims[4, 0] > 48
    assert err == "falsified claim: residual product does not annihilate k=-1, h=6, q=4, w=0\n"


def test_a_moved_unit_of_multiplicity_fails_the_nullity_check(monkeypatch, capsys):
    """Nullities that still fill their slice but move one unit from the
    first eigenvalue to the second fail check 6 on the first slice of
    dimension above 48 with two eigenvalues, and the CLI exits 1."""
    from afflap import cli, laplacian

    real = laplacian.level_nullities
    moved = []

    def one_unit_moved(matrix, sizes, lams):
        found = real(matrix, sizes, lams)
        for s, n in enumerate(sizes):
            if n > 48 and len(lams[s]) > 1 and not moved:
                found[s][0] -= 1
                found[s][1] += 1
                moved.append(n)
        return found

    monkeypatch.setattr(laplacian, "level_nullities", one_unit_moved)
    assert cli.main(["spectrum", "--k", "-1", "--h-max", "7", "--jobs", "1"]) == 1
    out, err = capsys.readouterr()
    assert (out, moved) == ("", [49])
    assert err == "falsified claim: eigenvalue 6 on k=-1, h=6, q=4, w=0: nullity 7, predicted 8\n"


def test_scalar_law_names_the_first_failing_slice(monkeypatch, capsys):
    """Gamma + 1 on the last diagonal entry of every level of the degree-3
    block of L(1) breaks the scalar law on the last slice of each level
    only.  Check 6 with that slice's one lambda, Gamma - lambda I = 0, fails
    there first on the first level, and the CLI exits 1 naming the slice."""
    from afflap import cli, laplacian

    real = laplacian.gram

    def last_entry_shifted(parts, where):
        gamma = real(parts, where)
        if not where.startswith("k=1, h=3,"):
            return gamma
        n = gamma.shape[0]
        return coo_sum(gamma.shape, gamma, Coo((n, n), *np.array([[n - 1]] * 3)))

    q = min(len(m) for m in enumerate_block(1, 3))
    w = max(weight(m) for m in enumerate_block(1, 3) if len(m) == q)
    assert w > min(weight(m) for m in enumerate_block(1, 3) if len(m) == q)
    assert (q, w) == (1, 1)
    assert spectrum(1, 3).lines
    monkeypatch.setattr(laplacian, "gram", last_entry_shifted)
    message = f"residual product does not annihilate k=1, h=3, q={q}, w={w}"
    with pytest.raises(ClaimFalsified, match=rf"^{message}$"):
        spectrum(1, 3)
    assert cli.main(["spectrum", "--k", "1", "--h-max", "4", "--jobs", "1"]) == 1
    assert capsys.readouterr() == ("", f"falsified claim: {message}\n")


def test_residual_product_gates_the_scalar_slices(monkeypatch, capsys):
    """For k in {0, 1} check 6 runs with one lambda per slice: Gamma + I on
    the first slice of L(0) of dimension above 1 is still scalar, but not
    lambda, so Gamma - lambda I != 0 there, and the CLI exits 1 naming the
    slice."""
    from afflap import cli, laplacian

    real = laplacian.level_nullities
    shifted = []

    def plus_identity(matrix, sizes, lams):
        large = [s for s, n in enumerate(sizes) if n > 1]
        if large and not shifted:
            start, n = sum(sizes[:large[0]]), sizes[large[0]]
            shifted.append(n)
            idx = np.arange(start, start + n)
            matrix = coo_sum(matrix.shape, matrix, Coo(matrix.shape, idx, idx, np.ones_like(idx)))
        return real(matrix, sizes, lams)

    first = next((h, q, w, basis.dim) for h in range(5)
                 for q, w, basis, _ in laplacian_slices(0, h) if basis.dim > 1)
    monkeypatch.setattr(laplacian, "level_nullities", plus_identity)
    assert cli.main(["spectrum", "--k", "0", "--h-max", "4", "--jobs", "1"]) == 1
    out, err = capsys.readouterr()
    assert (out, shifted, first) == ("", [2], (1, 2, 0, 2))
    assert err == "falsified claim: residual product does not annihilate k=0, h=1, q=2, w=0\n"


def test_multiplicities_of_Lminus1_match_L0():
    # the total eigenvalue multiplicities of the two algebras coincide
    for lam_max in (4,):
        totals = {-1: {}, 0: {}}
        for k in (-1, 0):
            for h in range(lam_max + 1):
                for lam, mult in spectrum(k, h).lines:
                    if lam <= lam_max:
                        totals[k][lam] = totals[k].get(lam, 0) + mult
        assert totals[-1] == totals[0]


def test_spectrum_totals_and_positivity():
    for k in (-1, 0, 1, 2):
        for h in range(6):
            res = spectrum(k, h)
            assert sum(m for _, m in res.lines) == res.dim
            assert all(lam >= 0 for lam, _ in res.lines)
            assert res.dim == enumerate_block(k, h).dim


def test_laplacian_is_symmetric():
    # delta is the adjoint of d, so d delta + delta d is symmetric
    for k in (-1, 0, 1, 2, 3):
        for h in range(5):
            assert laplacian_by_definition(k, enumerate_block(k, h)).is_symmetric()


def test_laplacian_commutes_with_differentials():
    for k in (-1, 0, 1, 2):
        for h in range(5):
            basis = enumerate_block(k, h)
            gamma = laplacian_by_definition(k, basis)
            d = matrix_of(lambda c: differential(k, c), basis, basis)
            delta = matrix_of(lambda c: codifferential(k, c), basis, basis)
            assert gamma * d == d * gamma
            assert gamma * delta == delta * gamma


def test_laplacian_commutes_with_sl2():
    for k in (-1, 2):
        for h in range(4):
            basis = enumerate_block(k, h)
            gamma = laplacian_by_definition(k, basis)
            for g in (-1, 0, 1):
                act = matrix_of(lambda c: adjoint_action(g, c, k), basis, basis)
                assert gamma * act == act * gamma


def test_harmonic_chains_are_cycles():
    for k in (-1, 0, 1, 2):
        for h in range(5):
            basis = enumerate_block(k, h)
            for chain in harmonic_basis(k, basis):
                assert differential(k, chain) == {}


def test_homology_tables_match_closed_forms():
    for k in (-1, 0, 1, 2):
        table = homology_table(k, 6)
        assert table.matches_closed_form, table.deviations
        # a table from degree 3 up is the upper part of the whole one
        upper = homology_table(k, 6, 3)
        assert upper.matches_closed_form, upper.deviations
        assert upper.entries == {key: d for key, d in table.entries.items() if key[2] >= 3}
        assert upper.chains == {key: c for key, c in table.chains.items() if key[2] >= 3}


def test_expected_homology_forms():
    assert expected_homology(0, 8) == {(0, 0, 0): 1, (1, 0, 0): 1}
    assert expected_homology(-1, 8) == {(0, 0, 0): 1, (3, 0, 0): 1}
    e1 = expected_homology(1, 3)
    assert e1 == {(0, 0, 0): 1, (1, 1, 0): 1, (1, -1, 1): 1,
                  (2, 2, 1): 1, (2, -2, 3): 1, (3, 3, 3): 1}
    e2 = expected_homology(2, 3)
    assert e2 == {(0, 0, 0): 1, (1, -1, 1): 1, (1, 0, 1): 1, (1, 1, 1): 1,
                  (2, -2, 3): 1, (2, -1, 3): 1, (2, 0, 3): 1, (2, 1, 3): 1, (2, 2, 3): 1}


def test_lowering_orbit_family():
    for q in (1, 2, 3):
        for r in range(2 * q + 1):
            c = lowering_orbit(q, r)
            assert c, (q, r)
            assert laplacian_apply(2, c) == {}
        assert lowering_orbit(q, 2 * q + 1) == {}


def test_staircase_family_for_higher_k():
    """c_q = e_{3r+1} ^ ... in L(3r-1) is harmonic of weight q for every r."""
    from afflap.chains import raising_action

    for r, k in ((1, 2), (2, 5), (3, 8)):
        for q in (1, 2, 3):
            c = {tuple(3 * r + 1 + 3 * i for i in range(q)): 1}
            assert laplacian_apply(k, c) == {}
            assert raising_action(1, c, k) == {}
            assert adjoint_action(0, c, k) == {m: q for m in c}


def test_euler_characteristic_per_weight_eigenvalue_block():
    """Alternating q-sums over a (w, lambda) block of L(1): (-1)^w at
    lambda = 0, zero otherwise."""
    table = block_dim_table(1, 14)
    for w in range(-4, 5):
        for lam in range(5):
            h = lam + w * (w - 1) // 2
            if h < 0:
                continue
            total = 0
            for (q, ww, hh), n in table.items():
                if ww == w and hh == h:
                    total += n if q % 2 == 0 else -n
            assert total == ((1 if w % 2 == 0 else -1) if lam == 0 else 0), (w, lam)


def test_block_membership_laws():
    # (w, h) supports monomials of L(1) exactly when h >= w(w-1)/2
    dims = weight_dim_table(1, 8)
    for w in range(-6, 7):
        for h in range(9):
            assert (dims.get((w, h), 0) > 0) == (h - w * (w - 1) // 2 >= 0), (w, h)
    # dominant weight w >= 1 occurs in degree h of L(2) exactly when
    # h >= w(w+1)/2; at w = 0 the degrees 1 and 2 are genuine exceptions
    # (those blocks are V(1) and 2 V(1), with no trivial summand)
    from afflap.sl2 import singular_block_dims

    singular = {(w, h) for _, w, h in singular_block_dims(2, 8)}
    for w in range(5):
        for h in range(9):
            expected = h - w * (w + 1) // 2 >= 0 and (w, h) not in ((0, 1), (0, 2))
            assert ((w, h) in singular) == expected, (w, h)


def test_predicted_eigenvalue_laws():
    assert predicted_eigenvalue(0, 1, 0) == 1
    assert predicted_eigenvalue(1, 2, 1) == 0
    assert predicted_eigenvalue(2, 1, 2) == 1
    assert predicted_eigenvalue(-1, 1, 0) == 1
    with pytest.raises(ValueError):
        predicted_eigenvalue(5, 0, 0)


def test_irrational_spectrum_for_k3():
    finding = find_irrational_spectrum(3, 6)
    assert finding is not None
    assert finding.h == 5 and len(finding.factor) >= 3
    # the quadratic factor t^2 - 6t + 7 has roots 3 +- sqrt(2)
    assert finding.factor == (7, -6, 1)
