import random
from fractions import Fraction

import pytest

from afflap.chains import BlockBasis, adjoint_action, enumerate_block, slices
from afflap.linalg import fraction_kernel
from afflap.sl2 import (
    ClaimFalsified,
    HalfLaurent,
    RepRingElement,
    SimpleModule,
    cg_singular_vector,
    motzkin_sums,
    singular_block_dims,
    singular_block_dims_by_q,
    singular_multiplicities,
    sl2_slices,
    tensor_power_Q,
    weyl_inverse,
    weyl_map,
)
from test_linalg import int_matrix

Z = RepRingElement.simple(2)
ONE = RepRingElement.one()


def test_rep_mul_examples():
    assert Z * Z == RepRingElement({0: 1, 2: 1, 4: 1})
    assert ONE * Z == Z
    half = RepRingElement.simple(1)
    assert half * half == RepRingElement({0: 1, 2: 1})


def test_rep_ring_axioms_sampled():
    rng = random.Random(5)
    elems = []
    for _ in range(6):
        elems.append(RepRingElement({rng.randint(0, 5): rng.randint(-3, 3)
                                     for _ in range(3)}))
    for x in elems:
        for y in elems:
            assert x * y == y * x
            for z in elems:
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
    assert all(x * ONE == x for x in elems)


def test_rep_dimension():
    assert Z.dimension() == 3
    assert (Z * Z).dimension() == 9
    assert RepRingElement.simple(1).dimension() == 2


def test_tensor_power_examples():
    assert tensor_power_Q(0) == ONE
    assert tensor_power_Q(2) == RepRingElement({0: 1, 2: 1, 4: 1})
    assert tensor_power_Q(3) == RepRingElement({0: 1, 2: 3, 4: 2, 6: 1})


def test_motzkin_sums_match_constant_terms():
    sums = motzkin_sums(13)
    assert sums[:8] == [1, 0, 1, 1, 3, 6, 15, 36]
    for r in range(13):
        assert tensor_power_Q(r).mult(0) == sums[r]


def test_weyl_map_examples():
    assert weyl_map(Z) == HalfLaurent({2: 1, 0: 1, -2: 1})
    assert weyl_map(ONE) == HalfLaurent.one()
    sq = weyl_map(Z) * weyl_map(Z)
    assert weyl_map(Z * Z) == sq
    assert sq == HalfLaurent({4: 1, 2: 2, 0: 3, -2: 2, -4: 1})


def test_weyl_map_is_ring_hom_and_invertible():
    rng = random.Random(9)
    for _ in range(15):
        x = RepRingElement({rng.randint(0, 6): rng.randint(-2, 3) for _ in range(3)})
        y = RepRingElement({rng.randint(0, 6): rng.randint(-2, 3) for _ in range(3)})
        assert weyl_map(x * y) == weyl_map(x) * weyl_map(y)
        assert weyl_map(x + y) == weyl_map(x) + weyl_map(y)
        assert weyl_inverse(weyl_map(x)) == x


def test_weyl_inverse_rejects_non_span():
    with pytest.raises(ValueError):
        weyl_inverse(HalfLaurent({2: 1}))  # bare u is not a bracket combination


def test_bracket_polynomials():
    assert HalfLaurent.bracket(3) == HalfLaurent({-2: 1, 0: 1, 2: 1})
    assert HalfLaurent.bracket(2) == HalfLaurent({-1: 1, 1: 1})
    assert HalfLaurent.bracket(1) == HalfLaurent.one()
    assert HalfLaurent.bracket(0) == HalfLaurent.zero()
    assert HalfLaurent.bracket(3).substitute_neg_u() == HalfLaurent({-2: -1, 0: 1, 2: -1})
    with pytest.raises(ValueError):
        # half-integer exponents have no sign under u -> -u
        HalfLaurent.bracket(2).substitute_neg_u()


def test_cg_singular_vector_examples():
    assert cg_singular_vector(1, 1, 1) == [Fraction(1), Fraction(-1)]
    assert cg_singular_vector(3, 2, 0) == [Fraction(1)]
    assert cg_singular_vector(1, 1, 2) == [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)]
    assert cg_singular_vector(Fraction(1, 2), Fraction(1, 2), 1) == [Fraction(1), Fraction(-1)]
    with pytest.raises(ValueError):
        cg_singular_vector(1, 1, 3)
    with pytest.raises(ValueError):
        cg_singular_vector(Fraction(1, 2), 2, 2)  # p beyond 2 min(w1, w2)
    with pytest.raises(ValueError):
        cg_singular_vector(Fraction(1, 3), 1, 0)


def test_cg_grid_is_annihilated():
    # the construction self-verifies; this just sweeps the advertised grid
    for d1 in range(7):
        for d2 in range(7):
            for p in range(min(d1, d2) + 1):
                coeffs = cg_singular_vector(Fraction(d1, 2), Fraction(d2, 2), p)
                assert coeffs[0] > 0


def test_simple_module_lowering_orbit():
    m = SimpleModule(4)
    # v_p nonzero exactly for p <= 2w
    assert m.act(-1, 3) == (Fraction(1), 4)
    assert m.act(-1, 4) is None
    assert m.act(1, 0) is None
    assert m.act(0, 2) is None  # weight zero in the middle


def test_view_relations_and_singular_mults():
    # the sl2 relations hold slice by slice (sl2_slices raises otherwise)
    for _ in sl2_slices(2, slices(enumerate_block(2, 2))):
        pass
    assert singular_multiplicities(2, enumerate_block(2, 2)) == RepRingElement({2: 2})
    block0 = enumerate_block(-1, 0)
    assert singular_multiplicities(-1, block0) == RepRingElement({0: 2, 2: 2})


def _basis_from_monomials(monomials):
    return BlockBasis(2, 0, sorted(monomials))


def test_adjoint_triples_are_adjoint_modules():
    # each M_a = span(e_{3a-1}, e_{3a}, e_{3a+1}) is one copy of the adjoint
    for a in (1, 2, 3):
        basis = _basis_from_monomials([(3 * a - 1,), (3 * a,), (3 * a + 1,)])
        assert singular_multiplicities(2, basis) == RepRingElement({2: 1})


def test_wedge_powers_of_adjoint_triples():
    # the q-th wedge of M_a is simple with dominant weight 0, 1, 1, 0
    import itertools

    for a in (1, 2):
        gens = (3 * a - 1, 3 * a, 3 * a + 1)
        for q, want in ((0, 0), (1, 2), (2, 2), (3, 0)):
            monos = [tuple(sorted(c)) for c in itertools.combinations(gens, q)]
            basis = _basis_from_monomials(monos)
            assert singular_multiplicities(2, basis) == RepRingElement({want: 1})


def test_singular_characters_multiply():
    """Singular multiplicities of a tensor product factor through the
    Clebsch-Gordan product."""
    import itertools

    def wedge_algebra(gen_lists):
        gens = [g for gl in gen_lists for g in gl]
        monos = []
        for q in range(len(gens) + 1):
            monos.extend(tuple(sorted(c)) for c in itertools.combinations(gens, q))
        return _basis_from_monomials(monos)

    a_gens = (2, 3, 4)
    b_gens = (5, 6, 7)
    s_a = singular_multiplicities(2, wedge_algebra([a_gens]))
    s_b = singular_multiplicities(2, wedge_algebra([b_gens]))
    s_ab = singular_multiplicities(2, wedge_algebra([a_gens, b_gens]))
    assert s_ab == s_a * s_b


def test_casimir_acts_by_weight_law():
    """On each singular vector of weight w the Casimir gives w(w+1); it
    commutes with e_1 and with e_-1 = E^T between neighbouring slices."""
    for k, h in ((2, 2), (2, 3), (-1, 1)):
        before = None  # (q, w, E_w, C) of the slice just before
        for q, w, _, up, cas in sl2_slices(k, slices(enumerate_block(k, h))):
            up, cas = int_matrix(up), int_matrix(cas)
            if before and before[:2] == (q, w - 1):
                up_below, cas_below = before[2:]
                assert cas * up_below == up_below * cas_below
                assert cas_below * up_below.transpose() == up_below.transpose() * cas
            before = (q, w, up, cas)
            if w < 0:
                continue
            # the kernel of E_w is the singular subspace of the slice
            # a zero row stands in for the rows of an E_w without any
            for vec in fraction_kernel(up.to_dense_rows() or [[0] * up.cols]):
                expect = {i: c * w * (w + 1) for i, c in vec.items() if w}
                assert cas.apply(vec) == expect, (k, h, w)


def test_lowering_orbit_of_chain_singular_vector():
    # e_4 ^ e_7 has weight 2: four lowerings survive, the fifth dies
    c = {(4, 7): 1}
    for p in range(1, 5):
        c = adjoint_action(-1, c, 2)
        assert c, p
    assert adjoint_action(-1, c, 2) == {}


def test_singular_block_dims_examples():
    assert singular_block_dims(2, 1, 2) == 2
    assert singular_block_dims_by_q(2, 1, 2) == {1: 1, 2: 1}
    assert singular_block_dims(2, 1, 1) == 1
    assert singular_block_dims(-1, 0, 0) == 2
    assert singular_block_dims_by_q(-1, 0, 0) == {0: 1, 3: 1}
    with pytest.raises(ValueError):
        singular_block_dims(0, 1, 1)
    with pytest.raises(ValueError):
        singular_block_dims(2, -1, 1)
    with pytest.raises(ValueError):
        singular_block_dims_by_q(2, -1, 1)


def test_singular_by_q_is_checked(monkeypatch):
    """One count moved between q = 1 and q = 2 at weight 1 of the (2, 2)
    block keeps every weight total: the by-q counts then disagree with the
    matrix route at w = 1 and turn negative at w = 0."""
    from afflap import sl2

    real = sl2.block_dim_table

    def moved(k, h_max):
        table = dict(real(k, h_max))
        if (k, h_max) == (2, 2):
            table[(1, 1, 2)] -= 1
            table[(2, 1, 2)] += 1
        return table

    monkeypatch.setattr(sl2, "block_dim_table", moved)
    with pytest.raises(ClaimFalsified,
                       match=r"^singular dimensions by q mismatch at k=2, h=2, w=1$"):
        singular_block_dims_by_q(2, 1, 2)
    with pytest.raises(ClaimFalsified,
                       match=r"^weight dimensions not unimodal at k=2, h=2, q=2, w=0$"):
        singular_block_dims_by_q(2, 0, 2)


def test_singular_block_dims_top_weight():
    # one singular chain at the triangular degree, dominant weight q
    for q in (1, 2, 3):
        h = q * (q + 1) // 2
        assert singular_block_dims(2, q, h) == 1
        assert singular_block_dims_by_q(2, q, h).get(q) == 1
