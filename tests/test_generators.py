from afflap.generators import bracket, epsilon, generator_degree


def test_epsilon_values():
    assert epsilon(0) == 0
    assert epsilon(4) == 1
    assert epsilon(-1) == -1
    assert [epsilon(m) for m in (-3, -2, -1, 0, 1, 2, 3)] == [0, 1, -1, 0, 1, -1, 0]


def test_epsilon_period_and_oddness():
    for m in range(-30, 31):
        assert epsilon(m) == epsilon(m + 3) == epsilon(m - 3)
        assert epsilon(-m) == -epsilon(m)
        assert epsilon(m) in (-1, 0, 1)


def test_generator_degree_values():
    assert generator_degree(4) == 1
    assert generator_degree(0) == 0
    assert generator_degree(-1) == 0
    # (a - epsilon(a)) is always divisible by 3
    for a in range(-30, 31):
        assert 3 * generator_degree(a) == a - epsilon(a)


def test_bracket_values():
    assert bracket(2, 3) == (1, 5)
    assert bracket(3, 6) == (0, 9)
    assert bracket(1, -1) == (1, 0)
    assert bracket(-1, 1) == (-1, 0)


def test_bracket_antisymmetry():
    for a in range(-8, 9):
        for b in range(-8, 9):
            ca, ia = bracket(a, b)
            cb, ib = bracket(b, a)
            assert ia == ib and ca == -cb


def test_jacobi_identity():
    """eps(b-a)eps(c-a-b) + eps(c-b)eps(a-b-c) + eps(a-c)eps(b-c-a) = 0."""
    for a in range(-10, 11):
        for b in range(-10, 11):
            for c in range(-10, 11):
                s = (epsilon(b - a) * epsilon(c - a - b)
                     + epsilon(c - b) * epsilon(a - b - c)
                     + epsilon(a - c) * epsilon(b - c - a))
                assert s == 0


def test_gradings_additive_under_bracket():
    for a in range(-9, 10):
        for b in range(-9, 10):
            coeff, idx = bracket(a, b)
            if coeff:
                assert generator_degree(idx) == generator_degree(a) + generator_degree(b)
                assert epsilon(idx) == epsilon(a) + epsilon(b)
