"""Generator calculus for the index-bounded subalgebras of affine sl2.

The ambient algebra has a basis ``e_a`` indexed by the integers, together
with a central element acting diagonally by the degree grading.  The bracket
is ``[e_a, e_b] = epsilon(b - a) * e_{a+b}``, so every structure constant is
-1, 0 or +1 and all computations reduce to integer arithmetic on indices.

``L(k)`` denotes the subalgebra spanned by the ``e_a`` with ``a >= k``.
"""

from __future__ import annotations


def epsilon(m: int) -> int:
    """Period-3 sign of an index: -1, 0, +1 for m = -1, 0, 1 (mod 3); also
    the weight of e_m, its eigenvalue under the adjoint e_0 action."""
    r = m % 3
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def generator_degree(a: int) -> int:
    """Degree of e_a, the eigenvalue of the central grading element.

    Equals ``(a - epsilon(a)) / 3``, which is always an integer.
    """
    return (a - epsilon(a)) // 3


def bracket(a: int, b: int) -> tuple[int, int]:
    """Structure constants: ``[e_a, e_b] = coeff * e_index``.

    Returns ``(coeff, index) = (epsilon(b - a), a + b)``; a zero coefficient
    means the bracket vanishes.
    """
    return epsilon(b - a), a + b
