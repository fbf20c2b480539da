"""Exact-arithmetic toolkit for the graded chain complexes of the
index-bounded subalgebras of affine sl2: Laplacian spectra, harmonic chains,
homology, sl2 singular decompositions, and the attached q-series identities,
all verified over the rationals with no floating point anywhere.
"""

__version__ = "0.1.0"

from .chains import (
    BlockBasis,
    adjoint_action,
    block_dim_table,
    codifferential,
    conjugate_action,
    differential,
    enumerate_block,
    matrix_of,
    normalize_wedge,
    weight_dim_table,
)
from .generators import bracket, epsilon, generator_degree
from .identities import IdentityReport, all_identities, verify_identity
from .laplacian import (
    ClaimFalsified,
    HomologyTable,
    SpectrumResult,
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
    spectrum,
    staircase_chain,
    two_dim_pairing_oracle,
)
from .linalg import IntMatrix
from .series import Series, theta
from .sl2 import (
    HalfLaurent,
    RepRingElement,
    cg_singular_vector,
    motzkin_sums,
    singular_block_dims,
    singular_multiplicities,
    tensor_power_Q,
    weyl_inverse,
    weyl_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
