"""Direction transmission with coherent states of the hydrogenic n-shell.

Construction of circular, maximal-K, and general two-direction coherent
states, rotation-covariant measurement fidelities for one and two axes,
eccentricity optimization, product-measurement sampling, and the
orthogonalization error gain.
"""

__version__ = "0.1.0"

from .angmom import (
    HalfInt,
    clebsch_gordan,
    coherent_coeffs,
    small_d_matrices,
    wigner_D,
    wigner_small_d,
)
from .geometry import EulerAngles, UnitVector, X_AXIS, Y_AXIS, Z_AXIS
from .ortho import GainReport, gain_factor, orthogonalize
from .povm_so3 import (
    FidelityReport,
    FiducialVector,
    QuadratureRule,
    alice_two_axis_state,
    bob_fiducial,
    cos_omega_xy,
    cos_omega_z,
    cos_omega_z_m0,
    m0_overlap_matrix,
    optimal_m0_state,
    optimize_eccentricity,
    povm_completeness_deviation,
)
from .povm_so4 import (
    BlockOperator,
    OutcomeBatch,
    philox_rng,
    sample_outcome_batch,
    so4_cos_omega,
    so4_infidelity,
    so4_povm_completeness_check,
    stark_set_operator,
)
from .states import (
    EllipticSpec,
    ProductState,
    WaveFunction,
    build_elliptic,
    circular_state,
    dispersion_sum,
    eccentricity,
    expectation_LK,
    extreme_stark,
    lk_moments,
    overlap,
    product_state,
    rotate,
)
