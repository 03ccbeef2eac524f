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
)
from .geometry import EulerAngles, UnitVector, X_AXIS, Y_AXIS, Z_AXIS
from .ortho import GainReport, gain_factor
from .povm_so3 import (
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
    OutcomeBatch,
    philox_rng,
    sample_outcome_batch,
    so4_infidelity,
    stark_block_constants,
)
from .states import (
    EllipticSpec,
    WaveFunction,
    build_elliptic,
    circular_state,
    dispersion_sum,
    extreme_stark,
    lk_moments,
    overlap,
    product_amplitudes,
    rotate,
)
