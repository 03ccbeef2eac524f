"""Direction transmission with coherent states of the hydrogenic n-shell.

Construction of circular, maximal-K, and general two-direction coherent
states, rotation-covariant measurement fidelities for one and two axes,
eccentricity optimization, product-measurement sampling, and the
orthogonalization error gain.
"""

import os

# before numpy loads: one BLAS thread unless the user says otherwise, so the
# Monte Carlo path forks a single-threaded process and runs one level of workers
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .angmom import coherent_coeffs, small_d_matrices
from .geometry import EulerAngles, UnitVector, X_AXIS, Y_AXIS, Z_AXIS
from .ortho import GainReport, gain_factor
from .povm_so3 import (
    QuadratureRule,
    alice_two_axis_state,
    bob_fiducial,
    cos_omega_xy,
    cos_omega_z,
    m0_overlap_matrix,
    optimal_m0_state,
    optimize_eccentricity,
)
from .povm_so4 import (
    OutcomeBatch,
    philox_rng,
    sample_outcome_batch,
    so4_infidelity,
)
from .states import (
    EllipticSpec,
    WaveFunction,
    build_elliptic,
    circular_state,
    extreme_stark,
    lk_moments,
    product_amplitudes,
)
