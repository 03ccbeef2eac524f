"""Classical z-y-z rotation matrices, the oracle for the quantum rotations;
the Wigner d kernel and the rotation of a state table they check; the axes
and vector helpers the tests build directions with; and the spin coherent
states, and the shell coherent state of any two directions through their
spherical angles (the commands build only the two-axis state, in real
arithmetic from its symmetry).

All rotations are active z-y-z, U = exp(-i J_z psi) exp(-i J_y theta) exp(-i J_z phi).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from rydberg_frames.angmom import MAX_N
from rydberg_frames.geometry import UnitVector

from cg_oracle import from_product_amplitudes
from shell_table import spin_matrices, to_product_amplitudes

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EulerAngles:
    """Active z-y-z rotation, theta in [0, pi]: the frame change the indicators must follow."""

    psi: float
    theta: float
    phi: float

    def __post_init__(self):
        if not -1e-9 <= self.theta <= math.pi + 1e-9:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", min(max(float(self.theta), 0.0), math.pi))
        object.__setattr__(self, "psi", float(self.psi) % TWO_PI)
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)


# the axes of the frame the two-axis scheme transmits
X_AXIS = UnitVector(1.0, 0.0, 0.0)
Y_AXIS = UnitVector(0.0, 1.0, 0.0)
Z_AXIS = UnitVector(0.0, 0.0, 1.0)


def as_array(v: UnitVector) -> np.ndarray:
    """The components (x, y, z) of a transmitted direction, for vector algebra."""
    return np.array([v.x, v.y, v.z])


def unit(x, y, z) -> UnitVector:
    """The direction of (x, y, z)."""
    r = math.sqrt(x * x + y * y + z * z)
    if r < 1e-12:
        raise ValueError("cannot normalize a null vector")
    return UnitVector(x / r, y / r, z / r)


def neg(v: UnitVector) -> UnitVector:
    return UnitVector(-v.x, -v.y, -v.z)


def angle_between(a: UnitVector, b: UnitVector) -> float:
    """The angle from a to b in [0, pi], by atan2 of |a x b| and a . b."""
    cross = np.cross(as_array(a), as_array(b))
    return math.atan2(float(np.linalg.norm(cross)), a.x * b.x + a.y * b.y + a.z * b.z)


def from_spherical(theta, phi) -> UnitVector:
    """The direction at polar angle theta and azimuth phi."""
    st = math.sin(theta)
    return UnitVector(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def spherical(v: UnitVector):
    """Polar and azimuthal angles (theta, phi), phi in [0, 2pi); phi = 0 at the poles."""
    theta = math.acos(min(max(v.z, -1.0), 1.0))
    if math.hypot(v.x, v.y) < 1e-15:
        return theta, 0.0
    return theta, math.atan2(v.y, v.x) % TWO_PI


def coherent_coeffs(n: int, theta: float, phi: float) -> np.ndarray:
    """Coefficients of the spin-j = (n-1)/2 coherent state along (theta, phi).

    Returns the complex vector D^j_m(theta, phi) indexed by m = -j .. j
    ascending, i.e. the expansion of exp(-i J_z phi) exp(-i J_y theta) |j j>
    in the |j m> basis:

        D^j_m = binom(2j, j+m)^(1/2) cos(theta/2)^(j+m) sin(theta/2)^(j-m) e^(-i m phi)
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"dimension {n} outside [1, MAX_N = {MAX_N}]")
    tj = n - 1
    # the correctly rounded root of each exact binomial, and the powers by
    # running products: IEEE sqrt and multiply, whose bits no SIMD target of
    # numpy changes (its float exp, log and power loops differ between targets)
    root_binom = np.sqrt([float(math.comb(tj, k)) for k in range(n)])
    cos_pow = np.cumprod(np.append(1.0, np.full(tj, math.cos(theta / 2.0))))
    sin_pow = np.cumprod(np.append(1.0, np.full(tj, math.sin(theta / 2.0))))
    mag = root_binom * cos_pow * sin_pow[::-1]
    m_values = np.arange(n) - tj / 2.0
    return mag * np.exp(-1j * m_values * phi)


def product_amplitudes(n: int, u1: UnitVector, u2: UnitVector) -> np.ndarray:
    """Two-spin amplitude table c1 (x) c2 of the coherent state for (u1, u2)."""
    return np.outer(coherent_coeffs(n, *spherical(u1)), coherent_coeffs(n, *spherical(u2)))


def build_elliptic(n: int, u1: UnitVector, u2: UnitVector) -> np.ndarray:
    """Shell coherent state for directions (u1, u2): its |l m> table.

    Coefficients are a_{lm} = sum over m1+m2=m of
    D^j_{m1}(theta1, phi1) D^j_{m2}(theta2, phi2) C^{jj l}_{m1 m2 m}.
    """
    return from_product_amplitudes(n, product_amplitudes(n, u1, u2))


def _rotation_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_matrix(angles: EulerAngles) -> np.ndarray:
    """R_z(psi) R_y(theta) R_z(phi) for active z-y-z Euler angles."""
    c, s = math.cos(angles.theta), math.sin(angles.theta)
    rotation_y = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return _rotation_z(angles.psi) @ rotation_y @ _rotation_z(angles.phi)


def matrix_to_euler(rot: np.ndarray) -> EulerAngles:
    """Euler angles of a rotation matrix whose theta is away from 0 and pi."""
    theta = math.acos(min(max(float(rot[2, 2]), -1.0), 1.0))
    assert math.sin(theta) > 1e-9, "gimbal pole"
    return EulerAngles(math.atan2(rot[1, 2], rot[0, 2]), theta, math.atan2(rot[2, 1], -rot[2, 0]))


@lru_cache(maxsize=None)
def _jy_eig(n: int):
    """Eigendecomposition of J_y, the d kernel's one factorization per spin."""
    eigvals, eigvecs = np.linalg.eigh(spin_matrices(n)[1])
    eigvals.setflags(write=False)
    eigvecs.setflags(write=False)
    return eigvals, eigvecs


def small_d_matrices(n: int, betas) -> np.ndarray:
    """The d^j(beta) = exp(-i J_y beta) stack over betas: rotations for the covariance checks."""
    # shape (len(betas), n, n), rows mp and columns m ascending from -j, as
    # V exp(-i beta Lambda) V^H from the eigendecomposition of J_y, one batched
    # matrix product for all betas; it stays accurate at every j, where the
    # term-by-term sum loses all digits by j = 60 (the imaginary part vanishes)
    eigvals, eigvecs = _jy_eig(n)
    phases = np.exp(-1j * np.outer(np.asarray(betas, dtype=float), eigvals))
    stack = (eigvecs * phases[:, None, :]) @ eigvecs.conj().T
    return np.ascontiguousarray(stack.real)


def rotate(state: np.ndarray, angles: EulerAngles) -> np.ndarray:
    """U(psi, theta, phi) of a state table, as D psi D^T on the two-spin table:
    a rotated indicator stays coherent."""
    n = state.shape[0]
    m = np.arange(n) - (n - 1) / 2.0
    big_d = (np.exp(-1j * m * angles.psi)[:, None]
             * small_d_matrices(n, [angles.theta])[0]
             * np.exp(-1j * m * angles.phi)[None, :])
    return from_product_amplitudes(n, big_d @ to_product_amplitudes(state) @ big_d.T)
