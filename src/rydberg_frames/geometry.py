"""Unit vectors and Euler angles.

All rotations are active z-y-z, U = exp(-i J_z psi) exp(-i J_y theta) exp(-i J_z phi),
the convention used everywhere else in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EulerAngles:
    """Active z-y-z rotation parameters, canonicalized to theta in [0, pi]."""

    psi: float
    theta: float
    phi: float

    def __post_init__(self):
        if not -1e-9 <= self.theta <= math.pi + 1e-9:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", min(max(float(self.theta), 0.0), math.pi))
        object.__setattr__(self, "psi", float(self.psi) % TWO_PI)
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)


@dataclass(frozen=True)
class UnitVector:
    """Direction in 3-space, validated to unit norm."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not abs(norm2 - 1.0) <= 1e-9:  # also refuses NaN
            raise ValueError(f"not a unit vector: |v|^2 = {norm2!r}")

    @classmethod
    def from_array(cls, arr) -> "UnitVector":
        x, y, z = (float(c) for c in arr)
        return cls(x, y, z)

    @classmethod
    def from_spherical(cls, theta, phi) -> "UnitVector":
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def spherical(self):
        """Polar and azimuthal angles (theta, phi), phi in [0, 2pi); phi = 0 at the poles."""
        theta = math.acos(min(max(self.z, -1.0), 1.0))
        if math.hypot(self.x, self.y) < 1e-15:
            return theta, 0.0
        phi = math.atan2(self.y, self.x) % TWO_PI
        return theta, phi


X_AXIS = UnitVector(1.0, 0.0, 0.0)
Y_AXIS = UnitVector(0.0, 1.0, 0.0)
Z_AXIS = UnitVector(0.0, 0.0, 1.0)

