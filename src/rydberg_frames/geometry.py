"""Unit vectors: the directions the commands transmit, in Cartesian and spherical
form, and the per-axis error measure of a transmitted pair of axes."""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


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
    def from_spherical(cls, theta, phi) -> "UnitVector":
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    def spherical(self):
        """Polar and azimuthal angles (theta, phi), phi in [0, 2pi); phi = 0 at the poles."""
        theta = math.acos(min(max(self.z, -1.0), 1.0))
        if math.hypot(self.x, self.y) < 1e-15:
            return theta, 0.0
        phi = math.atan2(self.y, self.x) % TWO_PI
        return theta, phi


def two_axis_eta(cos_x, cos_y):
    """Mean square error per axis, 1/4 (1 - cos omega_x) + 1/4 (1 - cos omega_y)."""
    return 0.25 * (1.0 - cos_x) + 0.25 * (1.0 - cos_y)
