"""Unit vectors: the directions the commands transmit, and the per-axis error
measure of a transmitted pair of axes."""

from __future__ import annotations

from dataclasses import dataclass


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


def two_axis_eta(cos_x, cos_y):
    """Mean square error per axis, 1/4 (1 - cos omega_x) + 1/4 (1 - cos omega_y)."""
    return 0.25 * (1.0 - cos_x) + 0.25 * (1.0 - cos_y)
