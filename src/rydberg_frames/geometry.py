"""Unit vectors: the directions the commands transmit, and the per-axis error
measure of a transmitted pair of axes."""

from __future__ import annotations


class UnitVector:
    """Direction in 3-space, validated to unit norm."""

    def __init__(self, x: float, y: float, z: float):
        norm2 = x * x + y * y + z * z
        if not abs(norm2 - 1.0) <= 1e-9:  # also refuses NaN
            raise ValueError(f"not a unit vector: |v|^2 = {norm2!r}")
        self.x, self.y, self.z = x, y, z


def two_axis_eta(cos_x, cos_y):
    """Mean square error per axis, 1/4 (1 - cos omega_x) + 1/4 (1 - cos omega_y)."""
    return 0.25 * (1.0 - cos_x) + 0.25 * (1.0 - cos_y)
