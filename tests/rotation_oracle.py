"""Classical z-y-z rotation matrices, the oracle for the quantum rotations,
and the vector helpers the tests build directions with."""

import math

import numpy as np

from rydberg_frames.geometry import EulerAngles, UnitVector


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
    cross = np.cross(a.as_array(), b.as_array())
    return math.atan2(float(np.linalg.norm(cross)), a.x * b.x + a.y * b.y + a.z * b.z)


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
