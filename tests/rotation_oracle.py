"""Classical z-y-z rotation matrices: the oracle for the quantum rotations."""

import math

import numpy as np

from rydberg_frames.geometry import EulerAngles


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
