import math

import numpy as np
import pytest

from rydberg_frames.geometry import UnitVector

from rotation_oracle import EulerAngles, as_array, from_spherical, spherical, unit


def test_unit_vector_validation():
    for bad in ((1.0, 1.0, 0.0), (math.nan, 0.0, 0.0)):
        with pytest.raises(ValueError):
            UnitVector(*bad)
    v = unit(3.0, 4.0, 0.0)
    assert v.x == pytest.approx(0.6)
    with pytest.raises(ValueError):
        unit(0.0, 0.0, 0.0)


def test_spherical_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = unit(*rng.normal(size=3))
        theta, phi = spherical(v)
        back = from_spherical(theta, phi)
        assert np.allclose(as_array(v), as_array(back), atol=1e-12)


def test_euler_angles_canonicalization():
    a = EulerAngles(-0.5, 1.0, 7.0)
    assert 0.0 <= a.psi < 2 * math.pi
    assert 0.0 <= a.phi < 2 * math.pi
    with pytest.raises(ValueError):
        EulerAngles(0.0, -1.0, 0.0)
