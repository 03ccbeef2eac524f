import math

import numpy as np
import pytest

from rydberg_frames.geometry import UnitVector, X_AXIS, Y_AXIS, Z_AXIS, perpendicular_unit
from rydberg_frames.ortho import (
    _orthogonalize_rows,
    gain_factor,
    sample_error_arrays,
)
from rydberg_frames.povm_so4 import philox_rng, sample_directions_about


def orthogonalize(r_x, r_y):
    """One estimate pair through `_orthogonalize_rows`, as (1, 3) rows."""
    new_x, new_y = _orthogonalize_rows(r_x.as_array()[None, :], r_y.as_array()[None, :])
    return UnitVector.from_array(new_x[0]), UnitVector.from_array(new_y[0])


class TestOrthogonalize:
    def test_symmetric_split_at_80_degrees(self):
        a = UnitVector.from_spherical(math.pi / 2, 0.0)
        b = UnitVector.from_spherical(math.pi / 2, math.radians(80.0))
        na, nb = orthogonalize(a, b)
        assert na.angle_to(nb) == pytest.approx(math.pi / 2, abs=1e-12)
        assert na.angle_to(a) == pytest.approx(math.radians(5.0), abs=1e-12)
        assert nb.angle_to(b) == pytest.approx(math.radians(5.0), abs=1e-12)

    def test_orthogonal_pair_unchanged(self):
        na, nb = orthogonalize(X_AXIS, Y_AXIS)
        assert na.angle_to(X_AXIS) < 1e-12
        assert nb.angle_to(Y_AXIS) < 1e-12

    def test_exact_orthogonality_and_plane(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = UnitVector.normalized(*rng.normal(size=3))
            b = UnitVector.normalized(*rng.normal(size=3))
            na, nb = orthogonalize(a, b)
            assert abs(na.dot(nb)) < 1e-12
            normal = np.cross(a.as_array(), b.as_array())
            normal /= np.linalg.norm(normal)
            assert abs(na.as_array() @ normal) < 1e-12
            assert abs(nb.as_array() @ normal) < 1e-12

    def test_moves_exactly_half_the_defect(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = UnitVector.normalized(*rng.normal(size=3))
            b = UnitVector.normalized(*rng.normal(size=3))
            na, nb = orthogonalize(a, b)
            defect = abs(math.pi / 2 - a.angle_to(b))
            assert na.angle_to(a) <= defect / 2 + 1e-12
            assert nb.angle_to(b) <= defect / 2 + 1e-12

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError):
            orthogonalize(X_AXIS, X_AXIS)
        with pytest.raises(ValueError):
            orthogonalize(X_AXIS, -X_AXIS)

    def test_first_order_azimuth_rule(self):
        # for small errors the new azimuths approach the mean of the old ones,
        # with O(eps^2) remainder
        def residual(eps):
            phi1, phi2t, th1, th2 = 0.9 * eps, -0.4 * eps, 0.5 * eps, -0.7 * eps
            r_x = UnitVector.from_spherical(math.pi / 2 + th1, phi1)
            r_y = UnitVector.from_spherical(math.pi / 2 + th2, math.pi / 2 + phi2t)
            na, nb = orthogonalize(r_x, r_y)
            mean = 0.5 * (phi1 + phi2t)
            phi_a = math.atan2(na.y, na.x)
            phi_b = math.atan2(nb.y, nb.x) - math.pi / 2
            return max(abs(phi_a - mean), abs(phi_b - mean))

        r1, r2 = residual(1e-2), residual(1e-3)
        assert r2 < r1 / 50.0  # quadratic, not linear, in the error size


def _orthogonalize_oracle(r_x, r_y):
    """The orthogonalization as array expressions (reference for the in-place form)."""
    total = r_x + r_y
    diff = r_x - r_y
    b = total / np.linalg.norm(total, axis=-1, keepdims=True)
    q = diff / np.linalg.norm(diff, axis=-1, keepdims=True)
    half = 1.0 / math.sqrt(2.0)
    return half * (b + q), half * (b - q)


@pytest.mark.parametrize(
    "center", [X_AXIS, Y_AXIS, Z_AXIS, UnitVector.normalized(0.3, -0.5, 0.8)], ids="XYZO"
)
def test_orthogonalize_rows_bit_identical_to_expression(center):
    rng = philox_rng(31)
    r_x = sample_directions_about(10, center, 50000, rng)
    r_y = sample_directions_about(10, perpendicular_unit(center), 50000, rng)
    inputs = (r_x.copy(), r_y.copy())
    got = _orthogonalize_rows(r_x, r_y)
    expected = _orthogonalize_oracle(r_x, r_y)
    assert np.array_equal(r_x, inputs[0]) and np.array_equal(r_y, inputs[1])
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


class TestSampler:
    def test_moments_and_azimuthal_symmetry(self):
        n, count = 10, 200000
        r_x, r_y = sample_error_arrays(n, count, seed=5)
        mean = (n - 1.0) / (n + 1.0)
        var = 4.0 * (2.0 / ((n + 1.0) * (n + 2.0)) - 1.0 / (n + 1.0) ** 2)
        se = math.sqrt(var / count)
        assert abs(r_x[:, 0].mean() - mean) < 3 * se
        assert abs(r_y[:, 1].mean() - mean) < 3 * se
        # azimuthal symmetry about the true axis: transverse components average to zero
        for comp in (r_x[:, 1], r_x[:, 2], r_y[:, 0], r_y[:, 2]):
            assert abs(comp.mean()) < 3.0 * comp.std() / math.sqrt(count)

    def test_per_axis_infidelity_n10(self):
        n, count = 10, 400000
        r_x, r_y = sample_error_arrays(n, count, seed=6)
        infid = 0.25 * (1 - r_x[:, 0]) + 0.25 * (1 - r_y[:, 1])
        se = infid.std() / math.sqrt(count)
        assert abs(infid.mean() - 1.0 / 11.0) < 3 * se

    def test_phi_part_halving(self):
        # the mean azimuth's second moment is half a single azimuth's
        n, count = 20, 300000
        r_x, r_y = sample_error_arrays(n, count, seed=7)
        phi1 = np.arctan2(r_x[:, 1], r_x[:, 0])
        phi2t = np.arctan2(r_y[:, 1], r_y[:, 0]) - math.pi / 2
        mean_sq = (0.5 * (phi1 + phi2t)) ** 2
        target = 0.5 * (phi1**2).mean()
        se = mean_sq.std() / math.sqrt(count) + (phi1**2).std() / math.sqrt(count)
        assert abs(mean_sq.mean() - target) < 3 * se


class TestGainFactor:
    def test_g_matches_closed_form(self):
        for n in (5, 20):
            report = gain_factor(n, 300000, seed=8)
            var = 4.0 * (2.0 / ((n + 1.0) * (n + 2.0)) - 1.0 / (n + 1.0) ** 2)
            se = math.sqrt(2.0 * var / 16.0 / report.samples)
            assert abs(report.g - 1.0 / (n + 1.0)) < 3 * se

    def test_ratio_monotone_toward_three_quarters(self):
        ratios = [gain_factor(n, 400000, seed=9 + n).ratio for n in (5, 10, 20, 40)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(r > 0.75 for r in ratios)

    def test_ratio_small_n_adjustment_does_not_help(self):
        # at n=5 the raw errors are ~30 degrees and the exact in-plane
        # adjustment slightly increases the error (measured 1.014 +- 0.002)
        report = gain_factor(5, 400000, seed=10)
        assert 0.98 < report.ratio < 1.05

    def test_ratio_asymptote(self):
        # the large-n limit of the gain is 3/4; at n=400 the measured ratio
        # sits inside 0.75 +- 0.01
        report = gain_factor(400, 10**6, seed=11)
        assert abs(report.ratio - 0.75) < 0.01
        assert report.ratio_stderr < 0.002

    def test_sample_requirement(self):
        with pytest.raises(ValueError):
            gain_factor(5, 50000, seed=0)
