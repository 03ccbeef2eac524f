import math

import numpy as np
import pytest

from rydberg_frames.geometry import UnitVector
from rydberg_frames.angmom import MAX_N
from rydberg_frames.ortho import _orthogonalize_rows, _ortho_block, gain_factor
from rydberg_frames.povm_so4 import (_DUMP_BLOCK_ROWS, _combined, philox_rng,
                                     sample_directions_about)

import stream_oracle
from rotation_oracle import (X_AXIS, Y_AXIS, Z_AXIS, angle_between, as_array, from_spherical,
                             neg, unit)


def orthogonalize(r_x, r_y):
    """One estimate pair through `_orthogonalize_rows`, as (3, 1) columns."""
    new_x, new_y = _orthogonalize_rows(as_array(r_x)[:, None], as_array(r_y)[:, None])
    return UnitVector(*new_x[:, 0]), UnitVector(*new_y[:, 0])


def sample_columns(n, count, seed):
    """(3, count) estimates of x, then of y, from one generator."""
    rng = philox_rng(seed)
    out = np.empty((2, 3, count))
    for axis in (0, 1):
        sample_directions_about(n, axis, count, rng, rng, out[axis])
    return out


class TestOrthogonalize:
    def test_symmetric_split_at_80_degrees(self):
        a = from_spherical(math.pi / 2, 0.0)
        b = from_spherical(math.pi / 2, math.radians(80.0))
        na, nb = orthogonalize(a, b)
        assert angle_between(na, nb) == pytest.approx(math.pi / 2, abs=1e-12)
        assert angle_between(na, a) == pytest.approx(math.radians(5.0), abs=1e-12)
        assert angle_between(nb, b) == pytest.approx(math.radians(5.0), abs=1e-12)

    def test_orthogonal_pair_unchanged(self):
        na, nb = orthogonalize(X_AXIS, Y_AXIS)
        assert angle_between(na, X_AXIS) < 1e-12
        assert angle_between(nb, Y_AXIS) < 1e-12

    def test_exact_orthogonality_and_plane(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = unit(*rng.normal(size=3))
            b = unit(*rng.normal(size=3))
            na, nb = orthogonalize(a, b)
            assert abs(as_array(na) @ as_array(nb)) < 1e-12
            normal = np.cross(as_array(a), as_array(b))
            normal /= np.linalg.norm(normal)
            assert abs(as_array(na) @ normal) < 1e-12
            assert abs(as_array(nb) @ normal) < 1e-12

    def test_moves_exactly_half_the_defect(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = unit(*rng.normal(size=3))
            b = unit(*rng.normal(size=3))
            na, nb = orthogonalize(a, b)
            defect = abs(math.pi / 2 - angle_between(a, b))
            assert angle_between(na, a) <= defect / 2 + 1e-12
            assert angle_between(nb, b) <= defect / 2 + 1e-12

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError):
            orthogonalize(X_AXIS, X_AXIS)
        with pytest.raises(ValueError):
            orthogonalize(X_AXIS, neg(X_AXIS))

    def test_first_order_azimuth_rule(self):
        # for small errors the new azimuths approach the mean of the old ones,
        # with O(eps^2) remainder
        def residual(eps):
            phi1, phi2t, th1, th2 = 0.9 * eps, -0.4 * eps, 0.5 * eps, -0.7 * eps
            r_x = from_spherical(math.pi / 2 + th1, phi1)
            r_y = from_spherical(math.pi / 2 + th2, math.pi / 2 + phi2t)
            na, nb = orthogonalize(r_x, r_y)
            mean = 0.5 * (phi1 + phi2t)
            phi_a = math.atan2(na.y, na.x)
            phi_b = math.atan2(nb.y, nb.x) - math.pi / 2
            return max(abs(phi_a - mean), abs(phi_b - mean))

        r1, r2 = residual(1e-2), residual(1e-3)
        assert r2 < r1 / 50.0  # quadratic, not linear, in the error size


@pytest.mark.parametrize(
    "center", [X_AXIS, Y_AXIS, Z_AXIS, unit(0.3, -0.5, 0.8)], ids="XYZO"
)
def test_orthogonalize_rows_bit_identical_to_expression(center):
    # the (3, rows) outputs are the transpose of the row-layout expression, and
    # the components picked out with given buffers are its columns
    rng = philox_rng(31)
    rows_x = stream_oracle.directions(10, center, 50000, rng)
    e1 = UnitVector(*stream_oracle.frame(center)[1])
    rows_y = stream_oracle.directions(10, e1, 50000, rng)
    expected_x, expected_y = stream_oracle.orthogonalize(rows_x, rows_y)
    r_x, r_y = np.ascontiguousarray(rows_x.T), np.ascontiguousarray(rows_y.T)
    new_x, new_y = _orthogonalize_rows(r_x, r_y)
    assert np.array_equal(new_x, expected_x.T) and np.array_equal(new_y, expected_y.T)
    out = np.empty((2, 3, 50000))
    new_x0, new_y1 = _orthogonalize_rows(r_x, r_y, 0, 1, out=out)
    assert np.array_equal(new_x0, expected_x[:, 0]) and np.array_equal(new_y1, expected_y[:, 1])
    assert np.array_equal(r_x, rows_x.T) and np.array_equal(r_y, rows_y.T)


class TestSampler:
    def test_moments_and_azimuthal_symmetry(self):
        n, count = 10, 200000
        r_x, r_y = sample_columns(n, count, seed=5)
        mean = (n - 1.0) / (n + 1.0)
        var = 4.0 * (2.0 / ((n + 1.0) * (n + 2.0)) - 1.0 / (n + 1.0) ** 2)
        se = math.sqrt(var / count)
        assert abs(r_x[0].mean() - mean) < 3 * se
        assert abs(r_y[1].mean() - mean) < 3 * se
        # azimuthal symmetry about the true axis: transverse components average to zero
        for comp in (r_x[1], r_x[2], r_y[0], r_y[2]):
            assert abs(comp.mean()) < 3.0 * comp.std() / math.sqrt(count)

    def test_per_axis_infidelity_n10(self):
        n, count = 10, 400000
        r_x, r_y = sample_columns(n, count, seed=6)
        infid = 0.25 * (1 - r_x[0]) + 0.25 * (1 - r_y[1])
        se = infid.std() / math.sqrt(count)
        assert abs(infid.mean() - 1.0 / 11.0) < 3 * se

    def test_phi_part_halving(self):
        # the mean azimuth's second moment is half a single azimuth's
        n, count = 20, 300000
        r_x, r_y = sample_columns(n, count, seed=7)
        phi1 = np.arctan2(r_x[1], r_x[0])
        phi2t = np.arctan2(r_y[1], r_y[0]) - math.pi / 2
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


B = _DUMP_BLOCK_ROWS


@pytest.mark.parametrize("n", [2, 5, 40, 101])
@pytest.mark.parametrize("samples", [100003, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 3])
def test_gain_factor_bit_identical_to_one_shot(n, samples):
    # gain_factor needs 1e5 samples, so the block edges are tested at 2B +- 1;
    # the oracle draws whole arrays and reduces them by the same block partials
    assert gain_factor(n, samples, seed=n) == stream_oracle.gain_factor(n, samples, seed=n)


@pytest.mark.parametrize("n", [2, 10, MAX_N])
@pytest.mark.parametrize("samples", [2 * B + 3, 10**6])
def test_combined_gain_reduces_as_numpy_within_rounding(n, samples):
    buffers = np.empty(14 * B)  # the buffer set of one gain_factor call
    mean, m2 = _combined(_ortho_block(n, samples, 7, buffers, start)
                         for start in range(0, samples, B))
    pair = stream_oracle.error_pair(n, samples, seed=7)
    whole_mean = pair.mean(axis=1)
    deviations = pair - whole_mean[:, None]
    # numpy's pairwise sums over the whole arrays, the sums `std` forms; np.cov
    # sums by a BLAS dot, up to 2.4e-15 off an extended-precision sum here
    whole_m2 = (deviations[:, None] * deviations).sum(axis=2)
    for block, whole in ((mean, whole_mean), (m2, whole_m2)):
        assert np.all(np.abs(block - whole) <= 1e-15 * np.abs(whole))
