import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from rydberg_frames.geometry import UnitVector, X_AXIS, Y_AXIS, Z_AXIS, perpendicular_unit
from rydberg_frames.povm_so4 import (
    _DUMP_BLOCK_ROWS,
    _DUMP_ROW,
    philox_rng,
    sample_directions_about,
    sample_error_cosines,
    sample_outcome_batch,
    so4_cos_omega,
    so4_infidelity,
    so4_povm_completeness_check,
    stark_set_operator,
)
from rydberg_frames.states import extreme_stark


def _cos_chi_moments(n):
    """Exact mean and variance of cos(chi) under the per-axis error density."""
    mean = (n - 1.0) / (n + 1.0)
    second = 1.0 - 8.0 * n / ((n + 1.0) * (n + 2.0)) + 8.0 / ((n + 1.0) * (n + 2.0)) * (n + 1.0) / 2.0
    # simpler: cos = 1 - 2s, s ~ Beta(1, n): E s = 1/(n+1), E s^2 = 2/((n+1)(n+2))
    var = 4.0 * (2.0 / ((n + 1.0) * (n + 2.0)) - 1.0 / (n + 1.0) ** 2)
    return mean, var


class TestClosedForm:
    def test_values(self):
        assert so4_cos_omega(2) == pytest.approx(1.0 / 3.0)
        assert so4_cos_omega(9) == pytest.approx(0.8)
        for n in range(2, 12):
            assert so4_infidelity(n) == pytest.approx(0.5 * (1 - so4_cos_omega(n)))

    def test_domain(self):
        with pytest.raises(ValueError):
            so4_cos_omega(1)


class TestSampling:
    @pytest.mark.parametrize("n", [3, 5, 10, 20])
    def test_mean_cosine_within_three_sigma(self, n):
        rng = philox_rng(1000 + n)
        count = 200000
        cos_chi = sample_error_cosines(n, count, rng)
        mean, var = _cos_chi_moments(n)
        assert abs(cos_chi.mean() - mean) < 3.0 * math.sqrt(var / count)

    def test_concentration_with_n(self):
        rng = philox_rng(7)
        medians = [
            float(np.median(np.arccos(sample_error_cosines(n, 50000, rng))))
            for n in (5, 20, 80)
        ]
        assert medians[0] > medians[1] > medians[2]
        assert medians[2] < 0.2

    def test_independence(self):
        batch = sample_outcome_batch(10, X_AXIS, Y_AXIS, 200000, seed=5)
        corr = np.corrcoef(batch.cos_chi1, batch.cos_chi2)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(batch.cos_chi1.size)

    def test_non_orthogonal_marginals(self):
        v2 = UnitVector.normalized(1.0, 1.0, 0.0)
        batch = sample_outcome_batch(10, X_AXIS, v2, 200000, seed=6)
        mean, var = _cos_chi_moments(10)
        se = math.sqrt(var / batch.cos_chi2.size)
        assert abs(batch.cos_chi1.mean() - mean) < 3 * se
        assert abs(batch.cos_chi2.mean() - mean) < 3 * se

    def test_seed_reproducibility(self):
        a = sample_outcome_batch(6, X_AXIS, Y_AXIS, 100, seed=3)
        b = sample_outcome_batch(6, X_AXIS, Y_AXIS, 100, seed=3)
        assert np.array_equal(a.est1, b.est1)
        assert np.array_equal(a.est2, b.est2)

    def test_csv_export(self, tmp_path):
        batch = sample_outcome_batch(5, X_AXIS, Y_AXIS, 20, seed=1)
        path = tmp_path / "outcomes.csv"
        batch.write_csv(path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample", "chi1", "chi2", "cos_chi1", "cos_chi2"]
        assert len(rows) == 21
        assert float(rows[1][3]) == pytest.approx(math.cos(float(rows[1][1])), abs=1e-9)


def _directions_oracle(n, center, count, rng):
    """The sampler as one broadcast expression (reference for the in-place form)."""
    cos_chi = sample_error_cosines(n, count, rng)
    sin_chi = np.sqrt(np.clip(1.0 - cos_chi**2, 0.0, None))
    azimuth = rng.uniform(0.0, 2.0 * math.pi, count)
    e1 = perpendicular_unit(center).as_array()
    e2 = np.cross(center.as_array(), e1)
    return (
        cos_chi[:, None] * center.as_array()[None, :]
        + (sin_chi * np.cos(azimuth))[:, None] * e1[None, :]
        + (sin_chi * np.sin(azimuth))[:, None] * e2[None, :]
    )


OBLIQUE = UnitVector.normalized(0.3, -0.5, 0.8)


@pytest.mark.parametrize("center", [X_AXIS, Y_AXIS, Z_AXIS, OBLIQUE], ids="XYZO")
def test_directions_bit_identical_to_expression(center):
    got = sample_directions_about(7, center, 50000, philox_rng(21))
    expected = _directions_oracle(7, center, 50000, philox_rng(21))
    assert got.flags.c_contiguous and got.shape == (50000, 3)
    assert np.array_equal(got, expected)


def _csv_writer_line(index, cells):
    """One dump line as `csv.writer` renders it (reference for the bytes format)."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([index] + [f"{c:.12g}" for c in cells])
    return buf.getvalue()


def _csv_writer_dump(batch, path):
    """The dump written row by row through `csv.writer` (reference writer)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample", "chi1", "chi2", "cos_chi1", "cos_chi2"])
        for i, (x1, x2, c1, c2) in enumerate(
            zip(batch.chi1, batch.chi2, batch.cos_chi1, batch.cos_chi2)
        ):
            writer.writerow([i, f"{x1:.12g}", f"{x2:.12g}", f"{c1:.12g}", f"{c2:.12g}"])


@pytest.mark.parametrize("rows", [0, 1, _DUMP_BLOCK_ROWS - 1, _DUMP_BLOCK_ROWS,
                                  _DUMP_BLOCK_ROWS + 1])
def test_dump_bytes_match_csv_writer(tmp_path, rows):
    batch = sample_outcome_batch(6, X_AXIS, OBLIQUE, rows, seed=17)
    batch.write_csv(tmp_path / "blocks.csv")
    _csv_writer_dump(batch, tmp_path / "oracle.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


_CELLS = hst.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(hst.integers(0, 10**9), _CELLS, _CELLS, _CELLS, _CELLS)
@example(0, -0.0, 5e-324, 2.2250738585072014e-308, 1.5e-5)
@example(12, 1e12, 999999999999.5, -123456789012345.0, 1e-300)
@example(3, math.nan, math.inf, -math.inf, 0.1)
def test_dump_row_format_matches_csv_writer(index, x1, x2, c1, c2):
    cells = (x1, x2, c1, c2)
    line = (_DUMP_ROW % (index, *cells)).decode("ascii")
    assert line == _csv_writer_line(index, [np.float64(c) for c in cells])


class TestStarkSetOperator:
    def test_blocks_proportional_to_identity(self):
        for n in (2, 4, 6):
            op = stark_set_operator(n)
            consts = op.block_constants()
            for l, block in enumerate(op.blocks):
                assert np.abs(block - consts[l] * np.eye(2 * l + 1)).max() < 1e-12
            assert op.off_block_max < 1e-12

    def test_constants_match_closed_form(self):
        for n in (2, 3, 5, 8):
            op = stark_set_operator(n)
            c_l = extreme_stark(n).m0_amplitudes().real
            closed = 4.0 * math.pi * c_l**2 / (2 * np.arange(n) + 1)
            assert np.allclose(op.block_constants(), closed, atol=1e-12)

    def test_trace_is_total_solid_angle(self):
        for n in (2, 5):
            op = stark_set_operator(n)
            trace = sum(float(np.trace(b).real) for b in op.blocks)
            assert trace == pytest.approx(4.0 * math.pi, abs=1e-10)

    def test_n2_block_ratio(self):
        consts = stark_set_operator(2).block_constants()
        assert consts[0] / consts[1] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_spread_confirms_non_identity(self, n):
        assert stark_set_operator(n).relative_spread() >= 0.10


class TestCompleteness:
    @pytest.mark.parametrize("n", [2, 6])
    def test_product_resolves_identity(self, n):
        assert so4_povm_completeness_check(n) < 1e-10
