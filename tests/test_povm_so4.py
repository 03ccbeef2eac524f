import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from rydberg_frames.angmom import MAX_N, coherent_coeffs, small_d_matrices
from rydberg_frames.geometry import X_AXIS, Y_AXIS, Z_AXIS, perpendicular_unit
from rydberg_frames.povm_so4 import (
    _DUMP_BLOCK_ROWS,
    _DUMP_ROW,
    direction_blocks,
    philox_rng,
    sample_directions_about,
    sample_error_cosines,
    sample_outcome_batch,
    so4_infidelity,
    stark_block_constants,
)
from rydberg_frames.states import extreme_stark

import stream_oracle
from rotation_oracle import unit


def _cos_chi_moments(n):
    """Exact mean and variance of cos(chi) under the per-axis error density."""
    mean = (n - 1.0) / (n + 1.0)
    second = 1.0 - 8.0 * n / ((n + 1.0) * (n + 2.0)) + 8.0 / ((n + 1.0) * (n + 2.0)) * (n + 1.0) / 2.0
    # simpler: cos = 1 - 2s, s ~ Beta(1, n): E s = 1/(n+1), E s^2 = 2/((n+1)(n+2))
    var = 4.0 * (2.0 / ((n + 1.0) * (n + 2.0)) - 1.0 / (n + 1.0) ** 2)
    return mean, var


class TestClosedForm:
    def test_values(self):
        # mean error cosine (n-1)/(n+1) = 1/3 at n = 2 and 0.8 at n = 9
        assert so4_infidelity(2) == pytest.approx(0.5 * (1 - 1.0 / 3.0))
        assert so4_infidelity(9) == pytest.approx(0.5 * (1 - 0.8))

    def test_domain(self):
        with pytest.raises(ValueError):
            so4_infidelity(1)


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
        v2 = unit(1.0, 1.0, 0.0)
        batch = sample_outcome_batch(10, X_AXIS, v2, 200000, seed=6)
        mean, var = _cos_chi_moments(10)
        se = math.sqrt(var / batch.cos_chi2.size)
        assert abs(batch.cos_chi1.mean() - mean) < 3 * se
        assert abs(batch.cos_chi2.mean() - mean) < 3 * se

    def test_seed_reproducibility(self):
        a = sample_outcome_batch(6, X_AXIS, Y_AXIS, 100, seed=3)
        b = sample_outcome_batch(6, X_AXIS, Y_AXIS, 100, seed=3)
        assert np.array_equal(a.cos_chi1, b.cos_chi1)
        assert np.array_equal(a.cos_chi2, b.cos_chi2)

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


OBLIQUE = unit(0.3, -0.5, 0.8)


@pytest.mark.parametrize("center", [X_AXIS, Y_AXIS, Z_AXIS, OBLIQUE], ids="XYZO")
def test_directions_bit_identical_to_expression(center):
    rng = philox_rng(21)
    got = sample_directions_about(7, center, 50000, rng, rng)
    expected = _directions_oracle(7, center, 50000, philox_rng(21))
    assert got.flags.c_contiguous and got.shape == (50000, 3)
    assert np.array_equal(got, expected)


def _csv_writer_line(index, cells):
    """One dump line as `csv.writer` renders it (reference for the bytes format)."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([index] + [f"{c:.12g}" for c in cells])
    return buf.getvalue()


def _csv_writer_dump(batch, path):
    """The dump written row by row through `csv.writer` (reference writer),
    with chi taken of the whole cosine arrays."""
    chi1, chi2 = (np.arccos(np.clip(c, -1.0, 1.0)) for c in (batch.cos_chi1, batch.cos_chi2))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample", "chi1", "chi2", "cos_chi1", "cos_chi2"])
        for i, (x1, x2, c1, c2) in enumerate(
            zip(chi1, chi2, batch.cos_chi1, batch.cos_chi2)
        ):
            writer.writerow([i, f"{x1:.12g}", f"{x2:.12g}", f"{c1:.12g}", f"{c2:.12g}"])


@pytest.mark.parametrize("rows", [0, 1, _DUMP_BLOCK_ROWS - 1, _DUMP_BLOCK_ROWS,
                                  _DUMP_BLOCK_ROWS + 1, 2 * _DUMP_BLOCK_ROWS + 3])
def test_dump_bytes_match_csv_writer(tmp_path, rows):
    batch = sample_outcome_batch(6, X_AXIS, OBLIQUE, rows, seed=17)
    batch.write_csv(tmp_path / "blocks.csv")
    _csv_writer_dump(batch, tmp_path / "oracle.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


B = _DUMP_BLOCK_ROWS


@pytest.mark.parametrize("n", [2, 5, 40, MAX_N])
@pytest.mark.parametrize("count", [0, 2, 7, B - 1, B, B + 1, 2 * B + 3, 131075])
@pytest.mark.parametrize("v2", [Y_AXIS, OBLIQUE], ids=["Y", "O"])
def test_outcome_cosines_bit_identical_to_one_shot(n, count, v2):
    batch = sample_outcome_batch(n, X_AXIS, v2, count, seed=n)
    cos_chi1, cos_chi2 = stream_oracle.one_shot_cosines(n, count, seed=n)
    assert np.array_equal(batch.cos_chi1, cos_chi1)
    assert np.array_equal(batch.cos_chi2, cos_chi2)


@pytest.mark.parametrize("n", [2, 5, 40, MAX_N])
@pytest.mark.parametrize("count", [2, 7, B + 1, 131075])
@pytest.mark.parametrize("v2", [Y_AXIS, OBLIQUE], ids=["Y", "O"])
def test_outcome_cosines_match_the_vector_route(n, count, v2):
    # the estimates dotted with their axes give back the drawn cosines: bit for
    # bit on the coordinate axes, within rounding about an oblique axis
    batch = sample_outcome_batch(n, X_AXIS, v2, count, seed=n)
    cos_chi1, cos_chi2 = stream_oracle.outcome_cosines(n, X_AXIS, v2, count, seed=n)
    assert np.array_equal(batch.cos_chi1, cos_chi1)
    if v2 is Y_AXIS:
        assert np.array_equal(batch.cos_chi2, cos_chi2)
    else:
        assert np.max(np.abs(batch.cos_chi2 - cos_chi2)) <= 5e-16


def test_direction_blocks_cover_the_rows_in_order():
    count = 2 * B + 3
    est1, est2 = stream_oracle.sample_error_arrays(7, count, 4, X_AXIS, OBLIQUE)
    stops = []
    for start, block1, block2 in direction_blocks(7, X_AXIS, OBLIQUE, count, 4):
        stops.append(start + len(block1))
        assert np.array_equal(block1, est1[start:stops[-1]])
        assert np.array_equal(block2, est2[start:stops[-1]])
    assert stops == [B, 2 * B, count]


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


def stark_set_grid(n):
    """Oracle: B = integral over the sphere of |K,u><K,u| dOmega on a product grid.

    2n Gauss-Legendre nodes in cos(theta) and 4n+4 equispaced azimuths
    integrate the degree-2(n-1) integrand exactly. Returns the full
    (n^2, n^2) matrix over the |l m> basis, blocks in ascending l.
    """
    c_l = extreme_stark(n).m0_amplitudes().real
    n_theta, n_phi = 2 * n, 4 * n + 4
    x, w_theta = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(x)
    phis = np.arange(n_phi) * 2.0 * math.pi / n_phi
    vectors = np.zeros((n_theta * n_phi, n * n), dtype=complex)
    for l in range(n):
        m_vals = np.arange(-l, l + 1)
        d_col = small_d_matrices(l, thetas)[:, :, l]  # d^l_{m,0}(theta)
        phase = np.exp(-1j * np.outer(phis, m_vals))
        amp = c_l[l] * np.einsum("tm,pm->tpm", d_col, phase).reshape(-1, 2 * l + 1)
        vectors[:, l * l : (l + 1) ** 2] = amp
    weights = np.repeat(w_theta, n_phi) * (2.0 * math.pi / n_phi)
    return (vectors.conj() * weights[:, None]).T @ vectors


def grid_blocks(full, n):
    """The l-blocks of a matrix over the |l m> basis, and its largest off-block entry."""
    blocks = [full[l * l : (l + 1) ** 2, l * l : (l + 1) ** 2] for l in range(n)]
    residual = full.copy()
    for l in range(n):
        residual[l * l : (l + 1) ** 2, l * l : (l + 1) ** 2] = 0.0
    return blocks, float(np.abs(residual).max())


def grid_block_constants(n):
    blocks, _ = grid_blocks(stark_set_grid(n), n)
    return np.array([np.trace(b).real / (2 * l + 1) for l, b in enumerate(blocks)])


def relative_spread(consts):
    return float((consts.max() - consts.min()) / consts.mean())


def so4_povm_completeness_grid(n):
    """Oracle: max |entry| deviation of the doubly integrated product POVM from identity.

    Each SO(3) factor is integrated on its own Euler grid at the degree of the
    spin-j representation; the product is their Kronecker product.
    """
    j = (n - 1) / 2.0
    factors = []
    for u in (X_AXIS, Y_AXIS):
        theta_u, phi_u = u.spherical()
        c = coherent_coeffs(j, theta_u, phi_u)
        n_beta, n_ang = n, 2 * n + 2
        x, w_beta = np.polynomial.legendre.leggauss(n_beta)
        betas = np.arccos(x)
        angles = np.arange(n_ang) * 2.0 * math.pi / n_ang
        m_vals = np.arange(n) - j
        phase_psi = np.exp(-1j * np.outer(angles, m_vals))  # rows psi, cols m'
        phase_phi = np.exp(-1j * np.outer(m_vals, angles))  # rows m, cols phi
        d_stack = small_d_matrices(j, betas)
        factor = np.zeros((n, n), dtype=complex)
        for b in range(n_beta):
            rotated = d_stack[b] @ (c[:, None] * phase_phi)  # (m', phi)
            v = phase_psi.T[:, :, None] * rotated[:, None, :]  # (m', psi, phi)
            factor += (w_beta[b] / 2.0) * np.einsum("apq,bpq->ab", v, v.conj()) / (
                n_ang * n_ang
            )
        factor *= n  # Schur weight 2j+1
        factors.append(factor)
    product = np.kron(factors[0], factors[1])
    return float(np.abs(product - np.eye(n * n)).max())


class TestStarkSetOperator:
    def test_blocks_proportional_to_identity(self):
        for n in range(2, 9):
            blocks, off_block_max = grid_blocks(stark_set_grid(n), n)
            consts = stark_block_constants(n)
            for l, block in enumerate(blocks):
                assert np.abs(block - consts[l] * np.eye(2 * l + 1)).max() <= 1e-12
            assert off_block_max <= 1e-12

    def test_constants_match_closed_form(self):
        for n in range(2, 9):
            grid = grid_block_constants(n)
            assert np.abs(grid - stark_block_constants(n)).max() <= 1e-12

    def test_trace_is_total_solid_angle(self):
        for n in (2, 5):
            trace = float(np.trace(stark_set_grid(n)).real)
            assert trace == pytest.approx(4.0 * math.pi, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 10, 40, MAX_N])
    def test_closed_form_positive_and_sums_to_solid_angle(self, n):
        consts = stark_block_constants(n)
        assert consts.min() > 0.0
        assert abs(float((2 * np.arange(n) + 1) @ consts) - 4.0 * math.pi) <= 1e-12

    def test_n2_block_ratio(self):
        consts = stark_block_constants(2)
        assert consts[0] / consts[1] == pytest.approx(3.0, abs=1e-12)
        grid = grid_block_constants(2)
        assert grid[0] / grid[1] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_spread_confirms_non_identity(self, n):
        assert relative_spread(grid_block_constants(n)) >= 0.10
        assert relative_spread(stark_block_constants(n)) >= 0.10


class TestCompleteness:
    @pytest.mark.parametrize("n", [2, 6])
    def test_product_resolves_identity(self, n):
        assert so4_povm_completeness_grid(n) < 1e-10
