import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from rydberg_frames.angmom import MAX_N
from rydberg_frames.povm_so4 import (
    _CELL_WORDS,
    _DUMP_BLOCK_ROWS,
    _WORD,
    _cell_words,
    _digit_groups,
    _render_rows,
    philox_rng,
    sample_directions_about,
    sample_error_cosines,
    sample_outcome_batch,
    so4_infidelity,
)
from rydberg_frames.states import extreme_stark

import stream_oracle
from rotation_oracle import X_AXIS, Y_AXIS, coherent_coeffs, small_d_matrices, spherical, unit
from stark_blocks import stark_block_constants


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
        cos_chi1, cos_chi2 = stream_oracle.block_cosines(10, 200000, seed=5)
        corr = np.corrcoef(cos_chi1, cos_chi2)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(cos_chi1.size)

    def test_non_orthogonal_marginals(self):
        # estimates drawn about x and a non-orthogonal axis, dotted with their
        # axes, have the per-axis marginal each
        count = 200000
        cos_chi1, cos_chi2 = stream_oracle.outcome_cosines(10, X_AXIS, unit(1.0, 1.0, 0.0),
                                                           count, seed=6)
        mean, var = _cos_chi_moments(10)
        se = math.sqrt(var / count)
        assert abs(cos_chi1.mean() - mean) < 3 * se
        assert abs(cos_chi2.mean() - mean) < 3 * se

    def test_seed_reproducibility(self):
        a, b = (stream_oracle.block_cosines(6, 100, seed=3) for _ in range(2))
        assert np.array_equal(a, b)
        a, b = (sample_outcome_batch(6, 100, seed=3).error_moments() for _ in range(2))
        assert np.array_equal(a, b)

    def test_csv_export(self, tmp_path):
        batch = sample_outcome_batch(5, 20, seed=1)
        path = tmp_path / "outcomes.csv"
        batch.write_csv(path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample", "chi1", "chi2", "cos_chi1", "cos_chi2"]
        assert len(rows) == 21
        assert float(rows[1][3]) == pytest.approx(math.cos(float(rows[1][1])), abs=1e-9)


OBLIQUE = unit(0.3, -0.5, 0.8)


@pytest.mark.parametrize("axis", [0, 1], ids="XY")
def test_directions_bit_identical_to_expression(axis):
    # the (3, count) columns drawn about a coordinate axis are the transpose of
    # the oracle's general-frame expression about that axis
    rng = philox_rng(21)
    out = np.full((3, 50000), np.nan)
    assert sample_directions_about(7, axis, 50000, rng, rng, out) is out
    expected = stream_oracle.directions(7, (X_AXIS, Y_AXIS)[axis], 50000, philox_rng(21))
    assert np.array_equal(out, expected.T)


@pytest.mark.parametrize("n", [2, 10, MAX_N])
@pytest.mark.parametrize("axis", [0, 1], ids="XY")
def test_directions_match_the_sin_cos_route(n, axis):
    # the sampler against the route it replaced, written out here: np.cos and
    # np.sin of azimuths phi in [0, 2 pi) measured from e1, over 10^6 draws in
    # 8 chunks. Shifting the azimuth by the double pi moves a component by at
    # most 3.4e-16, and a cos az within 1 ulp moves sqrt((1 - c)(1 + c)) by
    # at most 2.2e-16 / |sin az|; that component's error is bounded in this
    # scaled form, since its largest absolute value comes from whichever
    # draw lies nearest 0 or pi (1.7e-11 to 5.9e-11 over seeds at n = 2)
    center, e1, e2 = stream_oracle.frame((X_AXIS, Y_AXIS)[axis])
    cos_rng, azimuth_rng, ref_cos, ref_azimuth, replay = (
        philox_rng(seed) for seed in (n, n + 1, n, n + 1, n + 1))
    rows = 125000
    out = np.empty((3, rows))
    for _ in range(8):
        sample_directions_about(n, axis, rows, cos_rng, azimuth_rng, out)
        cos_chi = stream_oracle.cosines(n, rows, ref_cos)
        sin_chi = np.sqrt(1.0 - cos_chi**2)
        phi = ref_azimuth.uniform(0.0, 2.0 * math.pi, rows)
        sin_phi = np.sin(phi)
        ref = (np.outer(center, cos_chi) + np.outer(e1, sin_chi * np.cos(phi))
               + np.outer(e2, sin_chi * sin_phi))
        assert np.max(np.abs(np.sqrt(np.sum(out * out, axis=0)) - 1.0)) <= 1e-15
        assert np.max(np.abs(out[:2] - ref[:2])) <= 1e-15  # cos chi and sin chi cos az
        assert np.all(np.abs(out[2] - ref[2]) * np.abs(sin_phi) <= 6.7e-16 * sin_chi)
        # the sine takes the sign of its azimuth in [-pi, pi)
        assert np.array_equal(np.signbit(out[2]),
                              np.signbit(replay.uniform(-math.pi, math.pi, rows)))


def _csv_writer_line(index, cells):
    """One dump line as `csv.writer` renders it (reference for the bytes format)."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([index] + [f"{c:.12g}" for c in cells])
    return buf.getvalue()


B = _DUMP_BLOCK_ROWS


# every block edge at n = 6, and the two ends of the shell range: at n = 2 the
# cosines crowd -1 and chi pi, at MAX_N chi crowds its decade boundary 0.1
@pytest.mark.parametrize("n, rows", [pytest.param(6, rows, id=str(rows))
                                     for rows in (0, 1, B - 1, B, B + 1, 2 * B + 3)]
                         + [pytest.param(n, B + 1, id=f"n{n}-{B + 1}") for n in (2, MAX_N)])
def test_dump_bytes_match_csv_writer(tmp_path, n, rows):
    sample_outcome_batch(n, rows, seed=17).write_csv(tmp_path / "blocks.csv")
    stream_oracle.csv_writer_dump(stream_oracle.one_shot_cosines(n, rows, seed=17),
                                  tmp_path / "oracle.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("n", [2, 5, 40, MAX_N])
@pytest.mark.parametrize("count", [0, 2, 7, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize("v2", [Y_AXIS, OBLIQUE], ids=["Y", "O"])
def test_outcome_cosines_bit_identical_to_one_shot(n, count, v2):
    # the cosines are drawn without the axes, so they are the same for every v2
    blocks = stream_oracle.block_cosines(n, count, seed=n)
    cos_chi1, cos_chi2 = stream_oracle.one_shot_cosines(n, count, seed=n)
    assert np.array_equal(blocks[0], cos_chi1)
    assert np.array_equal(blocks[1], cos_chi2)


@pytest.mark.parametrize("n", [2, 5, 40, MAX_N])
@pytest.mark.parametrize("count", [2, 7, B + 1, 131075])
@pytest.mark.parametrize("v2", [Y_AXIS, OBLIQUE], ids=["Y", "O"])
def test_outcome_cosines_match_the_vector_route(n, count, v2):
    # the estimates dotted with their axes give back the drawn cosines: bit for
    # bit on the coordinate axes, within rounding about an oblique axis
    blocks = stream_oracle.block_cosines(n, count, seed=n)
    cos_chi1, cos_chi2 = stream_oracle.outcome_cosines(n, X_AXIS, v2, count, seed=n)
    assert np.array_equal(blocks[0], cos_chi1)
    if v2 is Y_AXIS:
        assert np.array_equal(blocks[1], cos_chi2)
    else:
        assert np.max(np.abs(blocks[1] - cos_chi2)) <= 5e-16


def _whole_array_moments(n, count, seed):
    """numpy's mean and std(ddof=1) of each axis's errors 0.5 * (1 - cos chi),
    taken of the whole one-shot cosine arrays."""
    errors = [0.5 * (1.0 - c) for c in stream_oracle.one_shot_cosines(n, count, seed)]
    return np.array([e.mean() for e in errors]), np.array([e.std(ddof=1) for e in errors])


def _block_moments(n, count, seed):
    """The mean and standard deviation `so4` reports, from the blocks' partials."""
    mean, m2 = sample_outcome_batch(n, count, seed).error_moments()
    return mean, np.sqrt(m2 / (count - 1))


@settings(max_examples=40, deadline=None)
@given(hst.integers(2, MAX_N), hst.integers(2, B), hst.integers(0, 2**32))
@example(2, B, 0)
@example(MAX_N, 2, 1)
def test_one_block_reduces_as_numpy_bit_for_bit(n, count, seed):
    for block, whole in zip(_block_moments(n, count, seed), _whole_array_moments(n, count, seed)):
        assert np.array_equal(block, whole)


@pytest.mark.parametrize("n", [2, 10, MAX_N])
@pytest.mark.parametrize("count", [B + 1, 2 * B + 3, 10**6])
def test_combined_blocks_reduce_as_numpy_within_rounding(n, count):
    for block, whole in zip(_block_moments(n, count, 7), _whole_array_moments(n, count, 7)):
        assert np.all(np.abs(block - whole) <= 1e-15 * np.abs(whole))


def _rendered_cells(cells):
    """The renderer's text of each double in `cells`, one bytes object per cell."""
    out = np.full(cells.shape + (_CELL_WORDS,), 0xFFFFFFFF, _WORD)  # no word may stay unwritten
    _cell_words(cells, out)
    return out.tobytes().translate(None, b"\0").split(b",")[1:]


def test_digit_groups_are_the_groups_whole_and_trimmed():
    table = _digit_groups().tobytes()
    assert len(table) == 4 * 20000
    for g in range(10000):
        text = b"%04d" % g
        assert table[4 * (10000 + g) : 4 * (10001 + g)] == text
        assert table[4 * g : 4 * (g + 1)] == text.rstrip(b"0").ljust(4, b"\0")


def _ulps(x, count):
    """The doubles within `count` ulps of the positive double x."""
    return (np.float64(x).view(np.int64) + np.arange(-count, count + 1)).view(np.float64)


def test_cells_match_percent_format_at_the_edges():
    # decade boundaries, the halfway decimals of the 12th digit and their
    # neighbours, carries into the next decade, and the values `%` formats
    rng = np.random.default_rng(5)
    edges = [_ulps(float(f"1e{k}"), 60) for k in range(-6, 2)]
    for e in range(-6, 2):
        mantissas = np.concatenate([rng.integers(10**11, 10**12, 400), [10**11, 10**12 - 1]])
        for m in mantissas:
            edges.append(_ulps(float(f"{m}.5e{e - 11}"), 2))
    edges.append(np.array([0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                           1e-300, 1.5e-5, 9.9999999999995e-5, 9.99999999999949, 1e12,
                           999999999999.5, 123456789012345.0, 1e300, 1.7976931348623157e308,
                           math.nan, math.inf]))
    edges.append(rng.uniform(0.0, math.pi, 20000))
    edges.append(rng.integers(0, 2**63, 20000).view(np.float64))  # any bit pattern
    cells = np.concatenate(edges)
    cells = np.concatenate([cells, -cells])
    assert _rendered_cells(cells) == [b"%.12g" % x for x in cells.tolist()]
    assert _rendered_cells(cells.reshape(-1, 2)) == _rendered_cells(cells)


_CELLS = hst.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(hst.integers(0, 10**9), _CELLS, _CELLS, _CELLS, _CELLS)
@example(0, -0.0, 5e-324, 2.2250738585072014e-308, 1.5e-5)
@example(12, 1e12, 999999999999.5, -123456789012345.0, 1e-300)
@example(3, math.nan, math.inf, -math.inf, 0.1)
def test_dump_row_format_matches_csv_writer(index, x1, x2, c1, c2):
    cells = (x1, x2, c1, c2)
    line = _render_rows(index, np.array([cells])).decode("ascii")
    assert line == _csv_writer_line(index, [np.float64(c) for c in cells])


def stark_set_grid(n):
    """Oracle: B = integral over the sphere of |K,u><K,u| dOmega on a product grid.

    2n Gauss-Legendre nodes in cos(theta) and 4n+4 equispaced azimuths
    integrate the degree-2(n-1) integrand exactly. Returns the full
    (n^2, n^2) matrix over the |l m> basis, blocks in ascending l.
    """
    c_l = np.real(extreme_stark(n).m0_amplitudes())
    n_theta, n_phi = 2 * n, 4 * n + 4
    x, w_theta = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(x)
    phis = np.arange(n_phi) * 2.0 * math.pi / n_phi
    vectors = np.zeros((n_theta * n_phi, n * n), dtype=complex)
    for l in range(n):
        m_vals = np.arange(-l, l + 1)
        d_col = small_d_matrices(2 * l + 1, thetas)[:, :, l]  # d^l_{m,0}(theta)
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
        theta_u, phi_u = spherical(u)
        c = coherent_coeffs(n, theta_u, phi_u)
        n_beta, n_ang = n, 2 * n + 2
        x, w_beta = np.polynomial.legendre.leggauss(n_beta)
        betas = np.arccos(x)
        angles = np.arange(n_ang) * 2.0 * math.pi / n_ang
        m_vals = np.arange(n) - j
        phase_psi = np.exp(-1j * np.outer(angles, m_vals))  # rows psi, cols m'
        phase_phi = np.exp(-1j * np.outer(m_vals, angles))  # rows m, cols phi
        d_stack = small_d_matrices(n, betas)
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
