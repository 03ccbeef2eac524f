import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from rydberg_frames.angmom import MAX_N
from rydberg_frames.povm_so3 import alice_two_axis_state
from rydberg_frames.states import WaveFunction, circular_state, extreme_stark
from cg_oracle import (
    HalfInt,
    clebsch_gordan,
    coupling_tensor,
    dense_coupling,
    dense_from_product_amplitudes,
    from_product_amplitudes,
)
from rotation_oracle import (
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    EulerAngles,
    angle_between,
    as_array,
    build_elliptic,
    euler_matrix,
    from_spherical,
    matrix_to_euler,
    neg,
    product_amplitudes,
    rotate,
    unit,
)
from shell_table import (
    block,
    dispersion_sum,
    lk_moments,
    padded,
    povm_completeness_deviation,
    random_rows_state,
    random_wavefunction,
    to_product_amplitudes,
    two_axis_table_40,
)


def random_direction(rng):
    return unit(*rng.normal(size=3))


class TestConstruction:
    def test_aligned_directions_give_circular(self):
        for n in (2, 5, 9):
            wf = build_elliptic(n, Z_AXIS, Z_AXIS)
            assert abs(wf[n - 1, -1]) == pytest.approx(1.0, abs=1e-12)
            circular = padded(circular_state(n))
            assert abs(np.vdot(wf, circular)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_opposite_directions_give_maximal_k(self):
        for n in (2, 3, 7):
            wf = build_elliptic(n, neg(Z_AXIS), Z_AXIS)
            stark = padded(extreme_stark(n))
            assert abs(np.vdot(wf, stark)) ** 2 == pytest.approx(1.0, abs=1e-12)
            j = (n - 1) / 2
            for l in range(n):
                assert wf[l, n - 1].real == pytest.approx(
                    clebsch_gordan(j, j, l, -j, j, 0), abs=1e-12
                )

    def test_circular_state_n2(self):
        wf = circular_state(2)
        assert padded(wf)[1, 2] == 1.0
        assert wf.norm() == pytest.approx(1.0)

    def test_stark_n3_coefficients(self):
        wf = padded(extreme_stark(3))
        expected = [1 / math.sqrt(3), 1 / math.sqrt(2), 1 / math.sqrt(6)]
        for l, mag in enumerate(expected):
            assert abs(wf[l, 2]) == pytest.approx(mag, abs=1e-14)
        lvec = lk_moments(wf)[0]
        assert abs(lvec[2]) < 1e-12  # <L_z> = 0

    def test_stark_column_is_the_racah_column_bit_for_bit(self):
        # the closed form and the exact Racah sum both round one rational once
        for n in range(2, MAX_N + 1):
            j = (n - 1) / 2
            exact = [clebsch_gordan(j, j, l, -j, j, 0) for l in range(n)]
            assert np.array_equal(extreme_stark(n).m0_amplitudes(), exact)

    def test_stark_n10_printed_row(self):
        printed = [0.3162, 0.4954, 0.5222, 0.4534, 0.3365,
                   0.2148, 0.1167, 0.0526, 0.0186, 0.0045]
        wf = padded(extreme_stark(10))
        for l, ref in enumerate(printed):
            value = abs(wf[l, 9])
            assert math.floor(value * 1e4) / 1e4 == pytest.approx(ref, abs=1e-12)

    def test_build_output_normalized(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            wf = build_elliptic(6, random_direction(rng), random_direction(rng))
            assert np.linalg.norm(wf) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_factors(self):
        # a unit-norm table of rank one: the outer product of two unit spinors
        singular = np.linalg.svd(product_amplitudes(5, X_AXIS, Y_AXIS))[1]
        assert singular[0] == pytest.approx(1.0, abs=1e-13)
        assert np.abs(singular[1:]).max() < 1e-13

    def test_wavefunction_validation(self):
        # rows of lengths 1, 3 for n = 2 and one turn per row; a state has no
        # entry outside |m| <= l to refuse, since no row holds one
        for rows, turns, message in (
            ([[1.0], [1.0, 0.0, 0.0]], [0, 0], "norm"),  # norm 2
            ([[1.0]], [0], "shape"),
            ([[1.0], [0.0, 0.0]], [0, 0], "shape"),
            ([[0.6, 0.0, 0.8], [0.0]], [0, 0], "shape"),
            ([[1.0], [0.0, 0.0, 0.0]], [0], "shape"),
            ([[np.nan], [0.0, 0.0, 0.0]], [0, 0], "norm"),
        ):
            with pytest.raises(ValueError, match=message):
                WaveFunction(2, rows, turns)

    def test_shell_range(self):
        for n in (1, MAX_N + 1):
            rows = [[0.0] * (2 * l + 1) for l in range(n)]
            rows[0][0] = 1.0
            with pytest.raises(ValueError, match="MAX_N"):
                WaveFunction(n, rows, [0] * n)
        with pytest.raises(ValueError):
            build_elliptic(MAX_N + 1, X_AXIS, Y_AXIS)


def racah_column(n, tm1, tm2):
    """Exact-sum C^{jj l}_{m1 m2} for every l, from twice the projections."""
    j = HalfInt(n - 1)
    return np.array([
        clebsch_gordan(j, j, l, HalfInt(tm1), HalfInt(tm2), HalfInt(tm1 + tm2))
        if abs(tm1 + tm2) <= 2 * l else 0.0
        for l in range(n)
    ])


class TestCouplingTensor:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_racah_oracle(self, n):
        # every entry, so both signs of M = m1 + m2
        tensor = dense_coupling(n)
        for i1 in range(n):
            for i2 in range(n):
                expected = racah_column(n, 2 * i1 - (n - 1), 2 * i2 - (n - 1))
                assert np.abs(tensor[:, i1, i2] - expected).max() <= 1e-14

    @pytest.mark.parametrize("n, i1", [(70, 35), (101, 51), (101, 75)])
    def test_large_shell_sign_convention(self, n, i1):
        # the M = 0 column through (m1, -m1); the m1 = +j entry of |l 0> is
        # below rounding for large l, so a sign taken from it would be noise
        # and flip whole columns by O(0.1)
        expected = racah_column(n, 2 * i1 - (n - 1), (n - 1) - 2 * i1)
        got = dense_coupling(n)[:, i1, n - 1 - i1]
        assert np.abs(got - expected).max() <= 1e-13

    @pytest.mark.parametrize("n", [40, 64, 101])
    def test_orthonormal_per_projection(self, n):
        # block M >= 0: rows l = M .. n-1, one column per m1 with m1 + m2 = M
        blocks = coupling_tensor(n)
        assert len(blocks) == n
        for big_m, block in enumerate(blocks):
            assert block.shape == (n - big_m,) * 2 and not block.flags.writeable
            eye = np.eye(n - big_m)
            assert np.abs(block @ block.T - eye).max() <= 1e-12
            assert np.abs(block.T @ block - eye).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 25, 40, MAX_N])
    def test_blocks_hold_the_swap_parity_exactly(self, n):
        # C(m2, m1) = (-1)^(2j-l) C(m1, m2): reversing the columns of block M
        # gives back each row l times (-1)^(2j-l), bit for bit
        parity = (-1.0) ** (n - 1 - np.arange(n))
        for big_m, block in enumerate(coupling_tensor(n)):
            assert np.array_equal(parity[big_m:, None] * block[:, ::-1], block), big_m

    def test_only_the_nonnegative_projections_are_cached(self):
        # sum over M = 0 .. n-1 of (n-M)^2 = n(n+1)(2n+1)/6 doubles, 348,551
        # (2.8 MB) at n = MAX_N; all 2n-1 blocks would hold n(2n^2+1)/3 (5.5 MB)
        n = MAX_N
        assert sum(block.size for block in coupling_tensor(n)) == n * (n + 1) * (2 * n + 1) // 6


def test_shell_caches_are_bounded():
    # every shell built stays resident only while it is among the last few
    from rydberg_frames.povm_so3 import _cg_plane
    from rydberg_frames.states import _row_weights

    # _cg_plane is keyed by the shell and the plane q = 0 or 1
    for kernel, key in ((_row_weights, lambda n: (n,)), (_cg_plane, lambda n: (n, n % 2))):
        bound = kernel.cache_info().maxsize
        assert bound is not None
        for n in range(2, bound + 5):
            kernel(*key(n))
            assert kernel.cache_info().currsize <= bound


@settings(max_examples=6, deadline=None)
@given(hst.integers(2, MAX_N))
@example(MAX_N)
def test_coupling_tensor_orthogonal_up_to_max_n(n):
    # per M the rows l >= |M| and the columns m1 + m2 = M form a square
    # orthogonal matrix: orthonormal rows and orthonormal columns
    for block in coupling_tensor(n):
        eye = np.eye(block.shape[0])
        assert np.abs(block @ block.T - eye).max() <= 1e-12
        assert np.abs(block.T @ block - eye).max() <= 1e-12


class TestExpectations:
    def test_elliptic_frame_components(self):
        rng = np.random.default_rng(11)
        for n in (4, 9):
            for _ in range(3):
                d1, d2 = random_direction(rng), random_direction(rng)
                lvec, kvec = lk_moments(build_elliptic(n, d1, d2))[:2]
                u1, u2 = as_array(d1), as_array(d2)
                k, ell = u2 - u1, u1 + u2  # lengths 2 sin(zeta), 2 cos(zeta)
                w = np.cross(ell, k)
                assert kvec @ k == pytest.approx((n - 1) * (k @ k) / 2, abs=1e-10)
                assert lvec @ ell == pytest.approx((n - 1) * (ell @ ell) / 2, abs=1e-10)
                for vec, axis in ((kvec, ell), (kvec, w), (lvec, k), (lvec, w)):
                    assert abs(vec @ axis) < 1e-10

    def test_mean_vectors_parallel_to_frame(self):
        rng = np.random.default_rng(12)
        d1, d2 = random_direction(rng), random_direction(rng)
        lvec, kvec = lk_moments(build_elliptic(7, d1, d2))[:2]
        u1, u2 = as_array(d1), as_array(d2)
        assert np.linalg.norm(np.cross(kvec, u2 - u1)) < 1e-10
        assert np.linalg.norm(np.cross(lvec, u1 + u2)) < 1e-10

    def test_circular_expectations(self):
        for n in (2, 6):
            lvec, kvec = lk_moments(padded(circular_state(n)))[:2]
            assert np.linalg.norm(kvec) < 1e-12
            assert lvec[2] == pytest.approx(n - 1.0, abs=1e-12)

    def test_product_state_route_agrees_with_coupled(self):
        rng = np.random.default_rng(24)
        args = (7, random_direction(rng), random_direction(rng))
        l_prod, k_prod = lk_moments(product_amplitudes(*args))[:2]
        l_wf, k_wf = lk_moments(build_elliptic(*args))[:2]
        assert np.allclose(l_prod, l_wf, atol=1e-10)
        assert np.allclose(k_prod, k_wf, atol=1e-10)

    def test_dispersion_coherent(self):
        rng = np.random.default_rng(13)
        for n in (2, 5, 11, 64):
            args = (n, random_direction(rng), random_direction(rng))
            assert dispersion_sum(build_elliptic(*args)) == pytest.approx(2.0 * (n - 1), abs=1e-9)
            assert dispersion_sum(product_amplitudes(*args)) == pytest.approx(2.0 * (n - 1), abs=1e-9)

    def test_dispersion_n2_circular(self):
        assert dispersion_sum(padded(circular_state(2))) == pytest.approx(2.0, abs=1e-12)

    def test_dispersion_minimality(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            wf = random_wavefunction(6, rng)
            assert dispersion_sum(wf) >= 2.0 * 5 - 1e-9

    def test_quadratic_invariants(self):
        rng = np.random.default_rng(15)
        for n in (2, 7, 13):
            for _ in range(4):
                wf = random_wavefunction(n, rng)
                _, _, l2, k2, lk_sym = lk_moments(wf)
                assert l2 + k2 == pytest.approx(n * n - 1.0, abs=1e-10)
                assert abs(lk_sym) < 1e-10
                # independent route for <L^2> from the l-block structure
                l2_blocks = sum(
                    l * (l + 1) * float(np.vdot(block(wf, l), block(wf, l)).real)
                    for l in range(n)
                )
                assert l2 == pytest.approx(l2_blocks, abs=1e-10)


class TestOverlapAndRotation:
    def test_self_overlap(self):
        rng = np.random.default_rng(16)
        wf = random_wavefunction(5, rng)
        assert np.vdot(wf, wf).real == pytest.approx(1.0, abs=1e-12)

    def test_maximal_k_overlap_law(self):
        rng = np.random.default_rng(17)
        n = 6
        for _ in range(5):
            u1, u2 = random_direction(rng), random_direction(rng)
            s1 = build_elliptic(n, neg(u1), u1)
            s2 = build_elliptic(n, neg(u2), u2)
            chi = angle_between(u1, u2)
            law = math.cos(chi / 2) ** (4 * (n - 1))
            assert abs(np.vdot(s1, s2)) ** 2 == pytest.approx(law, abs=1e-11)

    def test_shell_mismatch(self):
        with pytest.raises(ValueError):
            np.vdot(padded(circular_state(3)), padded(circular_state(4)))

    def test_rotate_identity(self):
        rng = np.random.default_rng(18)
        wf = random_wavefunction(6, rng)
        rotated = rotate(wf, EulerAngles(0.0, 0.0, 0.0))
        assert abs(np.vdot(wf, rotated)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rotate_preserves_block_norms(self):
        rng = np.random.default_rng(19)
        for n in (5, MAX_N):
            wf = random_wavefunction(n, rng)
            rotated = rotate(wf, EulerAngles(1.3, 0.9, 5.1))
            for l in range(n):
                before, after = block(wf, l), block(rotated, l)
                assert np.linalg.norm(after) == pytest.approx(np.linalg.norm(before), abs=1e-12)

    def test_rotated_maximal_k_equals_built(self):
        # U(phi, theta, 0) |K, z> = |-u> (x) |u> for u along (theta, phi)
        n = 6
        theta, phi = 0.8, 2.2
        rotated = rotate(padded(extreme_stark(n)), EulerAngles(phi, theta, 0.0))
        u = from_spherical(theta, phi)
        built = build_elliptic(n, neg(u), u)
        assert abs(np.vdot(rotated, built)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rotation_composition_matches_classical(self):
        rng = np.random.default_rng(20)
        a1 = EulerAngles(0.7, 1.1, 2.9)
        a2 = EulerAngles(4.0, 0.4, 1.8)
        combined = matrix_to_euler(euler_matrix(a1) @ euler_matrix(a2))
        for n in (5, MAX_N):
            wf = random_wavefunction(n, rng)
            two_step = rotate(rotate(wf, a2), a1)
            one_step = rotate(wf, combined)
            assert np.abs(two_step - one_step).max() < 1e-11, n


def json_oracle(wf):
    """The state's JSON text by the standard library encoder, from its table."""
    n, table = wf.n, padded(wf)
    entries = [{"l": l, "m": m, "re": float(table[l, n - 1 + m].real),
                "im": float(table[l, n - 1 + m].imag)}
               for l in range(n) for m in range(-l, l + 1)]
    return json.dumps({"n": n, "entries": entries}, indent=2) + "\n"


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(22)
        wf = random_rows_state(5, rng)
        data = json.loads(wf.to_json())
        assert data["n"] == 5
        table = padded(wf)
        for e in data["entries"]:
            assert complex(e["re"], e["im"]) == table[e["l"], 4 + e["m"]]

    def test_entries_sorted_and_complete(self):
        wf = extreme_stark(3)
        entries = json.loads(wf.to_json())["entries"]
        keys = [(e["l"], e["m"]) for e in entries]
        assert keys == sorted(keys)
        assert len(entries) == 9  # all (l, m) pairs of the n=3 shell

    @pytest.mark.parametrize("kind", [circular_state, extreme_stark], ids=["circular", "stark"])
    def test_to_json_matches_json_module_at_every_n(self, kind):
        for n in range(2, MAX_N + 1):
            wf = kind(n)
            assert wf.to_json() == json_oracle(wf), n

    @pytest.mark.parametrize("e", [0.0, 0.3, 0.7, 1.0])
    def test_to_json_matches_json_module_elliptic(self, e):
        for n in (2, 3, 8, 50, MAX_N):
            wf = alice_two_axis_state(n, e)
            assert wf.to_json() == json_oracle(wf), n

    def test_to_json_matches_json_module_on_exponent_reprs(self):
        # signed zeros, the smallest subnormal and reprs with an exponent, on
        # each of the four turns; a zero of either sign prints as 0.0
        rows = [[1e-300], [5e-324, -0.0, 1e-07], [0.0, -0.0, -math.sqrt(1.0 - 1e-14), -1e-07, 0.0]]
        wf = WaveFunction(3, rows, [3, 1, 6])
        text = wf.to_json()
        assert text == json_oracle(wf)
        for token in ('"im": 1e-300', '"re": 5e-324', '"re": -1e-07', '"im": -1e-07',
                      '"re": 0.999999999999995,'):
            assert token in text
        assert '"re": -0.0,' not in text and '"im": -0.0\n' not in text

    def test_product_amplitude_round_trip(self):
        rng = np.random.default_rng(23)
        wf = random_wavefunction(6, rng)
        back = from_product_amplitudes(6, to_product_amplitudes(wf))
        assert abs(np.vdot(wf, back)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_product_amplitudes_leave_exact_zeros_outside_the_triangle(self):
        # the shear sums only zero tensor entries there, so no rounding residue
        # reaches the |m| > l entries, which no state has
        rng = np.random.default_rng(24)
        for n in range(2, MAX_N + 1):
            psi = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            table = from_product_amplitudes(n, psi / np.linalg.norm(psi))
            outside = np.abs(np.arange(2 * n - 1) - (n - 1)) > np.arange(n)[:, None]
            assert np.all(table[outside] == 0.0)

    @pytest.mark.parametrize("n", [2, 7, 40, MAX_N])
    def test_product_amplitudes_bit_identical_to_loop(self, n):
        # reference: one meshgrid per l, summed over l in ascending order
        wf = random_wavefunction(n, np.random.default_rng(n))
        i1, i2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        loop = np.zeros((n, n), dtype=complex)
        for l in range(n):
            pad = np.zeros(2 * n - 1, dtype=complex)
            pad[n - 1 - l : n + l] = block(wf, l)
            loop += dense_coupling(n)[l] * pad[i1 + i2]
        assert np.array_equal(to_product_amplitudes(wf), loop)


_DIRECTION = hst.tuples(*[hst.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.fsum(c * c for c in v) > 1e-2
)


# the oracles' coupling blocks cache every shell they build (up to 2.8 MB at
# n = MAX_N, the blocks of every M 5.5 MB and their dense cube 8 MB), so the
# number of distinct shells drawn is kept small
@settings(max_examples=12, deadline=None)
@given(hst.integers(2, MAX_N), _DIRECTION, _DIRECTION)
@example(MAX_N, (0.3, -0.5, 0.8), (-0.2, 0.9, 0.1))
def test_coherent_states_up_to_max_n(n, v1, v2):
    wf = build_elliptic(n, unit(*v1), unit(*v2))
    assert povm_completeness_deviation(wf) <= 1e-12
    assert abs(dispersion_sum(wf) - 2.0 * (n - 1)) <= 1e-12 * n * n


def test_two_axis_state_matches_the_dense_route():
    # the general route, which shares no step with the closed form: the two
    # coherent states' product amplitudes b_m1 b_m2 (-i)^M e^(-i (m1-m2) zeta)
    # from the exact binomial roots b_m, then the m1 slices of the eigensolved
    # dense cube added in ascending order; they agree within that cube's own
    # error, about MAX_N ulps
    for n in range(2, MAX_N + 1):
        b = np.sqrt([math.comb(n - 1, k) / 2 ** (n - 1) for k in range(n)])
        i1, i2 = np.ogrid[:n, :n]
        quarter_turns = np.array([1.0, -1.0j, -1.0, 1.0j])[(i1 + i2 - (n - 1)) % 4]  # (-i)^M
        for e in (0.0, 0.3, 0.7, 1.0):
            turns = (i1 - i2) * math.asin(e)
            psi = np.outer(b, b) * quarter_turns * (np.cos(turns) - 1j * np.sin(turns))
            dense = dense_from_product_amplitudes(n, psi)
            assert np.abs(padded(alice_two_axis_state(n, e)) - dense).max() <= 1e-14, (n, e)


def test_two_axis_state_matches_its_closed_form_to_40_digits():
    # every entry within about two ulps of the largest one, at every shell;
    # a table summed through the eigensolved coupling blocks is off by up to
    # 9.7e-15 here (n = 92, e = 1)
    for n in range(2, MAX_N + 1):
        for e in (0.0, 0.05, 0.3, 0.7, 0.95, 1.0):
            error = np.abs(padded(alice_two_axis_state(n, e)) - two_axis_table_40(n, e)).max()
            assert error <= 5e-16, (n, e, error)


def _theory_zero_parts(n):
    """Masks of the real and the imaginary parts of a two-axis table that
    vanish in theory: a[l, M] is real where |M| + 2j-l is even and imaginary
    where it is odd, and both parts vanish where |M| > l."""
    l = np.arange(n)[:, None]
    big_m = np.abs(np.arange(2 * n - 1) - (n - 1))
    outside = big_m > l
    real = (big_m + n - 1 - l) % 2 == 0
    return outside | ~real, outside | real


def test_two_axis_state_has_exact_zeros_and_mirror():
    # row l carries the turn 2j-l and is its own mirror bit for bit, so the
    # components that vanish in theory are exact zeros, which to_json prints
    # as 0.0, and a[l, -M] = (-1)^(2j-l) conj(a[l, M]) bit for bit
    for n in range(2, MAX_N + 1):
        zero_re, zero_im = _theory_zero_parts(n)
        parity = (-1.0) ** (n - 1 - np.arange(n))
        for e in (0.0, 0.05, 0.3, 0.6, 0.7, 0.95, 1.0):
            wf = alice_two_axis_state(n, e)
            assert wf.turns == [n - 1 - l for l in range(n)], (n, e)
            assert all(row == row[::-1] for row in wf.rows), (n, e)
            table = padded(wf)
            for part, zero in ((table.real, zero_re), (table.imag, zero_im)):
                assert np.all(part[zero] == 0.0), (n, e)
            mirror = parity[:, None] * table[:, : n - 1 : -1].conj()
            assert np.array_equal(table[:, : n - 1], mirror), (n, e)
            if n in (2, 3, 50, MAX_N):
                text = wf.to_json()
                assert '"re": -0.0,' not in text and '"im": -0.0\n' not in text, (n, e)


def test_two_axis_state_matches_the_racah_sum():
    # a[l, M] = (-i)^M sum over m1 of <j m1; j m2 | l M> b b e^(-i (m1-m2) zeta),
    # with every coefficient from the exact Racah sum and each part summed by
    # fsum, so the reference is good to a few ulps of its largest term
    n, e = 40, 0.3
    j, zeta = (n - 1) / 2, math.asin(e)
    b = [math.sqrt(math.comb(n - 1, k) / 2 ** (n - 1)) for k in range(n)]
    reference = np.zeros((n, 2 * n - 1), dtype=complex)
    for big_m in range(1 - n, n):
        pairs = [(i1, big_m + n - 1 - i1) for i1 in range(max(big_m, 0), min(n, n + big_m))]
        weights = [b[i1] * b[i2] * cmath.exp(-1j * (i1 - i2) * zeta) for i1, i2 in pairs]
        for l in range(abs(big_m), n):
            terms = [clebsch_gordan(j, j, l, i1 - j, i2 - j, big_m) * w
                     for (i1, i2), w in zip(pairs, weights)]
            total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
            reference[l, n - 1 + big_m] = (-1j) ** (big_m % 4) * total
    assert np.abs(padded(alice_two_axis_state(n, e)) - reference).max() <= 7e-16
