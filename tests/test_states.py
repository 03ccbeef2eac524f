import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from rydberg_frames.angmom import MAX_N, HalfInt, clebsch_gordan
from rydberg_frames.geometry import EulerAngles, UnitVector, X_AXIS, Y_AXIS, Z_AXIS
from rydberg_frames.povm_so3 import povm_completeness_deviation
from rydberg_frames.states import (
    EllipticSpec,
    WaveFunction,
    build_elliptic,
    circular_state,
    coupling_tensor,
    dispersion_sum,
    extreme_stark,
    from_product_amplitudes,
    lk_moments,
    overlap,
    product_amplitudes,
    rotate,
    to_product_amplitudes,
)
from rotation_oracle import euler_matrix, matrix_to_euler


def random_wavefunction(n, rng):
    blocks = [rng.normal(size=2 * l + 1) + 1j * rng.normal(size=2 * l + 1) for l in range(n)]
    norm = math.sqrt(sum(float(np.vdot(b, b).real) for b in blocks))
    return WaveFunction(n, [b / norm for b in blocks])


def random_direction(rng):
    return UnitVector.normalized(*rng.normal(size=3))


class TestConstruction:
    def test_aligned_directions_give_circular(self):
        for n in (2, 5, 9):
            wf = build_elliptic(EllipticSpec(n, Z_AXIS, Z_AXIS))
            assert abs(wf.blocks[n - 1][-1]) == pytest.approx(1.0, abs=1e-12)
            assert abs(overlap(wf, circular_state(n))) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_opposite_directions_give_maximal_k(self):
        for n in (2, 3, 7):
            wf = build_elliptic(EllipticSpec(n, -Z_AXIS, Z_AXIS))
            stark = extreme_stark(n)
            assert abs(overlap(wf, stark)) ** 2 == pytest.approx(1.0, abs=1e-12)
            j = (n - 1) / 2
            for l in range(n):
                assert wf.blocks[l][l].real == pytest.approx(
                    clebsch_gordan(j, j, l, -j, j, 0), abs=1e-12
                )

    def test_circular_state_n2(self):
        wf = circular_state(2)
        assert wf.blocks[1][2] == 1.0
        assert wf.norm() == pytest.approx(1.0)

    def test_stark_n3_coefficients(self):
        wf = extreme_stark(3)
        expected = [1 / math.sqrt(3), 1 / math.sqrt(2), 1 / math.sqrt(6)]
        for l, mag in enumerate(expected):
            assert abs(wf.blocks[l][l]) == pytest.approx(mag, abs=1e-14)
        lvec = lk_moments(wf)[0]
        assert abs(lvec[2]) < 1e-12  # <L_z> = 0

    def test_stark_n10_printed_row(self):
        printed = [0.3162, 0.4954, 0.5222, 0.4534, 0.3365,
                   0.2148, 0.1167, 0.0526, 0.0186, 0.0045]
        wf = extreme_stark(10)
        for l, ref in enumerate(printed):
            value = abs(wf.blocks[l][l])
            assert math.floor(value * 1e4) / 1e4 == pytest.approx(ref, abs=1e-12)

    def test_build_output_normalized(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            spec = EllipticSpec(6, random_direction(rng), random_direction(rng))
            assert build_elliptic(spec).norm() == pytest.approx(1.0, abs=1e-12)

    def test_product_state_factors(self):
        # a unit-norm table of rank one: the outer product of two unit spinors
        singular = np.linalg.svd(product_amplitudes(EllipticSpec(5, X_AXIS, Y_AXIS)))[1]
        assert singular[0] == pytest.approx(1.0, abs=1e-13)
        assert np.abs(singular[1:]).max() < 1e-13

    def test_wavefunction_validation(self):
        with pytest.raises(ValueError):
            WaveFunction(2, [np.array([1.0]), np.array([1.0, 0.0, 0.0])])  # norm 2
        with pytest.raises(ValueError):
            WaveFunction(2, [np.array([1.0, 0.0]), np.array([0.0, 0.0, 0.0])])  # bad shape

    def test_shell_range(self):
        for n in (1, MAX_N + 1):
            blocks = [np.zeros(2 * l + 1) for l in range(n)]
            blocks[0][0] = 1.0
            with pytest.raises(ValueError, match="MAX_N"):
                WaveFunction(n, blocks)
        with pytest.raises(ValueError):
            build_elliptic(EllipticSpec(MAX_N + 1, X_AXIS, Y_AXIS))


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
        tensor = coupling_tensor(n)
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
        got = coupling_tensor(n)[:, i1, n - 1 - i1]
        assert np.abs(got - expected).max() <= 1e-13

    @pytest.mark.parametrize("n", [40, 64, 101])
    def test_orthonormal_per_projection(self, n):
        tensor = coupling_tensor(n)
        total = np.add.outer(np.arange(n), np.arange(n))
        for s in range(2 * n - 1):
            columns = tensor[:, total == s]
            present = np.arange(n) >= abs(s - (n - 1))  # l >= |M|
            gram = columns @ columns.T
            assert np.abs(gram - np.diag(present.astype(float))).max() <= 1e-12


# coupling_tensor caches every shell it builds, so few shells are drawn
@settings(max_examples=6, deadline=None)
@given(hst.integers(2, MAX_N))
@example(MAX_N)
def test_coupling_tensor_orthogonal_up_to_max_n(n):
    # per M the rows l >= |M| and the columns m1 + m2 = M form a square
    # orthogonal matrix: orthonormal rows and orthonormal columns
    tensor = coupling_tensor(n)
    total = np.add.outer(np.arange(n), np.arange(n))
    for s in range(2 * n - 1):
        block = tensor[abs(s - (n - 1)):, total == s]
        eye = np.eye(block.shape[0])
        assert np.abs(block @ block.T - eye).max() <= 1e-12
        assert np.abs(block.T @ block - eye).max() <= 1e-12


class TestExpectations:
    def test_elliptic_frame_components(self):
        rng = np.random.default_rng(11)
        for n in (4, 9):
            for _ in range(3):
                spec = EllipticSpec(n, random_direction(rng), random_direction(rng))
                wf = build_elliptic(spec)
                lvec, kvec = lk_moments(wf)[:2]
                u1, u2 = spec.u1.as_array(), spec.u2.as_array()
                k, ell = u2 - u1, u1 + u2  # lengths 2 sin(zeta), 2 cos(zeta)
                w = np.cross(ell, k)
                assert kvec @ k == pytest.approx((n - 1) * (k @ k) / 2, abs=1e-10)
                assert lvec @ ell == pytest.approx((n - 1) * (ell @ ell) / 2, abs=1e-10)
                for vec, axis in ((kvec, ell), (kvec, w), (lvec, k), (lvec, w)):
                    assert abs(vec @ axis) < 1e-10

    def test_mean_vectors_parallel_to_frame(self):
        rng = np.random.default_rng(12)
        spec = EllipticSpec(7, random_direction(rng), random_direction(rng))
        wf = build_elliptic(spec)
        lvec, kvec = lk_moments(wf)[:2]
        u1, u2 = spec.u1.as_array(), spec.u2.as_array()
        assert np.linalg.norm(np.cross(kvec, u2 - u1)) < 1e-10
        assert np.linalg.norm(np.cross(lvec, u1 + u2)) < 1e-10

    def test_circular_expectations(self):
        for n in (2, 6):
            lvec, kvec = lk_moments(circular_state(n))[:2]
            assert np.linalg.norm(kvec) < 1e-12
            assert lvec[2] == pytest.approx(n - 1.0, abs=1e-12)

    def test_product_state_route_agrees_with_coupled(self):
        rng = np.random.default_rng(24)
        spec = EllipticSpec(7, random_direction(rng), random_direction(rng))
        l_prod, k_prod = lk_moments(product_amplitudes(spec))[:2]
        l_wf, k_wf = lk_moments(build_elliptic(spec))[:2]
        assert np.allclose(l_prod, l_wf, atol=1e-10)
        assert np.allclose(k_prod, k_wf, atol=1e-10)

    def test_dispersion_coherent(self):
        rng = np.random.default_rng(13)
        for n in (2, 5, 11, 64):
            spec = EllipticSpec(n, random_direction(rng), random_direction(rng))
            assert dispersion_sum(build_elliptic(spec)) == pytest.approx(2.0 * (n - 1), abs=1e-9)
            assert dispersion_sum(product_amplitudes(spec)) == pytest.approx(2.0 * (n - 1), abs=1e-9)

    def test_dispersion_n2_circular(self):
        assert dispersion_sum(circular_state(2)) == pytest.approx(2.0, abs=1e-12)

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
                    l * (l + 1) * float(np.vdot(wf.blocks[l], wf.blocks[l]).real)
                    for l in range(n)
                )
                assert l2 == pytest.approx(l2_blocks, abs=1e-10)


class TestOverlapAndRotation:
    def test_self_overlap(self):
        rng = np.random.default_rng(16)
        wf = random_wavefunction(5, rng)
        assert overlap(wf, wf).real == pytest.approx(1.0, abs=1e-12)

    def test_maximal_k_overlap_law(self):
        rng = np.random.default_rng(17)
        n = 6
        for _ in range(5):
            u1, u2 = random_direction(rng), random_direction(rng)
            s1 = build_elliptic(EllipticSpec(n, -u1, u1))
            s2 = build_elliptic(EllipticSpec(n, -u2, u2))
            chi = u1.angle_to(u2)
            law = math.cos(chi / 2) ** (4 * (n - 1))
            assert abs(overlap(s1, s2)) ** 2 == pytest.approx(law, abs=1e-11)

    def test_shell_mismatch(self):
        with pytest.raises(ValueError):
            overlap(circular_state(3), circular_state(4))

    def test_rotate_identity(self):
        rng = np.random.default_rng(18)
        wf = random_wavefunction(6, rng)
        rotated = rotate(wf, EulerAngles(0.0, 0.0, 0.0))
        assert abs(overlap(wf, rotated)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rotate_preserves_block_norms(self):
        rng = np.random.default_rng(19)
        wf = random_wavefunction(7, rng)
        rotated = rotate(wf, EulerAngles(1.3, 0.9, 5.1))
        for before, after in zip(wf.blocks, rotated.blocks):
            assert np.linalg.norm(after) == pytest.approx(np.linalg.norm(before), abs=1e-12)

    def test_rotated_maximal_k_equals_built(self):
        # U(phi, theta, 0) |K, z> = |-u> (x) |u> for u along (theta, phi)
        n = 6
        theta, phi = 0.8, 2.2
        rotated = rotate(extreme_stark(n), EulerAngles(phi, theta, 0.0))
        u = UnitVector.from_spherical(theta, phi)
        built = build_elliptic(EllipticSpec(n, -u, u))
        assert abs(overlap(rotated, built)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rotation_composition_matches_classical(self):
        rng = np.random.default_rng(20)
        wf = random_wavefunction(5, rng)
        a1 = EulerAngles(0.7, 1.1, 2.9)
        a2 = EulerAngles(4.0, 0.4, 1.8)
        combined = matrix_to_euler(euler_matrix(a1) @ euler_matrix(a2))
        two_step = rotate(rotate(wf, a2), a1)
        one_step = rotate(wf, combined)
        diff = max(
            np.abs(b1 - b2).max() for b1, b2 in zip(two_step.blocks, one_step.blocks)
        )
        assert diff < 1e-11


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(22)
        wf = random_wavefunction(5, rng)
        data = json.loads(json.dumps(wf.to_json_dict()))
        for e in data["entries"]:
            assert complex(e["re"], e["im"]) == wf.blocks[e["l"]][e["l"] + e["m"]]

    def test_entries_sorted_and_complete(self):
        wf = extreme_stark(3)
        entries = wf.to_json_dict()["entries"]
        keys = [(e["l"], e["m"]) for e in entries]
        assert keys == sorted(keys)
        assert len(entries) == 9  # all (l, m) pairs of the n=3 shell

    def test_product_amplitude_round_trip(self):
        rng = np.random.default_rng(23)
        wf = random_wavefunction(6, rng)
        back = from_product_amplitudes(6, to_product_amplitudes(wf))
        assert abs(overlap(wf, back)) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 7, 40, MAX_N])
    def test_product_amplitudes_bit_identical_to_loop(self, n):
        # reference: one meshgrid per l, summed over l in ascending order
        wf = random_wavefunction(n, np.random.default_rng(n))
        i1, i2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        loop = np.zeros((n, n), dtype=complex)
        for l in range(n):
            pad = np.zeros(2 * n - 1, dtype=complex)
            pad[n - 1 - l : n + l] = wf.blocks[l]
            loop += coupling_tensor(n)[l] * pad[i1 + i2]
        assert np.array_equal(to_product_amplitudes(wf), loop)


_DIRECTION = hst.tuples(*[hst.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.fsum(c * c for c in v) > 1e-2
)


# coupling_tensor caches every shell it builds (up to 8 MB at n = MAX_N), so
# the number of distinct shells drawn is kept small
@settings(max_examples=12, deadline=None)
@given(hst.integers(2, MAX_N), _DIRECTION, _DIRECTION)
@example(MAX_N, (0.3, -0.5, 0.8), (-0.2, 0.9, 0.1))
def test_coherent_states_up_to_max_n(n, v1, v2):
    wf = build_elliptic(EllipticSpec(n, UnitVector.normalized(*v1), UnitVector.normalized(*v2)))
    assert povm_completeness_deviation(wf) <= 1e-12
    assert abs(dispersion_sum(wf) - 2.0 * (n - 1)) <= 1e-12 * n * n
