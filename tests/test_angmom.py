import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from rydberg_frames.angmom import (
    MAX_J,
    HalfInt,
    clebsch_gordan,
    coherent_coeffs,
    small_d_matrices,
)

SQ = math.sqrt


class TestHalfInt:
    def test_coercion(self):
        assert HalfInt.of(2).twice == 4
        assert HalfInt.of(4.5).twice == 9
        assert HalfInt.of(HalfInt(3)).twice == 3
        with pytest.raises(ValueError):
            HalfInt.of(0.3)

    def test_repr(self):
        assert repr(HalfInt(4)) == "2"
        assert repr(HalfInt(9)) == "9/2"


class TestClebschGordan:
    def test_n3_stark_column(self):
        # magnitudes 1/sqrt 3, 1/sqrt 2, 1/sqrt 6 for l = 0, 1, 2
        expected = [1 / SQ(3), 1 / SQ(2), 1 / SQ(6)]
        for l, mag in enumerate(expected):
            assert abs(clebsch_gordan(1, 1, l, -1, 1, 0)) == pytest.approx(mag, abs=1e-14)

    def test_selection_rule(self):
        assert clebsch_gordan(2, 2, 3, 1, -1, 1) == 0.0
        assert clebsch_gordan(4.5, 4.5, 2, 0.5, 0.5, 2) == 0.0

    def test_stretched(self):
        assert clebsch_gordan(0.5, 0.5, 1, 0.5, 0.5, 1) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_maximal_k_column(self):
        # C^{jj l}_{-j j 0} magnitude is (2j)! sqrt(2l+1) / sqrt((2j-l)! (2j+l+1)!)
        for n in (3, 6, 10, 17):
            tj = n - 1
            j = tj / 2
            for l in range(n):
                closed = (
                    math.factorial(tj)
                    * SQ(2 * l + 1)
                    / SQ(math.factorial(tj - l) * math.factorial(tj + l + 1))
                )
                value = clebsch_gordan(j, j, l, -j, j, 0)
                assert abs(value) == pytest.approx(closed, rel=1e-12)

    def test_table_column_n10_printed_truncated(self):
        printed = [0.3162, 0.4954, 0.5222, 0.4534, 0.3365,
                   0.2148, 0.1167, 0.0526, 0.0186, 0.0045]
        for l, ref in enumerate(printed):
            value = abs(clebsch_gordan(4.5, 4.5, l, -4.5, 4.5, 0))
            assert math.floor(value * 1e4) / 1e4 == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("n, m1", [(70, 0.5), (101, 1)])
    def test_large_j_column_sum_rule(self, n, m1):
        # the squared prefactor alone overflows a double from n = 70 on;
        # n = 101 is j = MAX_J
        j = (n - 1) / 2
        values = np.array([clebsch_gordan(j, j, l, m1, -m1, 0) for l in range(n)])
        assert np.abs(values).max() <= 1.0
        assert math.fsum(values**2) == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 1, 3, 0, 0, 0)  # triangle
        with pytest.raises(ValueError):
            clebsch_gordan(1, 1, 1, 2, -1, 1)  # |m1| > j1
        with pytest.raises(ValueError):
            clebsch_gordan(1, 1, 1, 0.5, 0.5, 1)  # parity mismatch
        with pytest.raises(ValueError):
            clebsch_gordan(0.5, 1, 0.5, 0.5, 0.5, 1)  # m out of range for l

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 7, 10, 15, 20, 30])
    def test_orthogonality(self, twice_j):
        # rows (m1, m2), columns (l, m): the coupling matrix is orthogonal
        n = twice_j + 1
        j = twice_j / 2
        mat = np.zeros((n * n, n * n))
        col = 0
        for l in range(n):
            for m in range(-l, l + 1):
                for i1 in range(n):
                    m1 = i1 - j
                    m2 = m - m1
                    if abs(m2) > j:
                        continue
                    i2 = int(m2 + j)
                    mat[i1 * n + i2, col] = clebsch_gordan(j, j, l, m1, m2, m)
                col += 1
        gram = mat.T @ mat
        assert np.abs(gram - np.eye(n * n)).max() < 1e-12


def _legendre(l, x):
    p_prev, p = np.ones_like(x), x.copy()
    if l == 0:
        return p_prev
    for k in range(1, l):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def _small_d_sum(l, mp, m, beta):
    """Oracle for small l: the term-by-term Wigner sum with exact factorials."""
    j_mp, j_m, diff = round(l + mp), round(l + m), round(mp - m)
    f = math.factorial
    norm = SQ(f(j_mp) * f(round(l - mp)) * f(j_m) * f(round(l - m)))
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    terms = []
    for k in range(max(0, -diff), min(j_m, round(l - mp)) + 1):
        den = f(j_m - k) * f(k) * f(diff + k) * f(round(l - mp) - k)
        terms.append((-1) ** (diff + k) * norm / den
                     * c ** round(2 * l - diff - 2 * k) * s ** (diff + 2 * k))
    return math.fsum(terms)


class TestSmallD:
    def test_stretched_element(self):
        for j in (0.5, 1, 2.5, 7):
            for beta in (0.0, 0.4, 1.7, 3.0):
                assert small_d_matrices(j, [beta])[0, -1, -1] == pytest.approx(
                    math.cos(beta / 2) ** int(4 * j / 2), abs=1e-13
                )

    def test_legendre_oracle(self):
        betas = np.linspace(0.05, 3.1, 11)
        for l in (0, 1, 2, 5, 9):
            expected = _legendre(l, np.cos(betas))
            got = small_d_matrices(l, betas)[:, l, l]
            assert np.abs(got - expected).max() < 1e-12

    def test_identity_rotation(self):
        for l in (1, 3.5):
            assert np.diag(small_d_matrices(l, [0.0])[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("l", [1, 3.5, 8, 15])
    def test_unitarity_and_composition(self, l):
        rng = np.random.default_rng(int(2 * l))
        b1, b2 = rng.uniform(0.1, 3.0, 2)
        d1 = small_d_matrices(l, [b1])[0]
        d2 = small_d_matrices(l, [b2])[0]
        d12 = small_d_matrices(l, [b1 + b2])[0]
        assert np.abs(d1 @ d1.T - np.eye(d1.shape[0])).max() < 1e-11
        assert np.abs(d1 @ d2 - d12).max() < 1e-11

    @pytest.mark.parametrize("l", [0.5, 2, 4.5, 9])
    def test_stack_matches_scalar_sum(self, l):
        # eigendecomposition route against the independent term-by-term sum
        betas = np.array([0.0, 0.37, 1.29, 2.6, math.pi])
        stack = small_d_matrices(l, betas)
        tl = int(2 * l)
        for bi, beta in enumerate(betas):
            for imp in range(tl + 1):
                for im in range(tl + 1):
                    mp = imp - l
                    m = im - l
                    expected = _small_d_sum(l, mp, m, beta)
                    assert stack[bi, imp, im] == pytest.approx(expected, abs=1e-12)

    def test_scalar_element_bounded_at_l60(self):
        # the old term-by-term sum returned -1.376 for d^60_00(1)
        d = small_d_matrices(60, [1.0])[0]
        assert np.abs(d).max() <= 1.0
        assert d[60, 60] == pytest.approx(
            _legendre(60, np.array([math.cos(1.0)]))[0], abs=1e-13
        )

    def test_stack_owns_contiguous_real_data_at_l39(self):
        stack = small_d_matrices(39, np.linspace(0.1, 3.0, 7))
        assert stack.dtype == np.float64
        assert stack.flags.c_contiguous and stack.flags.owndata
        eye = np.eye(79)
        assert max(np.abs(d @ d.T - eye).max() for d in stack) <= 1e-13


# d(beta) is one eigendecomposition per l, cached, so examples are cheap
@settings(max_examples=40, deadline=None)
@given(hst.integers(0, 2 * MAX_J), hst.floats(0.0, math.pi), hst.floats(0.0, math.pi))
@example(2 * MAX_J, 1.0, 2.5)
def test_small_d_up_to_max_j(twice_l, b1, b2):
    d1, d2, d12 = small_d_matrices(twice_l / 2, [b1, b2, b1 + b2])
    assert np.abs(d1 @ d1.T - np.eye(twice_l + 1)).max() <= 1e-12
    assert np.abs(d1).max() <= 1.0 + 1e-12
    assert np.abs(d1 @ d2 - d12).max() <= 1e-12


class TestWignerD:
    def test_identity_is_delta(self):
        for l in (1, 2.5):
            d = small_d_matrices(l, [0.0])[0]
            assert np.abs(d - np.eye(len(d))).max() <= 1e-14

    def test_row_sum_unitarity(self):
        rng = np.random.default_rng(7)
        for l in (1, 3, 6.5):
            psi, theta, phi = rng.uniform(0.1, 3.0, 3)
            m = np.arange(int(2 * l) + 1) - l
            big_d = (np.exp(-1j * m * psi)[:, None] * small_d_matrices(l, [theta])[0]
                     * np.exp(-1j * m * phi)[None, :])
            assert (np.abs(big_d) ** 2).sum(axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_binomial_formula_for_top_column(self):
        # D^j_m(theta, phi) = D^(j)(phi, theta, 0)_{m j}
        #                   = binom(2j, j+m)^(1/2) cos^{j+m} sin^{j-m} e^{-i m phi}
        rng = np.random.default_rng(8)
        for j in (0.5, 2, 4.5):
            theta, phi = rng.uniform(0.1, 3.0), rng.uniform(0, 2 * math.pi)
            tj = int(2 * j)
            m_vals = np.arange(tj + 1) - j
            column = np.exp(-1j * m_vals * phi) * small_d_matrices(j, [theta])[0][:, -1]
            for im in range(tj + 1):
                m = im - j
                binom = math.comb(tj, im)
                expected = (
                    SQ(binom)
                    * math.cos(theta / 2) ** im
                    * math.sin(theta / 2) ** (tj - im)
                    * np.exp(-1j * m * phi)
                )
                assert column[im] == pytest.approx(expected, abs=1e-13)


class TestCoherentCoeffs:
    def test_spin_range(self):
        assert coherent_coeffs(MAX_J, 0.3, 0.1).shape == (2 * MAX_J + 1,)
        for j in (MAX_J + 0.5, 124.5, -0.5):
            with pytest.raises(ValueError):
                coherent_coeffs(j, 0.3, 0.1)

    def test_fiducial_at_north_pole(self):
        c = coherent_coeffs(3, 0.0, 0.0)
        expected = np.zeros(7)
        expected[-1] = 1.0
        assert np.allclose(c, expected, atol=1e-15)

    def test_norm_on_grid(self):
        thetas = np.linspace(0, math.pi, 20)
        phis = np.linspace(0, 2 * math.pi, 20, endpoint=False)
        for j in (0.5, 3, 10.5, 25):
            worst = max(
                abs(np.vdot(c, c).real - 1.0)
                for theta in thetas
                for phi in phis
                for c in [coherent_coeffs(j, theta, phi)]
            )
            assert worst < 1e-13

    def test_overlap_law(self):
        rng = np.random.default_rng(9)
        for j in (1, 4.5, 12):
            for _ in range(5):
                t1, t2 = rng.uniform(0, math.pi, 2)
                p1, p2 = rng.uniform(0, 2 * math.pi, 2)
                c1 = coherent_coeffs(j, t1, p1)
                c2 = coherent_coeffs(j, t2, p2)
                u1 = np.array([math.sin(t1) * math.cos(p1), math.sin(t1) * math.sin(p1), math.cos(t1)])
                u2 = np.array([math.sin(t2) * math.cos(p2), math.sin(t2) * math.sin(p2), math.cos(t2)])
                chi = math.acos(max(-1.0, min(1.0, float(u1 @ u2))))
                law = math.cos(chi / 2) ** int(4 * j)
                assert abs(np.vdot(c1, c2)) ** 2 == pytest.approx(law, abs=1e-11)
