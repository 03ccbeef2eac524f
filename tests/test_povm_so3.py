import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from rydberg_frames import povm_so3
from rydberg_frames.geometry import two_axis_eta
from rydberg_frames.povm_so3 import (
    QuadratureRule,
    _cg_plane,
    alice_two_axis_state,
    cos_omega_xy,
    cos_omega_z,
    optimal_m0_state,
    optimize_eccentricity,
)
from rydberg_frames.angmom import MAX_N
from rydberg_frames.states import WaveFunction, circular_state, extreme_stark
from cg_oracle import clebsch_gordan
from rotation_oracle import (Y_AXIS, EulerAngles, build_elliptic, euler_matrix, rotate,
                             small_d_matrices, spherical, unit)
from shell_table import (
    block,
    bob_fiducial,
    cos_omega_z_m0,
    eta_slope_40,
    haar_moments,
    lk_moments,
    m0_overlap_matrix,
    optimum_40,
    padded,
    povm_completeness_deviation,
    random_m0_state,
    random_rows_state,
    random_uneven_state,
    random_wavefunction,
    series_moments,
    series_table,
)


def beta_nodes(rule: QuadratureRule):
    """The rule's (beta, weight) nodes, polished to double precision.

    numpy's leggauss weights are off by up to 1.8e-15 at 18 nodes, which the
    closed-form moments (exact to rounding) would show; three Newton steps on
    the Legendre recurrence, with w = 2 / ((1 - x^2) P_n'(x)^2), bring every
    weight within 5e-16 of its 40-digit value up to 128 nodes.
    """
    n = rule.n_beta
    x, _ = np.polynomial.legendre.leggauss(n)
    for _ in range(3):
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return np.arccos(x), 1.0 / ((1.0 - x * x) * dp * dp)


def alpha_nodes(rule: QuadratureRule) -> np.ndarray:
    return np.arange(rule.n_alpha) * 2.0 * math.pi / rule.n_alpha


def gamma_nodes(rule: QuadratureRule) -> np.ndarray:
    return np.arange(rule.n_gamma) * 2.0 * math.pi / rule.n_gamma


def haar_integrate(f, rule: QuadratureRule) -> float:
    """Brute-force oracle: f(alpha, beta, gamma) on the rule's full 3-D grid.

    f must accept numpy arrays broadcastable to shape
    (n_alpha, n_beta, n_gamma); the result is exact for trigonometric
    polynomials within the rule's degree.
    """
    betas, wbeta = beta_nodes(rule)
    alphas = alpha_nodes(rule)
    gammas = gamma_nodes(rule)
    vals = np.asarray(
        f(alphas[:, None, None], betas[None, :, None], gammas[None, None, :])
    )
    vals = np.broadcast_to(vals, (rule.n_alpha, rule.n_beta, rule.n_gamma))
    per_beta = vals.sum(axis=(0, 2)) / (rule.n_alpha * rule.n_gamma)
    return float(np.real_if_close(np.sum(per_beta * wbeta)))


def _t_stack(a, fid, rule: QuadratureRule) -> np.ndarray:
    """Oracle: T[b, mp, m] = sum_l sqrt(2l+1) conj(a_{l,mp}) d^l_{mp,m}(beta_b) b_{l,m}
    for the state table a and the fiducial table fid.

    <A|U(alpha, beta_b, gamma)|B> = sum T[b, mp, m] e^{-i alpha mp} e^{-i gamma m}.
    """
    L = a.shape[0] - 1
    betas, _ = beta_nodes(rule)
    t = np.zeros((rule.n_beta, 2 * L + 1, 2 * L + 1), dtype=complex)
    for l in range(a.shape[0]):
        a_l, b_l = block(a, l), block(fid, l)
        outer = math.sqrt(2 * l + 1) * np.conj(a_l)[:, None] * b_l[None, :]
        t[:, L - l : L + l + 1, L - l : L + l + 1] += small_d_matrices(2 * l + 1, betas) * outer
    return t


def beta_grid_moments(a, rule: QuadratureRule):
    """Oracle for haar_moments: Gauss-Legendre in beta over the T-stack.

    The alpha and gamma averages are taken by Fourier orthogonality:
    |<A|U|B>|^2 averages to sum |T[b]|^2, its product with e^{i(alpha + gamma)}
    to sum T[b, mp+1, m+1] conj(T[b, mp, m]), and with e^{i(alpha - gamma)}
    to sum T[b, mp+1, m] conj(T[b, mp, m+1]).
    """
    betas, wbeta = beta_nodes(rule)
    cosbeta = np.cos(betas)
    t = _t_stack(a, bob_fiducial(a), rule)
    s0 = (t.real**2 + t.imag**2).sum(axis=(1, 2))
    s_plus = (t[:, 1:, 1:] * np.conj(t[:, :-1, :-1])).real.sum(axis=(1, 2))
    s_minus = (t[:, 1:, :-1] * np.conj(t[:, :-1, 1:])).real.sum(axis=(1, 2))
    return (
        float(wbeta @ s0),
        float(wbeta @ (cosbeta * s0)),
        float(wbeta @ ((1.0 + cosbeta) * s_plus)),
        float(wbeta @ (-(1.0 - cosbeta) * s_minus)),
    )


class TestFiducial:
    def test_circular_blocks(self):
        n = 5
        fid = bob_fiducial(padded(circular_state(n)))
        top = np.zeros(2 * n - 1)
        top[-1] = 1.0
        assert np.allclose(block(fid, n - 1), top)
        # vanishing blocks are completed with the m=0 unit vector
        for l in range(n - 1):
            filler = np.zeros(2 * l + 1)
            filler[l] = 1.0
            assert np.allclose(block(fid, l), filler)

    def test_maximal_k_blocks(self):
        wf = padded(extreme_stark(4))
        fid = bob_fiducial(wf)
        for l in range(4):
            expected = np.zeros(2 * l + 1, dtype=complex)
            expected[l] = wf[l, 3] / abs(wf[l, 3])
            assert np.allclose(block(fid, l), expected, atol=1e-13)

    def test_generic_normalization(self):
        rng = np.random.default_rng(0)
        fid = bob_fiducial(random_wavefunction(6, rng))
        assert fid.shape == (6, 11)
        for l in range(6):
            assert np.linalg.norm(fid[l]) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(block(fid, l)) == pytest.approx(1.0, abs=1e-12)


class TestHaarIntegrate:
    def test_constant(self):
        rule = QuadratureRule.for_shell(3)
        value = haar_integrate(lambda a, b, g: np.ones(np.broadcast_shapes(a.shape, b.shape, g.shape)), rule)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_odd_weight_vanishes(self):
        rule = QuadratureRule.for_shell(3)
        value = haar_integrate(lambda a, b, g: np.cos(b) * np.ones_like(a + g), rule)
        assert abs(value) < 1e-14

    def test_circular_completeness_by_closed_form(self):
        # |<A|U|B>|^2 for the circular state is (2n-1) cos^{4(n-1)}(beta/2)
        for n in (2, 5, 9):
            rule = QuadratureRule.for_shell(n)
            value = haar_integrate(
                lambda a, b, g: (2 * n - 1) * np.cos(b / 2) ** (4 * (n - 1)) * np.ones_like(a + g),
                rule,
            )
            assert value == pytest.approx(1.0, abs=1e-12)


class TestClosedFormMoments:
    @staticmethod
    def grid_moments(a, rule):
        # |<A|U|B>|^2 on every (alpha, beta, gamma) node, then the 3-D sum
        # against 1, cos(beta), R_xx + R_yy and R_xx - R_yy
        t = _t_stack(a, bob_fiducial(a), rule)
        m_vals = np.arange(1 - a.shape[0], a.shape[0])
        e_alpha = np.exp(-1j * np.outer(alpha_nodes(rule), m_vals))
        e_gamma = np.exp(-1j * np.outer(gamma_nodes(rule), m_vals))
        prob = np.abs(np.einsum("ap,bpm,gm->abg", e_alpha, t, e_gamma)) ** 2
        return (
            haar_integrate(lambda al, be, ga: prob, rule),
            haar_integrate(lambda al, be, ga: prob * np.cos(be), rule),
            haar_integrate(
                lambda al, be, ga: prob * (1 + np.cos(be)) * np.cos(al + ga), rule
            ),
            haar_integrate(
                lambda al, be, ga: -prob * (1 - np.cos(be)) * np.cos(al - ga), rule
            ),
        )

    @pytest.mark.parametrize("n", range(3, 13))
    def test_match_full_grid(self, n):
        # the package's fidelities on its states, and the series oracle on
        # complex tables of any phases
        rng = np.random.default_rng(100 + n)
        directions = [unit(*rng.normal(size=3)) for _ in range(2)]
        states = [
            alice_two_axis_state(n, 0.7),
            random_rows_state(n, rng),
            build_elliptic(n, *directions),
            random_wavefunction(n, rng),
        ]
        rule = QuadratureRule.for_shell(n)
        for a in states:
            closed = haar_moments(a)
            grid = self.grid_moments(padded(a) if isinstance(a, WaveFunction) else a, rule)
            assert np.abs(np.subtract(closed, grid)).max() <= 1e-14

    def test_match_beta_grid_at_n40(self):
        n = 40
        rng = np.random.default_rng(40)
        directions = [unit(*rng.normal(size=3)) for _ in range(2)]
        rule = QuadratureRule.for_shell(n)
        for a in (alice_two_axis_state(n, 0.3), alice_two_axis_state(n, 0.7),
                  build_elliptic(n, *directions)):
            closed = haar_moments(a)
            table = padded(a) if isinstance(a, WaveFunction) else a
            assert np.abs(np.subtract(closed, beta_grid_moments(table, rule))).max() <= 1e-12

    def test_tiny_row_is_normalized_not_replaced(self):
        # a row of norm 5e-13 is a fiducial row like any other: the moments
        # match the full grid over the fiducial that normalizes it, and only
        # an exactly empty row is completed (with the m=0 vector)
        n = 6
        rng = np.random.default_rng(6)
        rows = random_rows_state(n, rng, [1.0, 1.0, 0.0, 1.0, 0.0, 1.0]).rows
        tiny = rng.normal(size=9)
        rows[4] = (tiny * (5e-13 / np.linalg.norm(tiny))).tolist()
        a = WaveFunction(n, rows, rng.integers(-8, 9, size=n).tolist())
        assert math.hypot(*a.rows[4]) == pytest.approx(5e-13, rel=1e-12)
        assert not any(a.rows[2])
        closed = haar_moments(a)
        grid = self.grid_moments(padded(a), QuadratureRule.for_shell(n))
        assert np.abs(np.subtract(closed, grid)).max() <= 1e-14


@settings(max_examples=25, deadline=None)
@given(hst.integers(2, MAX_N), hst.integers(0, 2**32 - 1))
@example(MAX_N, 0)
def test_fidelities_match_the_two_table_series(n, seed):
    # the route that forms the complex X-sums of |A> and of the fiducial
    # apart, the q' = -1 sums on their own closed forms, over the complex
    # tables of real rows with random integer turns and empty, 5e-13 and
    # decaying rows
    a = random_uneven_state(n, np.random.default_rng(seed))
    z, same, opposite = series_moments(padded(a))
    assert abs(cos_omega_z(a) - z) <= 1e-14
    cx, cy = cos_omega_xy(a)
    assert abs(cx - (same - opposite)) <= 1e-14
    assert abs(cy - (same + opposite)) <= 1e-14


def test_each_fidelity_makes_one_x_sum_pass(monkeypatch):
    # the fiducial's sums and the q = -1 sums follow from the state's own:
    # one pass over the plane q = 0 for cos_omega_z, over q = 1 for cos_omega_xy
    calls = []
    original = povm_so3._fidelity_parts
    monkeypatch.setattr(povm_so3, "_fidelity_parts",
                        lambda a, q: calls.append(q) or original(a, q))
    a = alice_two_axis_state(10, 0.7)
    cos_omega_z(a)
    assert calls == [0]
    cos_omega_xy(a)
    assert calls == [0, 1]


def test_each_fidelity_builds_only_the_plane_it_reads():
    # table1 reads only q = 0 and table3 only q = 1: on a cleared cache each
    # fidelity's first call builds its own plane, and a repeat builds none
    a = alice_two_axis_state(10, 0.7)
    _cg_plane.cache_clear()
    cos_omega_z(a)
    assert _cg_plane.cache_info().misses == 1
    cos_omega_xy(a)
    assert _cg_plane.cache_info().misses == 2
    cos_omega_z(a)
    cos_omega_xy(a)
    assert _cg_plane.cache_info().misses == 2


class TestCouplingTable:
    def test_entries_match_exact_clebsch_gordan(self):
        # the q = 0, 1 planes of src and every plane of the oracle's table,
        # each entry against the exact Racah sum, and each block's weight
        # equal to the oracle's
        n = 50
        cg, weights = series_table(n)
        assert cg.shape == (3, 3, n, 2 * n - 1)
        worst = 0.0
        for l in range(n):
            blocks = {q: {} for q in (0, 1)}
            for q in (0, 1):
                for d_l, first, coeffs, w in _cg_plane(n, q)[l]:
                    assert w == weights[d_l + 1, l]
                    blocks[q][d_l] = first, coeffs
            for d_l in (-1, 0, 1):
                big_l = l + d_l
                for q in (-1, 0, 1):
                    row = cg[q + 1, d_l + 1, l]
                    listed = {}
                    if q >= 0 and d_l in blocks[q]:
                        first, coeffs = blocks[q][d_l]
                        listed = dict(zip(range(first, first + len(coeffs)), coeffs))
                    for m in range(-(n - 1), n):
                        allowed = abs(m) <= l and abs(m + q) <= big_l and big_l >= abs(l - 1)
                        if not allowed:
                            assert row[m + n - 1] == 0.0 and m not in listed
                            continue
                        exact = clebsch_gordan(l, 1, big_l, m, q, m + q)
                        worst = max(worst, abs(row[m + n - 1] - exact))
                        # src lists no L outside the shell, whose weight is 0
                        if q >= 0 and big_l < n:
                            assert listed[m] == row[m + n - 1]
                        else:
                            assert m not in listed
        assert worst <= 1e-15


class TestSingleAxis:
    def test_circular_closed_form(self):
        for n in (*range(2, 9), 40, 101):
            assert cos_omega_z(circular_state(n)) == pytest.approx((n - 1) / n, abs=1e-12)

    def test_maximal_k_reference_values(self):
        assert 0.5 * (1 - cos_omega_z(extreme_stark(5))) == pytest.approx(0.0573645, abs=1e-6)
        assert 0.5 * (1 - cos_omega_z(extreme_stark(10))) == pytest.approx(0.0264067, abs=1e-6)

    def test_m0_closed_form_matches_quadrature(self):
        # two independent routes agree on 100 random m=0 states up to n = 12
        rng = np.random.default_rng(1)
        for case in range(100):
            n = int(rng.integers(2, 13))
            wf = random_m0_state(n, rng)
            closed = cos_omega_z_m0(wf.m0_amplitudes())
            assert cos_omega_z(wf) == pytest.approx(closed, abs=1e-10)

    def test_single_l_gives_zero(self):
        amps = np.zeros(6)
        amps[3] = 1.0
        assert cos_omega_z_m0(amps) == 0.0

    def test_m0_requires_normalization(self):
        for bad in (np.ones(4), [math.nan, 0.0, 0.0]):
            with pytest.raises(ValueError):
                cos_omega_z_m0(bad)

    def test_maximal_k_beats_circular(self):
        for n in range(3, 13):
            stark_value = cos_omega_z_m0(extreme_stark(n).m0_amplitudes())
            assert stark_value > (n - 1) / n


class TestOptimalM0:
    def test_n3_closed_form(self):
        expected = np.array([math.sqrt(5) / (3 * math.sqrt(2)), 1 / math.sqrt(2), math.sqrt(2) / 3])
        assert np.allclose(optimal_m0_state(3), expected, atol=1e-12)
        value = cos_omega_z_m0(expected)
        assert value == pytest.approx(math.sqrt(3.0 / 5.0), abs=1e-12)

    def test_n10_printed_row(self):
        printed = [0.1825, 0.3079, 0.3767, 0.4098, 0.4130,
                   0.3894, 0.3422, 0.2751, 0.1923, 0.0989]
        vec = optimal_m0_state(10)
        for l, ref in enumerate(printed):
            assert math.floor(vec[l] * 1e4) / 1e4 == pytest.approx(ref, abs=1e-12)

    def test_variational_property(self):
        rng = np.random.default_rng(2)
        n = 8
        best = cos_omega_z_m0(optimal_m0_state(n))
        for _ in range(25):
            probe = np.abs(rng.normal(size=n))
            probe /= np.linalg.norm(probe)
            assert cos_omega_z_m0(probe) <= best + 1e-12

    def test_overlap_with_maximal_k(self):
        for n, expected in ((3, 0.993491), (10, 0.76406)):
            stark = np.abs(extreme_stark(n).m0_amplitudes())
            value = float(stark @ optimal_m0_state(n)) ** 2
            assert value == pytest.approx(expected, abs=1e-5)

    def test_matrix_matches_loop_form(self):
        # the per-entry loop the vectorized coupling replaced, bit for bit
        for n in (2, 3, 10, 40, 101):
            loop = np.zeros((n, n))
            for l in range(1, n):
                loop[l, l - 1] = loop[l - 1, l] = l / math.sqrt(4.0 * l * l - 1.0)
            assert np.array_equal(m0_overlap_matrix(n), loop)

    def test_matrix_entries(self):
        mat = m0_overlap_matrix(4)
        assert mat[1, 0] == pytest.approx(1 / math.sqrt(3))
        assert mat[2, 1] == pytest.approx(2 / math.sqrt(15))
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 0.0)


def test_optimal_m0_state_matches_eigh_oracle():
    # the Legendre closed form against the eigensolver of the Jacobi matrix
    for n in range(2, 102):
        eigvals, eigvecs = np.linalg.eigh(m0_overlap_matrix(n))
        oracle = eigvecs[:, -1] * np.sign(eigvecs[0, -1])
        vec = optimal_m0_state(n)
        assert np.abs(vec - oracle).max() <= 1e-13
        assert min(vec) > 0.0
        assert abs(cos_omega_z_m0(vec) - eigvals[-1]) <= 1e-15


def largest_legendre_zero(n):
    """x_n, the largest zero of P_n, by bisection on the three-term recurrence
    between the bounds of Bruns' inequality, cos(pi / (n + 1/2)) < x_n <
    cos(pi / (2n + 1)), where P_n changes sign once: to adjacent doubles."""
    def legendre(x):
        prev, p = 1.0, x
        for l in range(1, n):
            prev, p = p, ((2 * l + 1) * x * p - l * prev) / (l + 1)
        return p

    lo, hi = math.cos(math.pi / (n + 0.5)), math.cos(math.pi / (2 * n + 1))
    assert legendre(lo) < 0.0 < legendre(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if legendre(mid) > 0.0 else (mid, hi)
    return hi


# a few ulps of x_n < 1: the bound's own rounding and that of the fidelity's sums
_BOUND_SLACK = 4 * math.ulp(1.0)


def test_m0_optimum_reaches_the_legendre_bound_at_every_shell():
    # the best one-axis cosine over every state is x_n, and the m = 0
    # optimum, written as a state, reaches it
    for n in range(2, MAX_N + 1):
        vec = optimal_m0_state(n)
        rows = [[0.0] * l + [v] + [0.0] * l for l, v in enumerate(vec)]
        cos_z = cos_omega_z(WaveFunction(n, rows, [0] * n))
        assert abs(cos_z - largest_legendre_zero(n)) <= _BOUND_SLACK, n


@settings(max_examples=30, deadline=None)
@given(hst.integers(2, MAX_N), hst.integers(0, 2**32 - 1))
@example(2, 0)
@example(MAX_N, 0)
def test_random_states_stay_below_the_legendre_bound(n, seed):
    # real rows with random turns, each row scaled by 1, 0.1 or 1e-3
    rng = np.random.default_rng(seed)
    a = random_rows_state(n, rng, np.choose(rng.integers(3, size=n), [1.0, 0.1, 1e-3]))
    assert cos_omega_z(a) <= largest_legendre_zero(n) + _BOUND_SLACK
    assert all(-1.0 <= c <= 1.0 for c in cos_omega_xy(a))


@settings(max_examples=30, deadline=None)
@given(hst.integers(2, MAX_N), hst.floats(0.0, 1.0))
@example(2, 0.0)
@example(MAX_N, 1.0)
def test_two_axis_states_stay_below_the_legendre_bound(n, e):
    a = alice_two_axis_state(n, e)
    assert cos_omega_z(a) <= largest_legendre_zero(n) + _BOUND_SLACK
    assert all(-1.0 <= c <= 1.0 for c in cos_omega_xy(a))


@pytest.mark.parametrize("objective", ["single_w_axis", "two_axes"])
@pytest.mark.parametrize("n", [3, 5, 10, 20, 40])
def test_optimizer_evaluations_and_optimum(objective, n, monkeypatch):
    # the root takes at most 10 complex-step slopes, and eta there one real
    # evaluation through the module's cos_omega_* lookup, where perfbench's
    # tracer counts them; e_opt is the 40-digit root within zeroin's tolerance
    slopes, calls = [], []
    original_slope = povm_so3._eta_slope
    monkeypatch.setattr(povm_so3, "_eta_slope",
                        lambda n, e, q: slopes.append((n, q)) or original_slope(n, e, q))
    for name in ("cos_omega_xy", "cos_omega_z"):
        original = getattr(povm_so3, name)
        monkeypatch.setattr(povm_so3, name, lambda a, original=original, name=name:
                            calls.append((name, a.n)) or original(a))
    q = 1 if objective == "two_axes" else 0
    e_opt, eta_min, cosines = optimize_eccentricity(n, objective)
    assert 2 <= len(slopes) <= 10 and set(slopes) == {(n, q)}
    assert calls == [("cos_omega_xy" if q else "cos_omega_z", n)]
    assert abs(Decimal(e_opt) - optimum_40(n, q)) <= 5e-13
    expected = two_axis_eta(*cosines) if q else 0.5 * (1.0 - cosines[0])
    assert len(cosines) == 1 + q and eta_min == expected


@pytest.mark.parametrize("q", [0, 1])
def test_slope_changes_sign_on_the_bracket_at_every_shell(q):
    lo, hi = povm_so3._BRACKET
    for n in range(3, MAX_N + 1):
        assert povm_so3._eta_slope(n, lo, q) < 0.0 < povm_so3._eta_slope(n, hi, q), n


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("n", [3, 10, 40, 60, 101])
def test_complex_step_slope_matches_40_digits(n, q):
    # the step takes no difference, so it carries only the rounding of the
    # float kernels' ordered loops: up to 2.4e-14 at n = 60
    for e in (0.6, 0.65, 0.7, 0.72, 0.3, 0.95):
        exact = eta_slope_40(n, e, q)[1]
        assert abs(Decimal(povm_so3._eta_slope(n, e, q)) - exact) <= 5e-14, (n, q, e)


def test_bracket_without_a_sign_change_is_refused(monkeypatch):
    with pytest.raises(ValueError, match="no sign change"):
        povm_so3._zeroin(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="no sign change"):
        povm_so3._zeroin(lambda x: math.nan, 0.0, 1.0, 1e-12)
    # above every root: the slope is positive at both ends
    monkeypatch.setattr(povm_so3, "_BRACKET", (0.72, 0.9))
    for objective in ("two_axes", "single_w_axis"):
        with pytest.raises(ValueError, match="no sign change"):
            optimize_eccentricity(10, objective)


class TestTwoAxis:
    def test_two_axis_state_geometry(self):
        for n, e in ((5, 0.3), (8, 1 / math.sqrt(2))):
            wf = alice_two_axis_state(n, e)
            lvec, kvec = lk_moments(padded(wf))[:2]
            assert kvec[0] == pytest.approx((n - 1) * e, abs=1e-10)
            assert lvec[1] == pytest.approx((n - 1) * math.sqrt(1 - e * e), abs=1e-10)
            assert abs(kvec[1]) < 1e-10 and abs(kvec[2]) < 1e-10
            assert abs(lvec[0]) < 1e-10 and abs(lvec[2]) < 1e-10

    def test_zero_eccentricity_is_circular_about_y(self):
        n = 5
        wf = alice_two_axis_state(n, 0.0)
        theta, phi = spherical(Y_AXIS)
        target = rotate(padded(circular_state(n)), EulerAngles(phi, theta, 0.0))
        assert abs(np.vdot(padded(wf), target)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_eccentricity_range(self):
        with pytest.raises(ValueError):
            alice_two_axis_state(5, 1.2)

    def test_circular_state_transmits_no_azimuth(self):
        cx, cy = cos_omega_xy(circular_state(5))
        assert abs(cx) < 1e-12 and abs(cy) < 1e-12

    def test_unit_eccentricity_matches_single_axis_value(self):
        # at e = 1 the state only defines the x axis, whose quality equals the
        # maximal-K single-axis closed form; the y estimate is uniform
        for n in (5, 40, 101):
            cx, cy = cos_omega_xy(alice_two_axis_state(n, 1.0))
            stark_value = cos_omega_z_m0(extreme_stark(n).m0_amplitudes())
            assert cx == pytest.approx(stark_value, abs=1e-10)
            assert abs(cy) < 1e-10

    def test_zero_eccentricity_transmits_y_as_circular(self):
        # at e = 0 the state is circular about y: the y axis is sent with the
        # circular quality (n-1)/n and the x estimate is uniform
        for n in (5, 40, 101):
            cx, cy = cos_omega_xy(alice_two_axis_state(n, 0.0))
            assert abs(cx) <= 1e-14
            assert cy == pytest.approx((n - 1) / n, abs=1e-14)

    def test_per_axis_pair_matches_euler_grid(self):
        # brute force: |<A|U|B>|^2 on the full Euler grid, weighted by the
        # diagonal of the rotation matrix
        n, e = 5, 0.3
        a = alice_two_axis_state(n, e)
        rule = QuadratureRule.for_shell(n)
        t = _t_stack(padded(a), bob_fiducial(padded(a)), rule)
        m_vals = np.arange(-(n - 1), n)
        alphas, gammas = alpha_nodes(rule), gamma_nodes(rule)
        betas, _ = beta_nodes(rule)
        amp = np.einsum("ap,bpm,gm->abg", np.exp(-1j * np.outer(alphas, m_vals)), t,
                        np.exp(-1j * np.outer(gammas, m_vals)))
        rot = np.array([[[euler_matrix(EulerAngles(al, be, ga)).diagonal()[:2]
                          for ga in gammas] for be in betas] for al in alphas])
        prob = np.abs(amp) ** 2
        expected = [haar_integrate(lambda al, be, ga: prob * rot[..., i], rule) for i in (0, 1)]
        cx, cy = cos_omega_xy(a)
        assert (cx, cy) == pytest.approx(expected, abs=1e-13)
        assert (cx, cy) == pytest.approx((0.36016, 0.79004), abs=1e-5)

    def test_two_axis_eta_values(self):
        assert two_axis_eta(0.7, 0.7) == pytest.approx(0.15)
        assert two_axis_eta(0.36, 0.8) == pytest.approx(0.21)

    def test_reference_optimum_n5(self):
        e_opt, eta_min, cosines = optimize_eccentricity(5, "two_axes")
        assert eta_min == pytest.approx(0.14765, abs=2e-4)
        assert e_opt == pytest.approx(0.708, abs=0.01)

    def test_single_w_axis_reference_n5(self):
        e_opt, eta_min, _ = optimize_eccentricity(5, "single_w_axis")
        assert eta_min == pytest.approx(0.193967, abs=1e-4)
        assert e_opt == pytest.approx(0.6963, abs=0.003)

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_eccentricity(5, "nonsense")
        with pytest.raises(ValueError):
            optimize_eccentricity(2, "two_axes")

    def test_curve_flattens_at_n20(self):
        # the error curve stays within 10% of its peak while e sweeps [0.55, 0.8]
        grid = np.linspace(0.55, 0.8, 6)
        etas = np.array([two_axis_eta(*cos_omega_xy(alice_two_axis_state(20, float(e))))
                         for e in grid])
        assert (etas.max() - etas.min()) / etas.max() < 0.10


class TestCompleteness:
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_random_states(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            wf = random_wavefunction(n, rng)
            assert povm_completeness_deviation(wf) < 1e-10

    def test_sparse_blocks(self):
        # states with vanishing blocks still integrate to one
        assert povm_completeness_deviation(padded(circular_state(6))) < 1e-12
        assert povm_completeness_deviation(padded(extreme_stark(6))) < 1e-12

    @pytest.mark.parametrize("n", [40, 64])
    def test_large_shells(self, n):
        rng = np.random.default_rng(n)
        directions = [unit(*rng.normal(size=3)) for _ in range(2)]
        for wf in (padded(alice_two_axis_state(n, 0.7)), build_elliptic(n, *directions),
                   random_wavefunction(n, rng)):
            assert povm_completeness_deviation(wf) <= 1e-12


def test_quadrature_rule_orders():
    rule = QuadratureRule.for_shell(10)
    assert (rule.n_beta, rule.n_alpha, rule.n_gamma) == (20, 44, 44)
    betas, weights = beta_nodes(rule)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert betas.min() > 0 and betas.max() < math.pi
