import math
import time
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from ratecost.riccati import (RiccatiError, _doubled_iterates, _step,
                              _value_iterate, b_min, solve_control,
                              solve_filter)
from ratecost.sysmodel import LinearPlant, NoiseModel
from test_bounds import matrix_plant

# Closed forms for the scalar benchmark A=2, B=C=Q=R=1, unit noise:
#   S = P = 2 + sqrt(5), M = N = (7 + 3 sqrt(5))/4, L = K = Sigma = (1 + sqrt(5))/4.
S_SCALAR = 4.23606797749979
M_SCALAR = 3.4270509831248423
L_SCALAR = 0.8090169943749475
BMIN_PARTIAL = 15.326237921249264


def gaussian_plant(a, b, q, r, cov_v, c=None, cov_w=None):
    noise_w = None if cov_w is None else NoiseModel("gaussian", cov_w)
    return LinearPlant(a, b, q, r, NoiseModel("gaussian", cov_v), c=c, noise_w=noise_w)


def scalar_partial():
    return gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
                          c=[[1.0]], cov_w=[[1.0]])


class TestControlRiccati:
    def test_scalar_oracle(self):
        plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        start = time.perf_counter()
        sol = solve_control(plant)
        assert time.perf_counter() - start < 1.0
        assert math.isclose(sol.S[0, 0], S_SCALAR, abs_tol=1e-9)
        assert math.isclose(sol.M[0, 0], M_SCALAR, abs_tol=1e-9)
        assert math.isclose(sol.L[0, 0], L_SCALAR, abs_tol=1e-9)
        assert sol.residual < 1e-10
        assert not sol.pseudo_inverse_used

    def test_zero_dynamics(self):
        # A = 0: S = Q after one step, M = Q B (R + B'QB)^-1 B'Q.
        plant = gaussian_plant([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        sol = solve_control(plant)
        assert math.isclose(sol.S[0, 0], 1.0, abs_tol=1e-12)
        assert math.isclose(sol.M[0, 0], 0.5, abs_tol=1e-12)
        assert math.isclose(sol.L[0, 0], 0.5, abs_tol=1e-12)

    def test_free_control(self):
        # R = 0 with scalar B=1 collapses to S = Q, M = S, L = 1.
        plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
        sol = solve_control(plant)
        assert math.isclose(sol.S[0, 0], 1.0, abs_tol=1e-10)
        assert math.isclose(sol.M[0, 0], 1.0, abs_tol=1e-10)
        assert math.isclose(sol.L[0, 0], 1.0, abs_tol=1e-10)

    def test_pseudo_inverse_flagged_when_gain_cost_singular(self):
        plant = gaussian_plant(
            0.5 * np.eye(2),
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.eye(2),
            np.zeros((2, 2)),
            np.eye(2),
        )
        sol = solve_control(plant)
        assert sol.pseudo_inverse_used
        assert sol.residual < 1e-9

    def test_trace_monotone_in_q(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3)) * 0.9
        b = rng.standard_normal((3, 2))
        base = gaussian_plant(a, b, np.eye(3), np.eye(2), np.eye(3))
        bumped = gaussian_plant(a, b, 2.0 * np.eye(3), np.eye(2), np.eye(3))
        assert np.trace(solve_control(bumped).S) > np.trace(solve_control(base).S)

    def test_fixed_point_matrix_case(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        plant = gaussian_plant(a, b, np.eye(4), np.eye(2), np.eye(4))
        sol = solve_control(plant)
        g = plant.R + plant.B.T @ sol.S @ plant.B
        m_alt = sol.L.T @ g @ sol.L
        assert np.allclose(sol.M, m_alt, atol=1e-9)
        assert np.allclose(sol.gain_cost, g, atol=1e-12)
        recon = plant.Q + a.T @ (sol.S - sol.M) @ a
        assert np.allclose(sol.S, recon, atol=1e-9)


    def test_overflowing_iterate_raises(self):
        # The 1.5 mode is unstable and uncontrollable, so S grows until its
        # norm overflows; an inf norm used to pass the relative stop test.
        plant = gaussian_plant(np.diag([2.0, 1.5]), [[1.0], [0.0]], np.eye(2),
                               [[1.0]], np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RiccatiError, match="not finite at iteration"):
                solve_control(plant)

    def test_unreachable_unit_circle_mode_raises(self):
        # The mode at 1 is uncontrollable, so S grows linearly with the
        # horizon and never overflows: the doubling pass must give up at its
        # cap rather than take a relative stop at H_22 = 2^k
        plant = gaussian_plant(np.diag([2.0, 1.0]), [[1.0], [0.0]], np.eye(2),
                               [[1.0]], np.eye(2))
        start = time.perf_counter()
        with pytest.raises(RiccatiError, match="did not converge"):
            solve_control(plant)
        assert time.perf_counter() - start < 1.0

    def test_slow_closed_loop_converges(self):
        # Closed loop 1 - 1.25e-4: the value iteration from S = Q takes
        # 98,563 steps and stops 4e-11 short, and fewer than 19 doublings
        # would refuse the plant
        beta = 1.25e-4
        plant = gaussian_plant([[1.0]], [[beta]], [[1.0]], [[1.0]], [[1.0]])
        start = time.perf_counter()
        s = solve_control(plant).S[0, 0]
        assert time.perf_counter() - start < 1.0
        assert math.isclose(s, 0.5 + math.sqrt(0.25 + beta**-2), rel_tol=1e-12)

    def test_nan_plant_fails_at_once(self):
        plant = gaussian_plant([[math.nan]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RiccatiError, match="at iteration 1$"):
                solve_control(plant)


    def test_scalar_solution_to_a_few_ulp(self):
        # S = 2 + sqrt(5); a value iteration from S = Q stopped 84 ulp short
        plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        exact = 2.0 + math.sqrt(5.0)
        assert abs(solve_control(plant).S[0, 0] - exact) <= 4 * math.ulp(exact)


def mp_fixed_point(a, b, q, r, x0):
    """40-digit value iteration from the float solution x0 until the change
    is below 1e-36 relative.  Each iterate is symmetrized: otherwise its
    antisymmetric rounding grows at rho(A)^2 per step."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b, q, r, x = (mpmath.matrix(v.tolist()) for v in (a, b, q, r, x0))
        for _ in range(1000):
            bx = b.T * x
            x_next = q + a.T * (x - bx.T * (r + bx * b) ** -1 * bx) * a
            x_next = (x_next + x_next.T) / 2
            change = mpmath.mnorm(x_next - x, "f") / mpmath.mnorm(x_next, "f")
            x = x_next
            if change < mpmath.mpf("1e-36"):
                return np.array(x.tolist(), dtype=float)
    raise AssertionError("the 40-digit reference did not converge")


def test_pair_matches_a_40_digit_reference():
    plant = matrix_plant(4, 4, 2, 2)
    ctrl, filt = solve_control(plant), solve_filter(plant)
    s_ref = mp_fixed_point(plant.A, plant.B, plant.Q, plant.R, ctrl.S)
    p_ref = mp_fixed_point(plant.A.T, plant.C.T, plant.noise_v.covariance,
                           plant.obs_cov, filt.P)
    assert np.linalg.norm(ctrl.S - s_ref) <= 1e-14 * np.linalg.norm(s_ref)
    assert np.linalg.norm(filt.P - p_ref) <= 1e-14 * np.linalg.norm(p_ref)


class TestFilterRiccati:
    def test_scalar_oracle(self):
        sol = solve_filter(scalar_partial())
        assert math.isclose(sol.P[0, 0], S_SCALAR, abs_tol=1e-9)
        assert math.isclose(sol.K[0, 0], L_SCALAR, abs_tol=1e-9)
        assert math.isclose(sol.Sigma[0, 0], L_SCALAR, abs_tol=1e-9)
        assert math.isclose(sol.N[0, 0], M_SCALAR, abs_tol=1e-9)

    def test_zero_dynamics(self):
        plant = gaussian_plant([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
                               c=[[1.0]], cov_w=[[1.0]])
        sol = solve_filter(plant)
        assert math.isclose(sol.P[0, 0], 1.0, abs_tol=1e-12)
        assert math.isclose(sol.K[0, 0], 0.5, abs_tol=1e-12)
        assert math.isclose(sol.Sigma[0, 0], 0.5, abs_tol=1e-12)
        assert math.isclose(sol.N[0, 0], 0.5, abs_tol=1e-12)

    def test_vanishing_observation_noise(self):
        plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
                               c=[[1.0]], cov_w=[[1e-10]])
        sol = solve_filter(plant)
        assert sol.Sigma[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert sol.N[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_unexcited_unstable_mode_starts_from_sigma_x1(self):
        # Sigma_V leaves the mode at 2 unexcited, so P = 0 there is a fixed
        # point too; from P = Sigma_X1 the recursion reaches the stabilising
        # P = 4 P / (P + 1) = 3, the Kalman prior variance, and the solver
        # must land there, not at the limit from P = 0
        plant = LinearPlant(np.diag([2.0, 0.5]), np.eye(2), np.eye(2), np.eye(2),
                            NoiseModel("gaussian", np.diag([0.0, 1.0])), c=np.eye(2),
                            noise_w=NoiseModel("gaussian", np.eye(2)),
                            noise_x1=NoiseModel("gaussian", np.eye(2)))
        sol = solve_filter(plant)
        assert math.isclose(sol.P[0, 0], 3.0, rel_tol=1e-12)
        assert math.isclose(sol.K[0, 0], 0.75, rel_tol=1e-12)

    def test_jump_covariance_identity(self):
        # K (C P C' + Sigma_W) K' must equal A Sigma A' - Sigma + Sigma_V.
        rng = np.random.default_rng(19)
        a = rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 3))
        cov_v = np.eye(3)
        plant = gaussian_plant(a, rng.standard_normal((3, 1)), np.eye(3), [[1.0]],
                               cov_v, c=c, cov_w=np.eye(2))
        sol = solve_filter(plant)
        alt = a @ sol.Sigma @ a.T - sol.Sigma + cov_v
        assert np.allclose(sol.N, alt, atol=1e-9)

    def test_rejects_fully_observed_and_non_gaussian(self):
        with pytest.raises(RiccatiError):
            solve_filter(gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]]))
        plant = LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                            NoiseModel("laplace", [[1.0]]),
                            c=[[1.0]], noise_w=NoiseModel("gaussian", [[1.0]]))
        with pytest.raises(ValueError):
            solve_filter(plant)


class TestBmin:
    def test_fully_observed(self):
        plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert math.isclose(b_min(plant, solve_control(plant)), S_SCALAR, abs_tol=1e-9)

    def test_partially_observed(self):
        plant = scalar_partial()
        got = b_min(plant, solve_control(plant), solve_filter(plant))
        assert math.isclose(got, BMIN_PARTIAL, abs_tol=1e-6)

    def test_partial_cost_exceeds_full(self):
        plant = scalar_partial()
        ctrl = solve_control(plant)
        assert b_min(plant, ctrl, solve_filter(plant)) > b_min(plant, ctrl)


def _spd(rng, n, scale):
    f = rng.standard_normal((n, n))
    return scale * (f @ f.T / n + 0.1 * np.eye(n))


@st.composite
def random_plants(draw, max_n=6):
    """Generic random plant, n <= max_n, m <= n, with weights and noise at
    one scale drawn from {1, 1e3, 1e6}; partially observed on half the
    draws.  R and Sigma_W are zero on some draws (pseudo-inverse path)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, n))
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    a = rng.standard_normal((n, n))
    a *= draw(st.floats(0.3, 1.5)) / max(np.abs(np.linalg.eigvals(a)).max(), 1e-3)
    b = rng.standard_normal((n, m))
    r = np.zeros((m, m)) if draw(st.booleans()) and m == n else _spd(rng, m, scale)
    c = cov_w = None
    if draw(st.booleans()):
        p = draw(st.integers(1, n))
        c = rng.standard_normal((p, n))
        cov_w = np.zeros((p, p)) if draw(st.booleans()) and p == n else _spd(rng, p, scale)
    return gaussian_plant(a, b, _spd(rng, n, scale), r, _spd(rng, n, scale),
                          c=c, cov_w=cov_w)


def assert_matches_dare(x, a, b, q, r):
    """x solves the DARE for (a, b, q, r), by scipy as the oracle."""
    if np.linalg.matrix_rank(r) < r.shape[0]:
        return
    ref = solve_discrete_are(a, b, q, r)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


class TestScaleInvariance:
    @given(random_plants())
    def test_converges_at_any_scale(self, plant):
        ctrl = solve_control(plant)
        assert ctrl.residual <= 1e-9 * np.linalg.norm(ctrl.S)
        assert_matches_dare(ctrl.S, plant.A, plant.B, plant.Q, plant.R)
        if not plant.fully_observed:
            filt = solve_filter(plant)
            assert filt.residual <= 1e-9 * np.linalg.norm(filt.P)
            assert_matches_dare(filt.P, plant.A.T, plant.C.T,
                                plant.noise_v.covariance, plant.obs_cov)

    def test_large_cost_plant_converges(self, large_cost_plant):
        plant = large_cost_plant
        sol = solve_control(plant)
        assert sol.residual <= 1e-9 * np.linalg.norm(sol.S)
        assert_matches_dare(sol.S, plant.A, plant.B, plant.Q, plant.R)

    @given(random_plants())
    def test_rescaled_plant_scales_the_solution(self, plant):
        # S(sQ, sR) = s S(Q, R) and P(s Sigma) = s P(Sigma) exactly; the
        # reference is the plant at s = 1, not solve_discrete_are, which
        # can fail to reorder (A, B) at s = 1e-12.  At s = 1e-150 and
        # 1e150 the iterate's squared entries leave the double range.
        ctrl = solve_control(plant)
        filt = None if plant.fully_observed else solve_filter(plant)
        for s in (1e-3, 1e-6, 1e-12, 1e-150, 1e150):
            small = gaussian_plant(
                plant.A, plant.B, s * plant.Q, s * plant.R,
                s * plant.noise_v.covariance,
                c=None if filt is None else plant.C,
                cov_w=None if filt is None else s * plant.obs_cov)
            s_small = solve_control(small).S / s
            assert (np.linalg.norm(s_small - ctrl.S)
                    <= 1e-9 * np.linalg.norm(ctrl.S))
            if filt is not None:
                p_small = solve_filter(small).P / s
                assert (np.linalg.norm(p_small - filt.P)
                        <= 1e-9 * np.linalg.norm(filt.P))

    @given(st.floats(1.01, 1000.0), st.booleans(), st.integers(-30, 30))
    def test_scalar_closed_form_at_any_cost_scale(self, a, negative, j):
        # B = V = 1, Q = R = 4^j: S = 4^j (a^2 + sqrt(a^4 + 4))/2.  The solve
        # ends on a value step that moved S by at most the rounding floor
        # 8 u a^2 of _tolerance, and the closed loop a / (1 + S/4^j) < 1/a
        # shrinks the error before that step by a^2, so S lies within one
        # floor of the fixed point: K = 8.  A stop rule without that floor
        # raised after MAX_ITER value steps on the draw a = 26, j = 0.
        a = -a if negative else a
        s = 4.0 ** j
        exact = s * (a * a + math.sqrt(a ** 4 + 4.0)) / 2.0
        plant = gaussian_plant([[a]], [[1.0]], [[s]], [[s]], [[1.0]])
        err = abs(solve_control(plant).S[0, 0] - exact) / exact
        assert err <= 8 * 2.0 ** -53 * a * a

    @pytest.mark.parametrize("a", [3356.0, -3e7, 1e10])
    def test_plant_past_the_rounding_floor_is_refused(self, a):
        # 8 u a^2 passes MAX_FLOOR = 1e-8 just below a = 3356; with no bound
        # the solve returned S 12% and 50% off the closed form at 3e7 and
        # 1e10, and exited 0
        plant = gaussian_plant([[a]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(RiccatiError, match=r"at \|\|A\|\|_F = "):
            solve_control(plant)

    @given(random_plants(max_n=4), st.sampled_from([-12, -3, 3, 12]))
    def test_power_of_4_scaling_is_exact(self, plant, j):
        # A power of 4 passes exactly through every operation of a solve
        # (a Cholesky factor and a Frobenius norm take 2^j) and the stop rule
        # is relative, so the scaled solve takes the same steps bit for bit.
        # A stop rule with an absolute part took 7 control iterations against
        # 6 on an n = 2, m = 1 fully observed draw at j = 3.
        s = 4.0 ** j
        ctrl = solve_control(plant)
        scaled = solve_control(LinearPlant(plant.A, plant.B, s * plant.Q,
                                           s * plant.R, plant.noise_v))
        assert np.array_equal(scaled.S, s * ctrl.S)
        assert scaled.iterations == ctrl.iterations
        if not plant.fully_observed:
            filt = solve_filter(plant)
            scaled = solve_filter(LinearPlant(
                plant.A, plant.B, plant.Q, plant.R,
                NoiseModel("gaussian", s * plant.noise_v.covariance),
                c=plant.C, noise_w=NoiseModel("gaussian", s * plant.obs_cov),
                noise_x1=NoiseModel("gaussian", s * plant.noise_x1.covariance)))
            assert np.array_equal(scaled.P, s * filt.P)
            assert scaled.iterations == filt.iterations

    @pytest.mark.parametrize("s", [1e-160, 1e155])
    def test_scalar_solution_where_squares_leave_the_double_range(self, s):
        # The stop test's norms used to underflow at 1e-160 (a stop after
        # 5 iterations at S/s = 4.2353) and overflow at 1e155 (a raise
        # at iteration 1)
        plant = gaussian_plant([[2.0]], [[1.0]], [[s]], [[s]], [[1.0]])
        ctrl = solve_control(plant)
        assert math.isclose(ctrl.S[0, 0] / s, S_SCALAR, rel_tol=1e-10)
        assert math.isclose(ctrl.L[0, 0], L_SCALAR, rel_tol=1e-10)
        assert ctrl.residual <= 1e-12 * ctrl.S[0, 0]

    @pytest.mark.parametrize("s", [1e-13, 1e-20, 1e-100])
    def test_scalar_gains_at_small_scale(self, s):
        # Q = R = Sigma_V = Sigma_W = s leaves both gains at (1 + sqrt(5))/4;
        # an absolute stop used to end the iteration at once below s = 1e-12
        plant = gaussian_plant([[2.0]], [[1.0]], [[s]], [[s]], [[s]],
                               c=[[1.0]], cov_w=[[s]])
        assert math.isclose(solve_control(plant).L[0, 0], L_SCALAR,
                            rel_tol=1e-10)
        assert math.isclose(solve_filter(plant).K[0, 0], L_SCALAR,
                            rel_tol=1e-10)


class TestDoubling:
    @given(random_plants(max_n=4))
    def test_doubled_iterate_is_the_value_iterate(self, plant):
        # (A_k, G_k, H_k) takes X to the value iterate 2^k steps on: H_k
        # from X = 0, H_k + A_k^T Q (I + G_k Q)^{-1} A_k from X = Q.  A
        # generic B reaches every mode, so the plant is stabilisable.
        a, b, q, r = plant.A, plant.B, plant.Q, plant.R
        assume(np.linalg.eigvalsh(r).min() > 0.0)
        x, y = np.zeros_like(q), q
        steps = 0
        for k, (a_k, g_k, h) in enumerate(islice(_doubled_iterates(a, b, q, r), 4), 1):
            while steps < 2**k:
                x, y = _step(a, b, q, r, x)[0], _step(a, b, q, r, y)[0]
                steps += 1
            from_q = h + a_k.T @ q @ np.linalg.solve(np.eye(len(a)) + g_k @ q, a_k)
            assert np.linalg.norm(h - x) <= 1e-12 * np.linalg.norm(x)
            assert np.linalg.norm(from_q - y) <= 1e-12 * np.linalg.norm(y)

    def test_singular_r_and_sigma_w_keep_the_plain_start(self):
        # R and Sigma_W without a Cholesky factor: no doubling, and the
        # solution is the value iteration's from Q and Sigma_X1, bit for bit
        plant = LinearPlant(0.9 * np.eye(2), np.eye(2), np.eye(2),
                            np.diag([1.0, 0.0]),
                            NoiseModel("gaussian", np.eye(2)), c=np.eye(2),
                            noise_w=NoiseModel("gaussian", np.diag([0.0, 1.0])),
                            noise_x1=NoiseModel("gaussian", 5.0 * np.eye(2)))
        a, b, c = plant.A, plant.B, plant.C
        s_plain = _value_iterate(a, b, plant.Q, plant.R, plant.Q)[0]
        p_plain = _value_iterate(a.T, c.T, plant.noise_v.covariance,
                                 plant.obs_cov, plant.noise_x1.covariance)[0]
        assert np.array_equal(solve_control(plant).S, s_plain)
        assert np.array_equal(solve_filter(plant).P, p_plain)
