import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import sim_oracle
from sim_oracle import mv, oracle_digest, run_solved, sweep_solved

from ratecost import simloop
from ratecost.riccati import b_min, solve_control, solve_filter, solve_plant
from ratecost.simloop import (DIVERGENCE_NORM, SimConfig, TradeoffPoint,
                              _linear_filter, run, sweep)
from ratecost.sysmodel import LinearPlant, NoiseModel

BMIN_FULL = 4.23606797749979
BMIN_PARTIAL = 15.326237921249264


def scalar_plant(family="gaussian", var=1.0, x1_var=None):
    x1 = None if x1_var is None else NoiseModel("gaussian", [[x1_var]])
    return LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                       NoiseModel(family, [[var]]), noise_x1=x1)


def scalar_partial_plant():
    return LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                       NoiseModel("gaussian", [[1.0]]), c=[[1.0]],
                       noise_w=NoiseModel("gaussian", [[1.0]]))


def two_dim_plant(x1_var=None):
    x1 = None if x1_var is None else NoiseModel("gaussian", x1_var * np.eye(2))
    return LinearPlant(np.array([[1.4, 0.2], [0.0, 0.5]]), np.eye(2),
                       np.eye(2), np.eye(2), NoiseModel("gaussian", np.eye(2)),
                       noise_x1=x1)


def zero_filter_gain(plant):
    filt = solve_filter(plant)
    return dataclasses.replace(filt, K=np.zeros_like(filt.K))


def numpy_filter(f_mat, drive, y0):
    """The matrix filter stepped on numpy rows, norm-tested every row."""
    out, y = [], np.asarray(y0, dtype=float)
    for d in drive:
        if not np.linalg.norm(y) < DIVERGENCE_NORM:
            return np.array(out), True
        out.append(y)
        y = mv(f_mat, y) + d
    return np.array(out), not np.linalg.norm(y) < DIVERGENCE_NORM


class TestConfig:
    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError, match="burn_in"):
            SimConfig(scalar_plant(), 500, 1.0, burn_in=1000)

    def test_rejects_negative_burn_in(self):
        with pytest.raises(ValueError, match="burn_in"):
            SimConfig(scalar_plant(), 20_000, 1.0, burn_in=-5)

    def test_rejects_nonpositive_distortion(self):
        with pytest.raises(ValueError, match="distortion"):
            SimConfig(scalar_plant(), 2000, 0.0)

    def test_rejects_oversized_horizon(self):
        with pytest.raises(ValueError, match="horizon must be at most"):
            SimConfig(two_dim_plant(), simloop.MAX_STREAM_VALUES // 2 + 1, 1.0)
        SimConfig(scalar_plant(), simloop.MAX_STREAM_VALUES, 1.0)

    def test_rejects_short_entropy_window(self):
        with pytest.raises(ValueError, match="1000 samples past burn-in"):
            SimConfig(scalar_plant(), 1_999, 1.0)
        SimConfig(scalar_plant(), 2_000, 1.0)
        SimConfig(scalar_plant(), 1_001, None)  # no entropy, no window


class TestOracle:
    """run() against the per-step closed-loop oracle, bit for bit."""

    def test_fully_observed_bitwise_equal(self):
        cfg = SimConfig(scalar_plant(), 20_000, 0.8, seed=7)
        assert run_solved(cfg).digest == oracle_digest(cfg)

    def test_partially_observed_bitwise_equal(self):
        cfg = SimConfig(scalar_partial_plant(), 20_000, 0.8, seed=11)
        assert run_solved(cfg).digest == oracle_digest(cfg)

    def test_two_dim_bitwise_equal(self):
        cfg = SimConfig(two_dim_plant(), 2_000, 1.0, seed=2, burn_in=500)
        assert run_solved(cfg).digest == oracle_digest(cfg)

    def test_diverged_run_bitwise_equal(self):
        cfg = SimConfig(scalar_plant(x1_var=1e30), 5_000, 1.0, seed=0)
        res = run_solved(cfg)
        assert res.diverged
        assert res.digest == oracle_digest(cfg)

    def test_overflowing_rounding_is_a_divergence(self):
        # q / t overflows on the first step; round() used to raise
        # OverflowError out of run
        plant = LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                            NoiseModel("laplace", [[1.0]]),
                            noise_x1=NoiseModel("gaussian", [[1e300]]))
        res = run_solved(SimConfig(plant, 20_000, 1e-318, seed=2024))
        assert res.diverged
        assert res.steps == 0

    @pytest.mark.parametrize("case", ["scalar_small_cell", "partial"])
    def test_far_first_state_is_a_divergence_at_step_0(self, case):
        # x_0's index used to overflow int64 (a ValueError out of run):
        # no pass tested x_0 against DIVERGENCE_NORM
        if case == "partial":
            plant = LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                                NoiseModel("gaussian", [[1.0]]), c=[[1.0]],
                                noise_w=NoiseModel("gaussian", [[1.0]]),
                                noise_x1=NoiseModel("gaussian", [[1e200]]))
            cfg = SimConfig(plant, 2_000, 1.0, seed=0)
        else:
            cfg = SimConfig(scalar_plant(x1_var=1e30), 2_000, 1e-10, seed=0)
        res = run_solved(cfg)
        assert res.diverged
        assert res.steps == 0
        assert res.digest == oracle_digest(cfg)

    def test_cut_pre_pass_is_a_divergence(self, monkeypatch):
        # With K = 0 the prediction error grows as 2^i, so the pre-pass
        # stops before the horizon; its short rows used to meet the
        # full-length observation noise in a numpy broadcast error.
        monkeypatch.setattr(sim_oracle, "solve_filter", zero_filter_gain)
        plant = scalar_partial_plant()
        ctrl, filt = solve_control(plant), zero_filter_gain(plant)
        for d in (1.0, None):
            cfg = SimConfig(plant, 2_000, d, seed=0)
            res = run(cfg, ctrl, filt)
            assert res.diverged
            assert 0 < res.steps < 100
            if d is not None:
                assert res.digest == oracle_digest(cfg)


class TestDeterminism:
    def test_same_seed_same_digest(self):
        cfg = SimConfig(scalar_plant(), 10_000, 1.0, seed=123)
        a = run_solved(cfg)
        b = run_solved(cfg)
        assert a.digest == b.digest
        assert a.b_hat == b.b_hat

    def test_seed_sequence_config_replays(self):
        # a run used to spawn its streams off the config's SeedSequence,
        # which advanced it: the second run drew new noise
        cfg = SimConfig(scalar_plant("laplace"), 20_000, 1.0,
                        seed=np.random.SeedSequence(5))
        assert run_solved(cfg).digest == run_solved(cfg).digest
        fresh = dataclasses.replace(cfg, seed=np.random.SeedSequence(5))
        assert run_solved(fresh).digest == run_solved(cfg).digest

    def test_different_seed_differs(self):
        base = dict(plant=scalar_plant(), horizon=10_000, distortion=1.0)
        assert (run_solved(SimConfig(seed=1, **base)).digest
                != run_solved(SimConfig(seed=2, **base)).digest)


class TestFullyObserved:
    def test_separation_audit(self):
        cfg = SimConfig(scalar_plant(), 100_000, 1.0, seed=5)
        res = run_solved(cfg)
        assert not res.diverged
        assert abs(res.residual) <= 3.0 * res.se_b
        assert res.e_hat == 0.0
        assert abs(res.c_hat - BMIN_FULL) / BMIN_FULL < 0.02
        assert res.max_step_distortion <= 1.0 + 1e-9

    def test_unquantized_reaches_classical_cost(self):
        cfg = SimConfig(scalar_plant(), 200_000, None, seed=9)
        res = run_solved(cfg)
        assert res.entropy is None
        assert res.d_hat == 0.0
        assert abs(res.b_hat - BMIN_FULL) / BMIN_FULL < 0.02

    def test_noiseless_loop_settles(self):
        # Exact zero noise keeps encoder and controller synchronized at the
        # origin.  Any nonzero state instead feeds the doubling map e -> a*e
        # inside the dead zone, so the error rides at cell scale forever.
        cfg = SimConfig(scalar_plant(var=0.0), 5_000, 1.0, seed=1)
        res = run_solved(cfg)
        assert res.b_hat == 0.0
        assert res.entropy.support == 1
        assert res.entropy.plug_in == 0.0

    def test_tiny_noise_error_rides_the_cell(self):
        cfg = SimConfig(scalar_plant(var=1e-20), 20_000, 1.0, seed=1)
        res = run_solved(cfg)
        # Uniform steady error on the cell gives d/3 in weighted terms.
        assert res.c_hat < 1e-12
        assert abs(res.d_hat - 1.0 / 3.0) < 0.02

    def test_divergence_flag(self):
        cfg = SimConfig(scalar_plant(x1_var=1e30), 5_000, 1.0, seed=0)
        res = run_solved(cfg)
        assert res.diverged
        assert res.steps == 0  # x_0 is past DIVERGENCE_NORM
        assert res.b_hat == math.inf
        assert res.entropy is None


class TestPartiallyObserved:
    def test_unquantized_reaches_partial_cost(self):
        cfg = SimConfig(scalar_partial_plant(), 400_000, None, seed=17)
        res = run_solved(cfg)
        assert res.d_hat == 0.0
        assert res.e_hat > 0.0
        assert abs(res.b_hat - BMIN_PARTIAL) / BMIN_PARTIAL < 0.02
        assert abs(res.residual) <= 3.0 * res.se_b

    def test_vanishing_observation_noise_matches_fully_observed(self):
        plant = LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                            NoiseModel("gaussian", [[1.0]]), c=[[1.0]],
                            noise_w=NoiseModel("gaussian", [[1e-12]]))
        cfg_p = SimConfig(plant, 150_000, 1.0, seed=21)
        cfg_f = SimConfig(scalar_plant(), 150_000, 1.0, seed=21)
        res_p = run_solved(cfg_p)
        res_f = run_solved(cfg_f)
        assert abs(res_p.b_hat - res_f.b_hat) / res_f.b_hat < 0.02

    def test_non_gaussian_rejected(self):
        plant = LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                            NoiseModel("laplace", [[1.0]]), c=[[1.0]],
                            noise_w=NoiseModel("gaussian", [[1.0]]))
        cfg = SimConfig(plant, 5_000, 1.0)
        with pytest.raises(Exception, match="[Gg]aussian"):
            run_solved(cfg)


class TestMatrixPlant:
    def test_two_dim_loop_runs_and_separates(self):
        plant = two_dim_plant()
        cfg = SimConfig(plant, 60_000, 1.0, seed=2)
        res = run_solved(cfg)
        assert not res.diverged
        assert abs(res.residual) <= 3.0 * res.se_b
        assert res.max_step_distortion <= 1.0 + 1e-9
        ctrl = solve_control(plant)
        bmin = b_min(plant, ctrl)
        assert res.b_hat > bmin


    def test_two_dim_diverged_run_bitwise_equal(self):
        cfg = SimConfig(two_dim_plant(x1_var=1e26), 5_000, 1.0, seed=0)
        res = run_solved(cfg)
        assert res.diverged
        assert res.digest == oracle_digest(cfg)

    @pytest.mark.parametrize("seed", range(6))
    def test_undecodable_first_input_is_a_divergence(self, seed):
        # a first state near 1e18 is beyond the A_n* decode on seeds 0, 1, 3
        # and 4, which used to raise its ValueError out of run
        cfg = SimConfig(two_dim_plant(x1_var=1e36), 2_000, 1.0, seed=seed)
        res = run_solved(cfg)
        assert res.diverged
        assert res.steps <= 1
        assert res.digest == oracle_digest(cfg)

    @pytest.mark.parametrize("case", ["stable", "diverges", "nan", "overflow",
                                      "at_limit", "y0_at_limit"])
    def test_matrix_filter_matches_numpy_steps(self, case):
        rng = np.random.default_rng(8)
        f_mat = rng.normal(size=(3, 3))
        f_mat *= 0.9 / np.abs(np.linalg.eigvals(f_mat)).max()
        drive = rng.normal(size=(400, 3)) * 100.0
        y0 = rng.normal(size=3)
        if case == "diverges":
            f_mat *= 1.5
        elif case == "nan":
            drive[123, 1] = math.nan
        elif case == "overflow":
            f_mat = np.eye(3) * 1e200
        elif case == "at_limit":  # the norm of y_1 lands on the limit exactly
            f_mat, drive = 2.0 * np.eye(3), np.zeros((50, 3))
            y0 = np.array([3e11, 4e11, 0.0])
        elif case == "y0_at_limit":
            f_mat, drive = np.eye(3), np.zeros((50, 3))
            y0 = np.array([6e11, 8e11, 0.0])
        with np.errstate(over="ignore"):
            rows, diverged = _linear_filter(f_mat, drive, y0)
            ref, ref_diverged = numpy_filter(f_mat, drive, y0)
        assert diverged == ref_diverged == (case != "stable")
        assert rows.tobytes() == ref.tobytes()
        if case.endswith("at_limit"):
            assert len(rows) == (1 if case == "at_limit" else 0)


class TestSweep:
    def test_requires_eight_points(self):
        with pytest.raises(ValueError, match="grid"):
            sweep_solved(scalar_plant(), [0.5] * 5, horizon=5_000)

    def test_dominance_and_ordering(self):
        # Grid stays away from b_min where the bound is steep enough that
        # short-run jitter in b_hat could fake a crossing.
        plant = scalar_plant()
        grid = np.geomspace(1.5, 12.0, 8)
        pts = sweep_solved(plant, grid, horizon=50_000, seed=6)
        assert len(pts) == 8
        live = [p for p in pts if not p.diverged]
        b_vals = [p.b_hat for p in live]
        assert b_vals == sorted(b_vals)
        for p in live:
            assert isinstance(p, TradeoffPoint)
            assert p.h_nats >= p.lower_nats
            assert p.upper_nats >= p.lower_nats
            assert math.isclose(p.h_bits, p.h_nats / math.log(2.0),
                                rel_tol=1e-12)


def three_dim_plant():
    return LinearPlant(np.diag([1.3, -0.6, 0.9]) + 0.1, np.eye(3), np.eye(3),
                       np.eye(3), NoiseModel("gaussian", np.eye(3)))


def two_dim_partial_plant():
    return LinearPlant(np.array([[1.4, 0.2], [0.0, 0.5]]), np.eye(2),
                       np.eye(2), np.eye(2), NoiseModel("gaussian", np.eye(2)),
                       c=[[1.0, 0.5]], noise_w=NoiseModel("gaussian", [[1.0]]))


def far_laplace_plant():
    return LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                       NoiseModel("laplace", [[1.0]]),
                       noise_x1=NoiseModel("gaussian", [[1e300]]))


class TestLockstepSweep:
    """An n >= 2 sweep steps its points' coders together, and an n = 1
    sweep runs its points on worker processes; each point must still be its
    own run, bit for bit, and in grid order."""

    # d = 1e-31 puts the coder input near 1e15 cells, where A_n* has no
    # zero-sum coset on some step: point 0 is cut early, the rest go on.
    # On the integers it crosses 2^51 cells on some steps, where the coder
    # rounds through round() instead of the float shift.
    GRID = [1e-31, *np.geomspace(0.5, 8.0, 7)]

    @pytest.mark.parametrize("case", ["n2", "n3", "partial_n2",
                                      "partial_n2_cut_pre_pass", "n1_laplace",
                                      "n1_partial", "n1_rounding_overflow"])
    def test_each_point_equals_its_own_run(self, case, monkeypatch):
        plant = {"n2": two_dim_plant, "n3": three_dim_plant,
                 "n1_laplace": lambda: scalar_plant("laplace"),
                 "n1_partial": scalar_partial_plant,
                 "n1_rounding_overflow": far_laplace_plant}.get(
            case, two_dim_partial_plant)()
        grid = list(self.GRID)
        if case == "n1_rounding_overflow":
            # x_0 near 1e150: the coder input over the d = 1e-318 cell
            # overflows round() at step 0
            grid[0] = 1e-318
        ctrl, filt, _ = solve_plant(plant)
        if case.endswith("cut_pre_pass"):
            # K = 0: each point's pre-pass stops near step 80, at a length
            # of its own, so the lockstep meets streams of unequal length
            filt = zero_filter_gain(plant)
        results = []

        def keep(plant, ctrl, filt, bmin, d, res):
            results.append(res)
            return TradeoffPoint(*[math.nan] * 10, res.diverged)

        monkeypatch.setattr(simloop, "tradeoff_point", keep)
        sweep(plant, ctrl, filt, grid, horizon=2_000, seed=5, burn_in=500)
        for i, (d, res) in enumerate(zip(grid, results, strict=True)):
            ss = np.random.SeedSequence(5, spawn_key=(i,))
            cfg = SimConfig(plant, 2_000, d, seed=ss, burn_in=500)
            assert repr(res) == repr(run(cfg, ctrl, filt))
        steps = [res.steps for res in results]
        if case.endswith("cut_pre_pass"):
            assert max(steps) < 100 and len(set(steps)) > 1
        elif case == "n1_rounding_overflow":
            assert set(steps) == {0}
            # the smallest d's coder stops at its first input
            cell = simloop.lattice_for_dimension(1).scale_to_distortion(1e-318)
            q, _ = simloop._wrap(cell, np.eye(1), np.array([[1e150]]))
            assert len(q) == 0
        elif case.startswith("n1"):
            assert set(steps) == {2_000}
        else:
            assert steps[0] < 2_000 and set(steps[1:]) == {2_000}


# Random plants x' = A x + B u + v with Q = R = I.  A is strictly diagonally
# dominant with |a_ii| in [0.5, 2] (nonsingular, unstable modes allowed) and
# B is near I, so (A, B) is controllable and W = A^T M A is nonsingular.
@st.composite
def square_plants(draw):
    n = draw(st.integers(1, 3))
    diag = draw(arrays(np.float64, n, elements=st.floats(0.5, 2.0)))
    signs = draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
    off = draw(arrays(np.float64, (n, n), elements=st.floats(-0.4, 0.4))) / n
    a = np.diag(diag * signs) + off - np.diag(np.diag(off))
    b = np.eye(n) + draw(arrays(np.float64, (n, n),
                                elements=st.floats(-0.3, 0.3))) / n
    return a, b


def _cell_lists(cells):
    return st.lists(cells, min_size=1, max_size=12)


# Coder inputs counted in cells of the integer lattice, one family per
# example: half-integers, values near +-2^51 and +-2^52 (where the float
# rounding shift stops being exact), or any float and the non-finite ones.
WRAP_CELLS = st.one_of(
    _cell_lists(st.integers(-2 ** 52 + 1, 2 ** 52 - 1).map(lambda k: k + 0.5)),
    _cell_lists(st.builds(lambda edge, sign, k: sign * (edge + 0.5 * k),
                          st.sampled_from([2.0 ** 51, 2.0 ** 52]),
                          st.sampled_from([-1.0, 1.0]), st.integers(-8, 8))),
    _cell_lists(st.one_of(st.sampled_from([math.inf, -math.inf, math.nan]),
                          st.floats())))


def _plant(a, b):
    n = a.shape[0]
    return LinearPlant(a, b, np.eye(n), np.eye(n),
                       NoiseModel("gaussian", np.eye(n)))


class TestEngineProperties:
    @given(square_plants(), st.floats(0.05, 20.0), st.integers(0, 2**32 - 1))
    def test_replay_and_distortion_bound(self, ab, d, seed):
        cfg = SimConfig(_plant(*ab), 1_200, d, seed=seed, burn_in=100)
        first = run_solved(cfg)
        assert not first.diverged
        assert run_solved(cfg).digest == first.digest
        assert first.max_step_distortion <= d + 1e-9

    @given(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), st.booleans(),
           st.sampled_from([0.0, 2.0]), WRAP_CELLS)
    def test_integer_wrap_rounds_as_round_does(self, scale, snap, m, cells):
        # The scalar coder rounds in float arithmetic where it can; it must
        # give round()'s bits and stop on the same input.  With m = 0 and a
        # power-of-two scale, q / t is each drawn cell count exactly.
        t = 2.0 ** math.floor(math.log2(scale)) if snap else scale
        lattice = dataclasses.replace(
            simloop.lattice_for_dimension(1), scale=t)
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.array(cells) * t
        q, p = simloop._wrap(lattice, np.array([[m]]), h[:, None])
        ref_q, ref_p, eps = [], [], 0.0
        for hi in h.tolist():
            qi = m * eps + hi
            try:
                pi = round(qi / t) * t
            except (OverflowError, ValueError):
                break
            eps = qi - pi
            ref_q.append(qi)
            ref_p.append(pi)
        assert q[:, 0].tobytes() == np.array(ref_q, dtype=float).tobytes()
        assert p[:, 0].tobytes() == np.array(ref_p, dtype=float).tobytes()

    @given(square_plants(), st.data())
    def test_singular_weight_rejected(self, ab, data):
        a, b = ab
        a = a.copy()
        a[:, data.draw(st.integers(0, a.shape[0] - 1))] = 0.0
        with pytest.raises(ValueError, match="singular"):
            run_solved(SimConfig(_plant(a, b), 1_200, 1.0, burn_in=100))
