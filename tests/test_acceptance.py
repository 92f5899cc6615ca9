"""Acceptance gate: one test per release criterion, each printing a
machine-greppable ACCEPTANCE line through the capture plumbing."""

import math
import time

import numpy as np
import pytest
from sim_oracle import oracle_digest, run_solved, sweep_solved

from ratecost.bounds import (
    causal_slb_lowrank,
    entropy_cost_upper,
    lower_bound_full,
    lower_bound_lowrank,
    lower_bound_partial,
    lower_bound_partial_lowrank,
    lower_bound_projected,
    make_projection,
)
from ratecost.quantizer import lattice_for_dimension
from ratecost.riccati import b_min, solve_control, solve_filter
from ratecost.simloop import SimConfig
from ratecost.sysmodel import LinearPlant, NoiseModel

SQRT5 = math.sqrt(5.0)
S_EXACT = 2.0 + SQRT5
M_EXACT = (7.0 + 3.0 * SQRT5) / 4.0
L_EXACT = (1.0 + SQRT5) / 4.0
BMIN_FULL = S_EXACT
BMIN_PARTIAL = S_EXACT + L_EXACT * 4.0 * M_EXACT  # 15.3262379212...
C_REF = 4.2360680
PARTIAL_REF = 15.3262


def plant_full(family="gaussian", var=1.0):
    return LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                       NoiseModel(family, [[var]]))


def plant_partial():
    return LinearPlant([[2.0]], [[1.0]], [[1.0]], [[1.0]],
                       NoiseModel("gaussian", [[1.0]]), c=[[1.0]],
                       noise_w=NoiseModel("gaussian", [[1.0]]))


def _finish(capsys, name, checks):
    ok = all(v for _, v in checks)
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    failed = [label for label, v in checks if not v]
    assert not failed, f"{name}: failed subchecks {failed}"


# -- shared expensive runs ---------------------------------------------------

@pytest.fixture(scope="module")
def full_quant_1m():
    cfg = SimConfig(plant_full(), 1_000_000, 1.0, seed=11)
    return cfg, run_solved(cfg)


@pytest.fixture(scope="module")
def partial_quant_1m():
    cfg = SimConfig(plant_partial(), 1_000_000, 1.0, seed=12)
    return cfg, run_solved(cfg)


@pytest.fixture(scope="module")
def laplace_sweep_1m():
    start = time.perf_counter()
    points = sweep_solved(plant_full("laplace"), np.geomspace(0.3, 30.0, 12),
                          horizon=1_000_000, seed=2024)
    return points, time.perf_counter() - start


def test_riccati_solver_oracles(capsys):
    start = time.perf_counter()
    ctrl = solve_control(plant_full())
    filt = solve_filter(plant_partial())
    elapsed = time.perf_counter() - start
    checks = [
        ("S", abs(ctrl.S[0, 0] - S_EXACT) <= 1e-9),
        ("M", abs(ctrl.M[0, 0] - M_EXACT) <= 1e-9),
        ("L", abs(ctrl.L[0, 0] - L_EXACT) <= 1e-9),
        ("P", abs(filt.P[0, 0] - S_EXACT) <= 1e-9),
        ("K", abs(filt.K[0, 0] - L_EXACT) <= 1e-9),
        ("Sigma", abs(filt.Sigma[0, 0] - L_EXACT) <= 1e-9),
        ("N", abs(filt.N[0, 0] - M_EXACT) <= 1e-9),
        ("runtime<1s", elapsed < 1.0),
    ]
    _finish(capsys, "riccati_solver_oracles", checks)


def test_scalar_gaussian_exactness(capsys):
    plant = plant_full()
    ctrl = solve_control(plant)
    bmin = b_min(plant, ctrl)
    checks = []
    for b in np.linspace(bmin + 1e-3, bmin + 50.0, 50):
        # closed form from the hand-solved scalar Riccati constants
        want = math.log(2.0) + 0.5 * math.log1p(M_EXACT / (b - BMIN_FULL))
        got = lower_bound_full(plant, ctrl, b)
        checks.append((f"b={b:.4f}",
                       math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)))
    _finish(capsys, "scalar_gaussian_exactness", checks)


def test_reduction_identities(capsys):
    start = time.perf_counter()
    checks = []

    # retained-modes bound at ell = n collapses to the full bound
    cases = [
        ([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]]),
        ([[1.3]], [[0.7]], [[2.0]], [[0.5]], [[0.8]]),
        (np.diag([2.0, 0.5]), np.eye(2), np.eye(2), np.eye(2), np.eye(2)),
    ]
    for i, (a, b_mat, q, r, cov) in enumerate(cases):
        plant = LinearPlant(a, b_mat, q, r, NoiseModel("gaussian", cov))
        ctrl = solve_control(plant)
        n = plant.n
        proj0 = make_projection(plant, ctrl, ell=n)
        m_prime = proj0.j.T @ ctrl.M @ proj0.j
        proj = make_projection(plant, ctrl, ell=n, lam=np.diag(m_prime))
        for b in (b_min(plant, ctrl) + 0.5, b_min(plant, ctrl) + 4.0):
            got = lower_bound_projected(plant, ctrl, b, proj)
            want = lower_bound_full(plant, ctrl, b)
            checks.append((f"projected->full[{i}]",
                           math.isclose(got, want, rel_tol=1e-9)))

    # square-input infimum bound collapses to the full bound
    cases = [
        ([[2.0]], np.eye(1)),
        (np.array([[2.0, 0.3], [0.0, 1.4]]), np.eye(2)),
        (np.random.default_rng(4).standard_normal((3, 3)) + 1.5 * np.eye(3),
         np.eye(3)),
    ]
    for i, (a, b_mat) in enumerate(cases):
        n = np.asarray(a).shape[0]
        plant = LinearPlant(a, b_mat, np.eye(n), np.eye(n),
                            NoiseModel("gaussian", np.eye(n)))
        ctrl = solve_control(plant)
        for b in (b_min(plant, ctrl) + 0.5, b_min(plant, ctrl) + 4.0):
            res = lower_bound_lowrank(plant, ctrl, b)
            want = lower_bound_full(plant, ctrl, b)
            checks.append((f"lowrank->full[{i}]",
                           res.converged
                           and math.isclose(res.nats, want, rel_tol=1e-9)))

    # full-rank observation infimum bound collapses to the partial bound
    cases = [
        ([[2.0]], [[1.0]], [[1.0]]),
        (np.array([[2.0, 0.3], [0.0, 1.4]]), np.eye(2), 0.5 * np.eye(2)),
        (np.diag([2.0, 0.5]), np.array([[1.0, 0.2], [0.0, 1.0]]),
         np.diag([0.5, 0.8])),
    ]
    for i, (a, c, cov_w) in enumerate(cases):
        n = np.asarray(a).shape[0]
        plant = LinearPlant(a, np.eye(n), np.eye(n), np.eye(n),
                            NoiseModel("gaussian", np.eye(n)), c=c,
                            noise_w=NoiseModel("gaussian", cov_w))
        ctrl = solve_control(plant)
        filt = solve_filter(plant)
        for b in (b_min(plant, ctrl, filt) + 0.5,
                  b_min(plant, ctrl, filt) + 4.0):
            res = lower_bound_partial_lowrank(plant, ctrl, filt, b)
            want = lower_bound_partial(plant, ctrl, filt, b)
            checks.append((f"partial_lowrank->partial[{i}]",
                           math.isclose(res.nats, want, rel_tol=1e-9)))

    # source-coding level: square determinant-ratio bound collapses to the
    # plain causal SLB
    for i, n in enumerate((1, 2, 3)):
        rng = np.random.default_rng(i)
        a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        l_mat = rng.standard_normal((n, n))
        k_mat = rng.standard_normal((n, n)) + np.eye(n)
        g = rng.standard_normal((n, n))
        cov = g @ g.T + 0.5 * np.eye(n)
        d = 1.7
        res = causal_slb_lowrank(a, l_mat, k_mat, cov,
                                 float(np.linalg.det(cov)) ** (1.0 / n))(d)
        a_plain = abs(np.linalg.det(a)) ** (1.0 / n)
        w_plain = float(np.linalg.det(l_mat.T @ l_mat)) ** (1.0 / n)
        ep_outer = float(np.linalg.det(k_mat @ cov @ k_mat.T)) ** (1.0 / n)
        want = 0.5 * n * math.log(a_plain ** 2 + w_plain * ep_outer * n / d)
        checks.append((f"slb_lowrank->slb[n={n}]",
                       math.isclose(res.nats, want, rel_tol=1e-9)))

    checks.append(("runtime<10s", time.perf_counter() - start < 10.0))
    _finish(capsys, "reduction_identities", checks)


def test_laplace_tradeoff_reproduction(capsys, laplace_sweep_1m):
    points, elapsed = laplace_sweep_1m
    live = [p for p in points if not p.diverged]
    checks = [("all points finished", len(live) == 12)]
    for p in live:
        checks.append((f"dominance d={p.d:.3g}", p.h_nats >= p.lower_nats))
    in_range = [p for p in live
                if BMIN_FULL + 0.1 <= p.b_hat <= BMIN_FULL + 10.0]
    gaps = [p.h_nats - p.lower_nats for p in in_range]
    checks.append(("in-range points exist", len(in_range) >= 8))
    checks.append(("max gap <= 0.6 nat", max(gaps) <= 0.6))
    checks.append(("gap shrinks toward b_min",
                   (live[0].h_nats - live[0].lower_nats)
                   <= (live[-1].h_nats - live[-1].lower_nats)))
    checks.append(("runtime<5min", elapsed < 300.0))
    _finish(capsys, "laplace_tradeoff_reproduction", checks)


def test_separation_audit(capsys, full_quant_1m, partial_quant_1m):
    _, full = full_quant_1m
    _, part = partial_quant_1m
    unq = run_solved(SimConfig(plant_partial(), 1_000_000, None, seed=13))
    checks = [
        ("full residual <= 3 se", abs(full.residual) <= 3.0 * full.se_b),
        ("full c_hat within 1%", abs(full.c_hat - C_REF) <= 0.01 * C_REF),
        ("partial residual <= 3 se", abs(part.residual) <= 3.0 * part.se_b),
        ("partial c_hat within 1%", abs(part.c_hat - C_REF) <= 0.01 * C_REF),
        ("unquantized partial b_hat within 1%",
         abs(unq.b_hat - PARTIAL_REF) <= 0.01 * PARTIAL_REF),
    ]
    _finish(capsys, "separation_audit", checks)


def test_quantizer_guarantees(capsys, full_quant_1m):
    checks = []
    for n in (1, 2, 3, 4):
        lat = lattice_for_dimension(n).scale_to_distortion(0.7)
        rng = np.random.default_rng(100 + n)
        pts = rng.uniform(0.0, 1.0, size=(100_000, n)) @ lat.basis.T
        err = np.linalg.norm(pts - lat.nearest(pts), axis=1)
        checks.append((f"covering n={n} zero violations",
                       float(err.max()) <= lat.covering_radius + 1e-12))

    cfg, res = full_quant_1m
    checks.append(("per-step weighted distortion <= d over 1e6 steps",
                   res.max_step_distortion <= cfg.distortion + 1e-9))

    rerun = run_solved(cfg)
    checks.append(("determinism digests equal", rerun.digest == res.digest))
    # the engine against the per-step closed-loop oracle, bit for bit
    cfg_s = SimConfig(plant_full(), 100_000, 1.0, seed=11)
    checks.append(("engine cross-check digests equal",
                   run_solved(cfg_s).digest == oracle_digest(cfg_s)))
    _finish(capsys, "quantizer_guarantees", checks)


def test_rate_asymptote_and_floor(capsys):
    plant = plant_full()
    ctrl = solve_control(plant)
    checks = [("asymptote -> log 2",
               abs(lower_bound_full(plant, ctrl, 1e6) - math.log(2.0)) <= 1e-3)]
    points = sweep_solved(plant, np.geomspace(0.5, 500.0, 8),
                          horizon=1_000_000, seed=5)
    floor = math.log(2.0) - 0.05
    for p in points:
        if not p.diverged:
            checks.append((f"entropy floor d={p.d:.3g}", p.h_nats >= floor))
    _finish(capsys, "rate_asymptote_and_floor", checks)


def test_partial_observation_bound(capsys):
    plant = plant_partial()
    ctrl = solve_control(plant)
    filt = solve_filter(plant)
    bmin = b_min(plant, ctrl, filt)
    got = lower_bound_partial(plant, ctrl, filt, bmin + 1.0)
    want = math.log(2.0) + 0.5 * math.log1p(M_EXACT ** 2)
    checks = [
        ("b_min matches hand value", abs(bmin - BMIN_PARTIAL) <= 1e-9),
        ("value at b_min+1", abs(got - want) <= 1e-6),
    ]
    points = sweep_solved(plant, np.geomspace(0.8, 20.0, 8), horizon=200_000,
                          seed=21)
    live = [p for p in points if not p.diverged]
    checks.append(("sweep finished", len(live) == 8))
    for p in live:
        checks.append((f"dominates pointwise d={p.d:.3g}",
                       p.h_nats >= p.lower_nats))
    _finish(capsys, "partial_observation_bound", checks)
