"""Closed-loop Monte-Carlo simulation of quantized certainty-equivalence
control, with cost decomposition audits and tradeoff-curve sweeps.

The controller applies u = -L A s_hat, where s_hat is the DPCM decoder
state; the coder quantizes innovations under the weight W = A^T M A.  The
simulator is one engine built on the separation structure b = c + e + d:

1. A linear pre-pass turns the sampled noise into the coder's driving term
   xi: the process noise v when the plant is fully observed, otherwise the
   Kalman innovation jump, driven by an estimation error that follows its
   own linear recursion.
2. The only nonlinear sequential step is the whitened coder error,
   eps_i = wrap(W^{1/2} A W^{-1/2} eps_{i-1} + W^{1/2} xi_i), where wrap
   subtracts the nearest lattice point.  It does not depend on the control.
   Before step 0, s_hat = 0 and u = 0, so xi_0 is the first innovation.
   One run steps it on Python floats for every lattice (no numpy call per
   step on the integers; on A_n*, two small products and the zero-sum
   coset decode).  A sweep on an n >= 2 plant steps all its points
   together instead, with one batched A_n* decode per step.  Both give the
   same bits as ``Lattice.nearest``.  A sweep on an n = 1 plant runs its
   points on forked worker processes instead, one point per task.
   An input ``Lattice.nearest`` refuses (outside ``DECODE_RANGE``) ends
   the run at that step, which is reported as a divergence.  So does a row
   of either linear pass, the first one included, whose norm reaches
   ``DIVERGENCE_NORM``: every stream is cut at the shortest pass.
3. Linear passes compute the rest: the closed-loop state (a stable linear
   filter of v and the total error x - s_hat, stepped on Python floats),
   the control, the c/e/d terms, the digest and the audits.  The per-step
   weighted error is recomputed from the emitted indices through
   ``Lattice.point_of`` and must stay within the design distortion d.
"""

from __future__ import annotations

import hashlib
import math
import os
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .bounds import sandwich_curve, whitening
from .quantizer import (DECODE_RANGE, MIN_ENTROPY_SAMPLES, EntropyEstimate,
                        empirical_entropy, lattice_for_dimension)
from .riccati import b_min
from .sysmodel import LinearPlant

DIVERGENCE_NORM = 1e12
# horizon x n: a run holds several horizon-length streams, and a lockstep
# sweep those of every point, so one stream stays within 800 MB
MAX_STREAM_VALUES = 10 ** 8
# For |x| < 2^51, (x + 1.5 * 2^52) lies in [2^52, 2^53), where the float
# spacing is 1, so adding and subtracting the even shift rounds x to the
# nearest integer, ties to even, as round() does: exact in DECODE_RANGE.
ROUND_SHIFT = 6755399441055744.0
BATCH_COUNT = 20
DISTORTION_SLACK = 1e-9
MIN_SWEEP_POINTS = 8


@dataclass(frozen=True)
class SimConfig:
    """One closed-loop run: quantized when distortion is set, else the
    classical (rate-unconstrained) loop.  The plant's observation structure
    decides whether the coder sees the process noise or the innovation.
    seed is an int or a SeedSequence; either way a config replays."""

    plant: LinearPlant
    horizon: int
    distortion: float | None
    seed: int | np.random.SeedSequence = 0
    burn_in: int = 1000

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.horizon <= self.burn_in:
            raise ValueError("horizon must exceed burn_in")
        check_horizon(self.horizon, self.plant.n)
        if self.distortion is not None and self.distortion <= 0:
            raise ValueError("distortion must be positive when set")
        if (self.distortion is not None
                and self.horizon - self.burn_in < MIN_ENTROPY_SAMPLES):
            raise ValueError(
                f"need at least {MIN_ENTROPY_SAMPLES} samples past burn-in")


def check_horizon(horizon: int, n: int) -> None:
    """Refuse a horizon past ``MAX_STREAM_VALUES`` / n before any sampling."""
    if horizon * n > MAX_STREAM_VALUES:
        raise ValueError(f"horizon must be at most {MAX_STREAM_VALUES // n} "
                         f"for an n = {n} plant, got {horizon}")


@dataclass(frozen=True)
class SimResult:
    b_hat: float
    se_b: float
    c_hat: float
    e_hat: float
    d_hat: float
    residual: float
    entropy: EntropyEstimate | None
    max_step_distortion: float
    diverged: bool
    steps: int
    window: int
    digest: str


def _batch_se(series: np.ndarray) -> float:
    usable = (len(series) // BATCH_COUNT) * BATCH_COUNT
    if usable < BATCH_COUNT:
        return math.nan
    means = series[:usable].reshape(BATCH_COUNT, -1).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(BATCH_COUNT))


def _streams(seed) -> list[np.random.SeedSequence]:
    """SeedSequence(seed).spawn(3), without advancing a SeedSequence seed."""
    ss = (seed if isinstance(seed, np.random.SeedSequence)
          else np.random.SeedSequence(int(seed)))
    return [np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (j,),
                                   pool_size=ss.pool_size) for j in range(3)]


def _mv(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x @ mat.T`` for one vector or a stack of rows, summed in column
    order so that a row gives the same bits either way."""
    acc = x[..., 0, None] * mat[:, 0]
    for j in range(1, mat.shape[1]):
        acc = acc + x[..., j, None] * mat[:, j]
    return acc


def _quad(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", rows, weight, rows)


def _linear_filter(f_mat: np.ndarray, drive: np.ndarray, y0: np.ndarray):
    """y_{i+1} = F y_i + drive_i from y_0, stepped on Python floats.

    Returns (rows y_0 .. y_{k-1}, diverged), where y_k is the first iterate,
    y_0 and the final one included, whose norm reaches lim =
    ``DIVERGENCE_NORM``; k is the horizon when none does.  The loop steps
    every drive row untested, since Python floats overflow to inf or NaN
    silently, and the cut is found after it.  Rows of F y sum in ``_mv``'s
    column order.  On n = 1 the cut is the first |y| not below lim.  On
    n >= 2 ``np.linalg.norm`` decides every iterate whose float sum of
    squares, taken in column order, is not below (lim/2)^2, NaN included.
    """
    n, lim = drive.shape[1], DIVERGENCE_NORM
    out = array("d")
    if not np.linalg.norm(y0) < lim:
        return np.empty((0, n)), True
    if n == 1:
        f, y = float(f_mat[0, 0]), float(y0[0])
        append = out.append
        for r in memoryview(np.ascontiguousarray(drive[:, 0])):
            append(y)
            y = f * y + r
        append(y)
        ys = np.frombuffer(out)
        cut = np.flatnonzero(~(np.abs(ys) < lim))
        k = int(cut[0]) if len(cut) else len(drive)
        return ys[:k, None], len(cut) > 0
    rows, y = f_mat.tolist(), [float(v) for v in y0]
    for di in drive.tolist():
        out.extend(y)
        nxt = []
        for row, dr in zip(rows, di):
            acc = y[0] * row[0]
            for j in range(1, n):
                acc += y[j] * row[j]
            nxt.append(acc + dr)
        y = nxt
    out.extend(y)
    ys = np.frombuffer(out).reshape(-1, n)
    with np.errstate(over="ignore", invalid="ignore"):
        later = ys[1:]
        ss = later[:, 0] * later[:, 0]
        for j in range(1, n):
            ss = ss + later[:, j] * later[:, j]
        for i in np.flatnonzero(~(ss < (lim / 2.0) * (lim / 2.0))):
            if not np.linalg.norm(ys[i + 1]) < lim:
                return ys[:i + 1], True
    return ys[:-1], False


def _wrap(lattice, m_mat: np.ndarray, h: np.ndarray):
    """The coder error recursion eps_i = q_i - Q(q_i), q_i = M eps_{i-1} + h_i.

    Returns the quantizer inputs q and the chosen lattice points, one row
    per step.  Both loops run on plain floats and give the same bits as
    ``Lattice.nearest``: rounding on the integers (``_wrap_integer``, which
    finds its cut after its loop), the lattice's one-vector decoder on
    A_n*, with q summed in column order like ``_mv``.  The rows stop before
    the first input ``nearest`` refuses.
    """
    n = h.shape[1]
    if lattice.family == "integer_Z":
        return _wrap_integer(float(m_mat[0, 0]), lattice.scale,
                             np.ascontiguousarray(h[:, 0]))
    qs, ps = array("d"), array("d")
    rows = m_mat.tolist()
    eps = [0.0] * n
    with np.errstate(all="ignore"):  # the decode refuses what overflows
        try:
            for hi in h.tolist():
                q = []
                for row, hr in zip(rows, hi):
                    acc = eps[0] * row[0]
                    for j in range(1, n):
                        acc += eps[j] * row[j]
                    q.append(acc + hr)
                p = lattice._nearest_one(q)
                eps = [qr - pr for qr, pr in zip(q, p)]
                qs.extend(q)
                ps.extend(p)
        except ValueError:
            pass
    return np.frombuffer(qs).reshape(-1, n), np.frombuffer(ps).reshape(-1, n)


def _wrap_integer(m: float, t: float, h: np.ndarray):
    """``_wrap`` on the integers at cell width t, for the scalar drive h.

    The loop stores only q and rounds every step with the float shift,
    untested.  After it, the rows stop before the first stored input whose
    cell count |q/t| is not below ``DECODE_RANGE``, NaN included; up to
    there the shift is exact, and the chosen points are rebuilt in numpy
    with the loop's own IEEE operations.
    """
    qs, eps = array("d"), 0.0
    append = qs.append
    for hi in memoryview(h):
        q = m * eps + hi
        eps = q - ((q / t + ROUND_SHIFT) - ROUND_SHIFT) * t
        append(q)
    q = np.frombuffer(qs)
    with np.errstate(over="ignore", invalid="ignore"):
        x = q / t
        far = np.flatnonzero(~(np.abs(x) < DECODE_RANGE))
    k = int(far[0]) if len(far) else len(q)
    return q[:k, None], (((x[:k] + ROUND_SHIFT) - ROUND_SHIFT) * t)[:, None]


def _wrap_lockstep(lattices, m_mat: np.ndarray, hs):
    """``_wrap`` for the A_n* coders of several points of one plant, stepped
    together: one ``Lattice._nearest_rows`` call per step decodes every point
    still running, each at its own scale.  Returns one (q, points) pair per
    point, equal to its own ``_wrap`` bit for bit: q is summed in ``_mv``'s
    column order, and a point stops at the end of its h or before its first
    input the lattice cannot decode, while the others go on.
    """
    k, n = len(hs), m_mat.shape[0]
    ends = np.array([len(h) for h in hs], dtype=np.int64)
    horizon = int(ends.max(initial=0))
    h_all = np.zeros((k, horizon, n))
    for j, h in enumerate(hs):
        h_all[j, :len(h)] = h
    qs, ps = np.empty_like(h_all), np.empty_like(h_all)
    live = np.flatnonzero(ends > 0)
    scales = np.array([lat.scale for lat in lattices])[live]
    eps = np.zeros((len(live), n))
    i, stop = 0, ends[live].min(initial=horizon)
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        while len(live):
            q = _mv(m_mat, eps) + h_all[live, i]
            p, ok = lattices[0]._nearest_rows(q, scales)
            qs[live, i] = q
            ps[live, i] = p
            eps = q - p
            i += 1
            if i == stop or not ok.all():
                ends[live[~ok]] = i - 1
                going = ends[live] > i
                live, eps, scales = live[going], eps[going], scales[going]
                stop = ends[live].min(initial=horizon)
    return [(qs[j, :e], ps[j, :e]) for j, e in enumerate(ends)]


def _diverged_result(steps: int, window: int, digest: str) -> SimResult:
    nan = math.nan
    return SimResult(b_hat=math.inf, se_b=nan, c_hat=nan, e_hat=nan,
                     d_hat=nan, residual=nan, entropy=None,
                     max_step_distortion=nan, diverged=True, steps=steps,
                     window=window, digest=digest)


def run(cfg: SimConfig, ctrl, filt) -> SimResult:
    """Simulate one closed loop on the plant's Riccati pair (from
    ``solve_plant``) and audit its cost decomposition."""
    pt = _Point(cfg, ctrl, filt)
    if pt.lattice is None:
        return pt.finish(None, None)
    return pt.finish(*_wrap(pt.lattice, pt.m_mat, pt.h))


class _Point:
    """One run split around its coder recursion.  Construction samples the
    noise and runs the linear pre-pass (step 1), leaving the coder's drive
    ``h``; ``finish`` takes the coder's rows and runs step 3."""

    def __init__(self, cfg: SimConfig, ctrl, filt):
        plant = self.plant = cfg.plant
        self.cfg, self.ctrl = cfg, ctrl
        self.lattice = None
        if cfg.distortion is not None:
            w_sqrt, self.w_isqrt, _ = whitening(ctrl.W)
            self.m_mat = w_sqrt @ plant.A @ self.w_isqrt
            self.lattice = lattice_for_dimension(plant.n).scale_to_distortion(
                cfg.distortion)

        ss_v, ss_init, ss_w = _streams(cfg.seed)
        self.v = plant.noise_v.sample(np.random.default_rng(ss_v),
                                      cfg.horizon)
        self.x0 = plant.noise_x1.sample(np.random.default_rng(ss_init), 1)[0]

        # driving term xi and estimation error eta = x - x_est
        self.eta = None
        if filt is not None:
            wn = plant.noise_w.sample(np.random.default_rng(ss_w), cfg.horizon)
            ak = plant.A @ filt.K
            # a_i = x_i - (predicted estimate): a_{i+1} = A (a_i - xi_i) + v_i
            pred_err, _ = _linear_filter(plant.A - ak @ plant.C,
                                         self.v - _mv(ak, wn), self.x0)
            xi = _mv(filt.K, _mv(plant.C, pred_err) + wn[:len(pred_err)])
            self.eta = pred_err - xi
        else:
            xi = np.concatenate([self.x0[None], self.v[:-1]])
        if self.lattice is not None:
            self.h = _mv(w_sqrt, xi)

    def finish(self, q_in, points) -> SimResult:
        """Step 3, from the coder's inputs q and chosen points (None
        when unquantized)."""
        cfg, plant, ctrl, v = self.cfg, self.plant, self.ctrl, self.v
        partial, quantized = self.eta is not None, self.lattice is not None
        gain = ctrl.L @ plant.A
        # gap = x - s_hat.  A coder input it cannot decode cuts the run
        # there, as a divergence.
        gap = self.eta if partial else np.zeros_like(v)
        if quantized:
            gap = gap[:len(q_in)] + _mv(self.w_isqrt, q_in - points)

        # linear passes: state, control, audits, cost terms.  The state
        # pass is driven by the shortest stream, so it ends at the first cut.
        bg = plant.B @ gain
        xs, diverged = _linear_filter(plant.A - bg,
                                      _mv(bg, gap) + v[:len(gap)], self.x0)
        diverged = diverged or len(gap) < cfg.horizon
        steps = xs.shape[0]
        us = -_mv(gain, xs - gap[:steps])
        if quantized:
            idx = self.lattice.index_of(points[:steps])
        else:
            idx = np.zeros((steps, plant.n), dtype=np.int64)
        sha = hashlib.sha256(xs)
        sha.update(idx)
        digest = sha.hexdigest()
        window = max(steps - cfg.burn_in, 0)
        if diverged:
            return _diverged_result(steps, window, digest)

        max_dist = 0.0
        if quantized:
            # weighted error (x - s_hat)^T W (x - s_hat) in whitened
            # coordinates, against the decoder's reconstruction of the
            # emitted indices
            quant_err = np.sum((q_in - self.lattice.point_of(idx)) ** 2,
                               axis=1)
            max_dist = float(np.max(quant_err))
            if max_dist > cfg.distortion + DISTORTION_SLACK:
                raise RuntimeError(f"distortion guarantee violated: "
                                   f"{max_dist} > {cfg.distortion}")

        sl = slice(cfg.burn_in, steps)
        cost = _quad(xs[sl], plant.Q) + _quad(us[sl], plant.R)
        b_hat = float(cost.mean())
        c_hat = float(_quad(v[sl], ctrl.S).mean())
        e_hat = float(_quad(self.eta[sl], ctrl.W).mean()) if partial else 0.0
        d_hat = float(quant_err[sl].mean()) if quantized else 0.0
        entropy = (empirical_entropy(idx, burn_in=cfg.burn_in) if quantized
                   else None)

        return SimResult(b_hat=b_hat, se_b=_batch_se(cost), c_hat=c_hat,
                         e_hat=e_hat, d_hat=d_hat,
                         residual=b_hat - (c_hat + e_hat + d_hat),
                         entropy=entropy, max_step_distortion=max_dist,
                         diverged=False, steps=steps, window=window,
                         digest=digest)


@dataclass(frozen=True)
class TradeoffPoint:
    d: float
    b_hat: float
    h_nats: float
    h_bits: float
    lower_nats: float
    upper_nats: float
    c_hat: float
    e_hat: float
    d_hat: float
    residual: float
    diverged: bool


def sweep(plant: LinearPlant, ctrl, filt, d_grid, horizon: int,
          seed: int = 0, burn_in: int = 1000) -> list[TradeoffPoint]:
    """Run one simulation per distortion and pair each empirical point
    with the matching converse and achievability bounds at the measured
    cost.  Points are returned sorted by b_hat, diverged runs last.

    Every point runs on the Riccati pair ctrl, filt, and point i draws its
    noise from SeedSequence(seed, spawn_key=(i,)).
    """
    d_grid = [float(d) for d in d_grid]
    if len(d_grid) < MIN_SWEEP_POINTS:
        raise ValueError(
            f"sweep needs a d_grid of at least {MIN_SWEEP_POINTS} points")
    bmin = b_min(plant, ctrl, filt)
    cfgs = [SimConfig(plant=plant, horizon=horizon, distortion=d,
                      seed=np.random.SeedSequence(entropy=int(seed),
                                                  spawn_key=(i,)),
                      burn_in=burn_in)
            for i, d in enumerate(d_grid)]
    if plant.n == 1:
        results = _run_pooled(cfgs, ctrl, filt)
    else:
        # in-process: a lockstep step is a few dozen numpy calls whose cost
        # does not shrink with fewer rows, so splitting the points over
        # workers measured slower
        runs = [_Point(cfg, ctrl, filt) for cfg in cfgs]
        rows = _wrap_lockstep([pt.lattice for pt in runs], runs[0].m_mat,
                              [pt.h for pt in runs])
        results = [pt.finish(*r) for pt, r in zip(runs, rows)]

    points = [tradeoff_point(plant, ctrl, filt, bmin, d, res)
              for d, res in zip(d_grid, results)]
    points.sort(key=lambda p: (p.diverged, p.b_hat))
    return points


def _run_pooled(cfgs, ctrl, filt) -> list[SimResult]:
    """``run`` on each config, one point per task, on as many forked
    workers as the process may use CPUs.  The scalar loop gains little from
    a points axis, and would hold every point's streams at once; a point is
    a pure function of its config and the Riccati pair, so each worker gives
    the bits an in-process run would.  Results come back in config order,
    and the first failing point in that order raises.  The pool modules are
    imported here, not at start-up, where no other command pays for them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(os.sched_getaffinity(0)), len(cfgs))
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        return list(pool.map(run, cfgs, repeat(ctrl), repeat(filt)))


def tradeoff_point(plant, ctrl, filt, bmin: float, d: float,
                   res: SimResult) -> TradeoffPoint:
    """Pair one run with the converse and achievability bounds at its
    measured cost; bounds are NaN when diverged or infeasible."""
    if res.diverged or not res.b_hat > bmin:
        lower = upper = math.nan
    else:
        lower, upper = sandwich_curve(plant, ctrl, filt)(res.b_hat)
    h_nats = math.nan if res.entropy is None else res.entropy.plug_in
    return TradeoffPoint(
        d=d, b_hat=res.b_hat, h_nats=h_nats,
        h_bits=h_nats / math.log(2.0),
        lower_nats=lower, upper_nats=upper, c_hat=res.c_hat,
        e_hat=res.e_hat, d_hat=res.d_hat, residual=res.residual,
        diverged=res.diverged)
