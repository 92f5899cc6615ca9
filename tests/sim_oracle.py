"""Plain per-step closed-loop oracle for bit-for-bit checks of
``ratecost.simloop.run``.

The oracle advances the estimator, the coder and the plant together, one
sample at a time, and quantizes through the public Lattice API
(``nearest``, then ``index_of``).  Its quantizer input and state update
are the same floating-point expressions the engine evaluates over whole
streams, so the two must emit identical states and indices: any slip in
the engine's alignment of streams, its initial condition, its integer fast
path or its divergence cut shows up as a different digest.

``run_solved`` and ``sweep_solved`` run the engine on the plant's own
Riccati pair, as the CLI does.
"""

import hashlib

import numpy as np

from ratecost.bounds import psd_sqrt
from ratecost.quantizer import DECODE_RANGE, lattice_for_dimension
from ratecost.riccati import solve_control, solve_filter, solve_plant
from ratecost.simloop import run, sweep

DIVERGENCE_NORM = 1e12


def run_solved(cfg):
    ctrl, filt, _ = solve_plant(cfg.plant)
    return run(cfg, ctrl, filt)


def sweep_solved(plant, d_grid, **kwargs):
    ctrl, filt, _ = solve_plant(plant)
    return sweep(plant, ctrl, filt, d_grid, **kwargs)


def mv(mat, x):
    """mat @ x, summed in column order."""
    acc = x[0] * mat[:, 0]
    for j in range(1, mat.shape[1]):
        acc = acc + x[j] * mat[:, j]
    return acc


def oracle_digest(cfg) -> str:
    """State/index digest of a quantized run, stepped one sample at a time."""
    plant = cfg.plant
    a, b, c = plant.A, plant.B, plant.C
    partial = not plant.fully_observed
    ctrl = solve_control(plant)
    gain = ctrl.L @ a
    bg = b @ gain
    w_sqrt = psd_sqrt(a.T @ ctrl.M @ a)
    w_isqrt = np.linalg.inv(w_sqrt)
    m_mat = w_sqrt @ a @ w_isqrt
    lattice = lattice_for_dimension(plant.n).scale_to_distortion(
        cfg.distortion)

    ss_v, ss_init, ss_w = np.random.SeedSequence(int(cfg.seed)).spawn(3)
    v = plant.noise_v.sample(np.random.default_rng(ss_v), cfg.horizon)
    x = plant.noise_x1.sample(np.random.default_rng(ss_init), 1)[0]
    if partial:
        wn = plant.noise_w.sample(np.random.default_rng(ss_w), cfg.horizon)
        k_mat = solve_filter(plant).K
        ak = a @ k_mat
        pred_err = x              # x minus the predicted estimate (0 at start)

    eps = np.zeros(plant.n)
    xs, idx = [], []
    for i in range(cfg.horizon):
        # every linear pass tests its rows, x_0 included
        if not np.linalg.norm(x) < DIVERGENCE_NORM:
            break
        if partial:
            if not np.linalg.norm(pred_err) < DIVERGENCE_NORM:
                break
            xi = mv(k_mat, mv(c, pred_err) + wn[i])    # Kalman jump
            gap = pred_err - xi                        # x - x_est
            pred_err = mv(a - ak @ c, pred_err) + (v[i] - mv(ak, wn[i]))
        else:
            xi = x if i == 0 else v[i - 1]
            gap = np.zeros(plant.n)
        q = mv(m_mat, eps) + mv(w_sqrt, xi)
        try:
            point = lattice.nearest(q)
            idx.append(lattice.index_of(point))
        except ValueError:
            break                      # an undecodable input ends the run
        eps = q - point
        gap = gap + mv(w_isqrt, eps)                   # x - s_hat
        xs.append(x)
        # u = -G (x - gap) folded into x' = A x + B u + v
        x = mv(a - bg, x) + (mv(bg, gap) + v[i])
    return hashlib.sha256(
        np.asarray(xs, dtype=float).tobytes()
        + np.asarray(idx, dtype=np.int64).tobytes()).hexdigest()


def checked_filter_1d(f, drive, y0):
    """The scalar state filter as it was stepped before its cut moved after
    the loop: each iterate is range-tested as soon as it is made.  Returns
    (rows y_0 .. y_{k-1} as a list, diverged)."""
    out = []
    if not np.linalg.norm([y0]) < DIVERGENCE_NORM:
        return out, True
    y = y0
    for r in drive:
        out.append(y)
        y = f * y + r
        if not -DIVERGENCE_NORM < y < DIVERGENCE_NORM:
            return out, True
    return out, False


def round_wrap(m, t, h):
    """The scalar coder error recursion with round() on every step: the
    inputs q and points p it keeps, up to the first input whose cell count
    |q/t| is not below ``DECODE_RANGE``, NaN included."""
    qs, ps, eps = [], [], 0.0
    for hi in h:
        q = m * eps + hi
        if not abs(q / t) < DECODE_RANGE:
            break
        p = round(q / t) * t
        eps = q - p
        qs.append(q)
        ps.append(p)
    return qs, ps
