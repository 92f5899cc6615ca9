"""Exact dominance of the n = 1 coder on both shipped plants, no Monte Carlo.

Both shipped plants have a = 2.  The whitened coder error follows
eps_i = q_i - t round(q_i / t), q_i = 2 eps_{i-1} + h_i, with cell width
t = 2 sqrt(d) and h the whitened drive sqrt(W) xi (the process noise, or the
Kalman innovation jump).  Its stationary law is uniform on [-t/2, t/2]:
2 eps is then uniform on two whole cells, and adding an independent h keeps
it uniform modulo t.  So the weighted distortion is d/3, the cost is
b = b_min + d/3 exactly, and the index k (the cell centred on k t) has
probability

    P(k) = [G((k+1/2)t + t) - G((k+1/2)t - t)
            - G((k-1/2)t + t) + G((k-1/2)t - t)] / (2t),

G an antiderivative of h's CDF.  G(x) = max(x, 0) + R(x) with R a tail term
that vanishes away from 0, so each cell's mass is taken from R's differences
and a clipped ramp, without the cancellation of G itself far out.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from ratecost.bounds import bound_curve
from ratecost.cli import load_config
from ratecost.riccati import solve_plant

CONFIGS = Path(__file__).parent.parent / "configs"
SHIPPED = {"laplace": ("laplace_scalar.json", "full"),
           "partial": ("partial_scalar.json", "partial")}
# H(i) - lower(b) as d -> 0: the space-filling loss of the integer lattice.
HIGH_RESOLUTION_GAP = 0.5 * math.log(math.pi * math.e / 6.0)


def laplace_tail(beta):
    """R(x) = G(x) - max(x, 0) for a Laplace law of scale beta."""
    return lambda x: 0.5 * beta * np.exp(-np.abs(x) / beta)


def gaussian_tail(s):
    """R(x) = G(x) - max(x, 0) for a centred Gaussian of deviation s:
    s phi(x/s) - |x| Q(|x|/s), Q the upper tail."""
    def tail(x):
        z = np.abs(x) / s
        upper = 0.5 * np.array([math.erfc(v / math.sqrt(2.0)) for v in z])
        return s * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) - np.abs(x) * upper
    return tail


def index_law(t, tail, reach):
    """P(k) for |k| <= reach / t + 2."""
    k_max = math.ceil(reach / t) + 2
    c = (np.arange(-k_max - 1, k_max + 1) + 0.5) * t  # (k + 1/2) t
    # G(c + t) - G(c - t), the ramp part clipped in closed form
    g_span = np.clip(c + t, 0.0, 2.0 * t) + tail(c + t) - tail(c - t)
    return np.diff(g_span) / (2.0 * t)


@pytest.fixture(scope="module", params=sorted(SHIPPED))
def shipped(request):
    """(name, config, lower bound as a function of b, b_min, the drive's
    tail term and its scale) for one shipped plant."""
    file_name, kind = SHIPPED[request.param]
    cfg = load_config(str(CONFIGS / file_name))
    plant = cfg.plant
    assert plant.A.tolist() == [[2.0]]  # the uniform law needs a = 2
    ctrl, filt, bmin = solve_plant(plant)
    w_root = math.sqrt(ctrl.W[0, 0])
    if filt is None:  # fully observed Laplace: scale sqrt(var / 2)
        assert plant.noise_v.family == "laplace"
        beta = w_root * math.sqrt(plant.noise_v.covariance[0, 0] / 2.0)
        tail, scale = laplace_tail(beta), beta
    else:  # the innovation jump K z, of variance N
        s = w_root * math.sqrt(filt.N[0, 0])
        tail, scale = gaussian_tail(s), s
    lower = bound_curve(kind, plant, ctrl, filt)
    return request.param, cfg, (lambda b: lower(b)[0]), bmin, tail, scale


def exact_point(shipped, d):
    """(H(i), lower(b), total mass) at distortion d, b = b_min + d/3."""
    *_, lower, bmin, tail, scale = shipped
    p = index_law(2.0 * math.sqrt(d), tail, 40.0 * scale)
    pos = p[p > 0]
    return float(-np.sum(pos * np.log(pos))), lower(bmin + d / 3.0), float(p.sum())


# ROADMAP's table at the first grid point, from density evolution of the
# folded density on a 4000-bin grid: a second method, rounded to 1e-6.
DENSITY_EVOLUTION = {"laplace": (0.3, 2.594722, 2.404509),
                     "partial": (0.5, 3.006004, 2.827773)}


def test_closed_form_matches_density_evolution(shipped):
    d, h_want, low_want = DENSITY_EVOLUTION[shipped[0]]
    h, low, _ = exact_point(shipped, d)
    assert abs(h - h_want) <= 2e-6 and abs(low - low_want) <= 2e-6


def test_exact_entropy_dominates_the_converse(shipped):
    for d in shipped[1].d_grid:
        h, low, mass = exact_point(shipped, d)
        assert abs(mass - 1.0) <= 1e-9, (d, mass)
        assert h - low >= 0.17, (d, h, low)


def test_gap_tends_to_the_space_filling_loss(shipped):
    h, low, mass = exact_point(shipped, 1e-4)
    assert abs(mass - 1.0) <= 1e-9
    assert abs(h - low - HIGH_RESOLUTION_GAP) <= 1e-4, h - low
