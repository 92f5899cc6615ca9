"""Steady-state Riccati solvers for the LQG pieces of the rate-cost bounds.

Both solvers run one plain value iteration, ``_value_iterate``: the filter
Riccati equation is the control equation on the dual plant
(A^T, C^T, Sigma_V, Sigma_W).  The iteration stops when the Frobenius change
of the iterate drops below max(ABS_TOL * min(1, ||X||_F), REL_TOL * ||X||_F),
or is exactly zero, so the rule does not depend on the scale of the plant's
costs or noise, nor do its norms; a non-finite iterate is a failure, not
a fixed point.  ``solve_plant`` decides which equations a plant needs.

The value iteration starts from ``_doubling``, the structure-preserving
doubling algorithm (Chu, Fan & Lin 2005).  Its k-th triple (A_k, G_k, H_k)
represents 2^k value steps, X -> H_k + A_k^T X (I + G_k X)^{-1} A_k, so
H_k is the value iterate 2^k steps from X = 0: the same finite-horizon
values in about log2 as many steps.  The pass stops at the first H_K that
meets the same rule and hands on the value iterate 2^K steps from the
plain start Q (Sigma_X1): a point on the plain recursion's own trajectory,
not H_K, because where Sigma_V leaves an unstable mode unexcited the limit
depends on the start (X = 0 would stay at the fixed point 0 there).  The
value iteration then polishes and checks the fixed point.  Past
MAX_DOUBLINGS = 19 doublings (2^19 value steps, more than MAX_ITER) the
solve raises RiccatiError: a mode at |lambda| = 1 that the input or the
observation cannot reach grows the iterate linearly, and would otherwise
meet the relative stop once the iterate is large enough.  When R (Sigma_W
for the filter) has no Cholesky factor, or a doubled iterate or the start
is not finite, the value iteration starts from Q (Sigma_X1) instead.  The
doubling only skips ahead along the finite-horizon recursion whose limit
defines every quantity the bounds use, and the plain recursion has the
last word, which keeps the fixed point easy to audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import LinearPlant

# REL_TOL takes over from ABS_TOL above ||X||_F = 100, where the rounding
# noise of an iterate can exceed the absolute floor for ever; below
# ||X||_F = 1 the floor shrinks with the iterate, so a small plant does not
# stop at once.
ABS_TOL = 1e-12
REL_TOL = 1e-14
MAX_ITER = 100_000
# A doubling tests X_{2^k} - X_{2^(k-1)}, the sum of 2^(k-1) value steps,
# which settles later than one step does.  The last test starts at
# 2^18 > 2.6 MAX_ITER steps: the scalar plant a = 1, b = 1.25e-4, whose
# value iteration from Q settles in 98,563 steps, needs k = 19.
MAX_DOUBLINGS = 19


class RiccatiError(RuntimeError):
    pass


@dataclass(frozen=True)
class ControlRiccati:
    """Fixed point of S = Q + A^T (S - M) A.

    M = S B (R + B^T S B)^{-1} B^T S is the per-step cost curvature of the
    control channel and L = (R + B^T S B)^{-1} B^T S the static gain; the
    certainty-equivalent control is u = -L A x_hat.  W = A^T M A weighs a
    state estimate's error: it prices the estimation term of b_min and the
    coder's innovation error alike.
    """

    S: np.ndarray
    M: np.ndarray
    L: np.ndarray
    W: np.ndarray
    gain_cost: np.ndarray  # R + B^T S B, the weight on control mismatch
    iterations: int  # doublings run plus value steps; see the module docstring
    residual: float
    pseudo_inverse_used: bool


@dataclass(frozen=True)
class FilterRiccati:
    """Steady state of the one-step-ahead error recursion.

    P is the prediction error covariance, K the stationary filter gain,
    Sigma = P - K (C P C^T + Sigma_W) K^T the filtered error covariance and
    N = K (C P C^T + Sigma_W) K^T the covariance of the estimator's
    innovation jump (equivalently A Sigma A^T - Sigma + Sigma_V).
    """

    P: np.ndarray
    K: np.ndarray
    Sigma: np.ndarray
    N: np.ndarray
    innovation_cov: np.ndarray
    iterations: int  # doublings run plus value steps, as ControlRiccati's
    residual: float
    pseudo_inverse_used: bool


def _solve_psd(mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve mat @ x = rhs for symmetric PSD mat; pseudo-inverse fallback."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(mat) @ rhs, True
    y = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, y), False


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.T) / 2.0


def _fro(mat: np.ndarray) -> float:
    """Frobenius norm as np.linalg.norm sums it, at any scale: a sum of
    squares near under- or overflow is taken again, exactly, on mat over
    the power of two above its largest entry.  inf or NaN if an entry is."""
    squares = np.vdot(mat, mat)
    if 2.0 ** -900 < squares < 2.0 ** 900:
        return math.sqrt(squares)
    big = float(np.abs(mat).max())  # 0, inf and NaN give a scale of 1
    scale = math.ldexp(1.0, min(-math.frexp(big)[1], 1023))
    return math.sqrt(np.vdot(mat * scale, mat * scale)) / scale


def _step(a, b, q, r, x):
    """One step from X: (Q + A^T (X - M) A, M, L, R + B^T X B, pinv used)."""
    bx = b.T @ x
    gain_cost = r + bx @ b
    l_gain, pinv = _solve_psd(gain_cost, bx)
    m = _sym(bx.T @ l_gain)
    return _sym(q + a.T @ (x - m) @ a), m, l_gain, gain_cost, pinv


def _settled(delta: float, size: float) -> bool:
    """The stop rule on a change of Frobenius norm delta to an iterate of
    norm size."""
    return delta < max(ABS_TOL * min(1.0, size), REL_TOL * size) or delta == 0.0


def _doubled_iterates(a, b, q, r):
    """Yield (A_k, G_k, H_k) for k = 1, 2, ...: 2^k value steps take X to
    H_k + A_k^T X (I + G_k X)^{-1} A_k, so H_k is the iterate from X = 0.

    G_0 = B R^{-1} B^T = Y^T Y with Y = chol(R)^{-1} B^T, PSD by
    construction, and H_0 = Q; with W = I + G_k H_k,
    A_{k+1} = A_k W^{-1} A_k, G_{k+1} = G_k + A_k W^{-1} G_k A_k^T and
    H_{k+1} = H_k + A_k^T H_k W^{-1} A_k.  W is invertible, as G_k H_k is
    a product of PSD matrices.  One solve gives W^{-1} [A_k, G_k]; its two
    column blocks are read as views, not copies.  Raises LinAlgError when R
    has no Cholesky factor.
    """
    y = np.linalg.solve(np.linalg.cholesky(r), b.T)
    g, h = y.T @ y, q
    n = len(a)
    eye = np.eye(n)
    while True:
        sol = np.linalg.solve(eye + g @ h, np.concatenate([a, g], axis=1))
        w_a, w_g = sol[:, :n], sol[:, n:]
        a, g, h = a @ w_a, _sym(g + a @ w_g @ a.T), _sym(h + a.T @ h @ w_a)
        yield a, g, h


def _doubling(a, b, q, r, x0):
    """(start for _value_iterate, doublings run): the value iterate 2^K
    steps from x0, K the first doubling whose H_K meets the stop rule; or
    x0 when R has no Cholesky factor, a solve fails or an iterate is not
    finite.  Raises RiccatiError when MAX_DOUBLINGS doublings do not meet
    it."""
    h, k = q, 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k, (a_k, g_k, h_next) in enumerate(_doubled_iterates(a, b, q, r), 1):
                delta = _fro(h_next - h)
                h = h_next
                size = _fro(h)
                if not math.isfinite(size):
                    return x0, k
                if _settled(delta, size):
                    eye = np.eye(len(a))
                    start = _sym(h + a_k.T @ x0 @ np.linalg.solve(eye + g_k @ x0, a_k))
                    return (start if math.isfinite(_fro(start)) else x0), k
                if k == MAX_DOUBLINGS:
                    break
        except np.linalg.LinAlgError:
            return x0, k
    raise RiccatiError(f"Riccati value iteration did not converge in "
                       f"{MAX_DOUBLINGS} doublings ({2**MAX_DOUBLINGS} steps)")


def _value_iterate(
    a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray, x0: np.ndarray,
) -> tuple[np.ndarray, int, bool]:
    """Value-iterate X <- Q + A^T (X - M(X)) A from X = x0 to a fixed point.

    M(X) = X B (R + B^T X B)^{-1} B^T X.  Returns the last iterate, the
    iteration count and whether the pseudo-inverse fallback was needed.
    An iterate with an infinite or NaN entry raises RiccatiError, with no
    numpy warning: an inf norm would otherwise pass the stop test.
    """
    x = x0.copy()
    used_pinv = False
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITER + 1):
            x_next, *_, pinv = _step(a, b, q, r, x)
            used_pinv = used_pinv or pinv
            delta = _fro(x_next - x)
            x = x_next
            size = _fro(x)
            if not math.isfinite(size):
                raise RiccatiError(f"Riccati value iteration diverged: the "
                                   f"iterate is not finite at iteration {it}")
            if _settled(delta, size):
                return x, it, used_pinv
    raise RiccatiError(f"Riccati value iteration did not converge in {MAX_ITER} iterations")


def solve_control(plant: LinearPlant) -> ControlRiccati:
    """Value-iterate S <- Q + A^T (S - M(S)) A from the doubling start, the
    iterate 2^K steps from S = Q, or from S = Q when R has no Cholesky
    factor."""
    a, b, q, r = plant.A, plant.B, plant.Q, plant.R
    start, doublings = _doubling(a, b, q, r, q)
    s, it, used_pinv = _value_iterate(a, b, q, r, start)
    s_next, m, l_gain, gain_cost, pinv = _step(a, b, q, r, s)
    return ControlRiccati(
        S=s,
        M=m,
        L=l_gain,
        W=a.T @ m @ a,
        gain_cost=gain_cost,
        iterations=doublings + it,
        residual=_fro(s - s_next),
        pseudo_inverse_used=used_pinv or pinv,
    )


def solve_filter(plant: LinearPlant) -> FilterRiccati:
    """Value-iterate P <- A (I - K C) P A^T + Sigma_V from the doubling
    start, the iterate 2^K steps from P = Sigma_X1, or from P = Sigma_X1
    when Sigma_W has no Cholesky factor.

    This is the control recursion on the dual plant (A^T, C^T, Sigma_V,
    Sigma_W).  Requires gaussian process/observation noise, the only case
    in which the filter is the conditional-mean estimator; other noise is
    an input fault (ValueError), not a solver failure.
    """
    if plant.fully_observed:
        raise RiccatiError("filter Riccati applies to partially observed plants only")
    if not plant.noise_v.is_gaussian or (plant.noise_w is not None and not plant.noise_w.is_gaussian):
        raise ValueError("filter Riccati requires gaussian noise_v and noise_w")
    a, c = plant.A, plant.C
    sigma_v = plant.noise_v.covariance
    sigma_w = plant.obs_cov
    start, doublings = _doubling(a.T, c.T, sigma_v, sigma_w,
                                 plant.noise_x1.covariance)
    p, it, used_pinv = _value_iterate(a.T, c.T, sigma_v, sigma_w, start)

    innov = _sym(c @ p @ c.T + sigma_w)
    k_gain_t, pinv = _solve_psd(innov, c @ p)
    used_pinv = used_pinv or pinv
    k = k_gain_t.T
    sigma = _sym(p - k @ innov @ k.T)
    n_jump = _sym(k @ innov @ k.T)
    residual = _fro(p - _sym(a @ sigma @ a.T + sigma_v))
    return FilterRiccati(
        P=p,
        K=k,
        Sigma=sigma,
        N=n_jump,
        innovation_cov=innov,
        iterations=doublings + it,
        residual=residual,
        pseudo_inverse_used=used_pinv,
    )


def solve_plant(plant: LinearPlant) -> tuple[ControlRiccati, FilterRiccati | None, float]:
    """(control, filter or None when fully observed, b_min).  No coder
    changes the pair, so one solve serves every bound and run of a plant."""
    ctrl = solve_control(plant)
    filt = None if plant.fully_observed else solve_filter(plant)
    return ctrl, filt, b_min(plant, ctrl, filt)


def b_min(
    plant: LinearPlant,
    control: ControlRiccati,
    filt: FilterRiccati | None = None,
) -> float:
    """Infimum of attainable LQR cost at unconstrained communication.

    tr(Sigma_V S) for a fully observed plant; partially observed plants pay
    the additional irreducible estimation term tr(Sigma W).
    """
    base = float(np.trace(plant.noise_v.covariance @ control.S))
    if filt is None:
        return base
    return base + float(np.trace(filt.Sigma @ control.W))
