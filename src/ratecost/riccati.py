"""Steady-state Riccati solvers for the LQG pieces of the rate-cost bounds.

Both solvers run one plain value iteration, ``_value_iterate``: the filter
Riccati equation is the control equation on the dual plant
(A^T, C^T, Sigma_V, Sigma_W).  The iteration stops when the Frobenius change
of the iterate drops below max(ABS_TOL * min(1, ||X||_F), REL_TOL * ||X||_F),
or is exactly zero, so the rule does not depend on the scale of the plant's
costs or noise; a non-finite iterate is a failure, not a fixed point.
Value iteration is slower than a Schur/invariant-subspace solver but it is
the direct transcription of the finite-horizon recursions whose limits
define every quantity used by the bounds, which makes the iterates easy to
audit.
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
    iterations: int
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
    iterations: int
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


def _value_iterate(
    a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray, x0: np.ndarray,
) -> tuple[np.ndarray, int, bool]:
    """Value-iterate X <- Q + A^T (X - M(X)) A from X = x0 to a fixed point.

    M(X) = X B (R + B^T X B)^{-1} B^T X.  Returns the last iterate, the
    iteration count and whether the pseudo-inverse fallback was needed.
    An iterate whose norm overflows or is NaN raises RiccatiError, with no
    numpy warning: an inf norm would otherwise pass the stop test.
    """
    x = x0.copy()
    used_pinv = False
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITER + 1):
            bx = b.T @ x
            gain_cost = r + bx @ b
            l_gain, pinv = _solve_psd(gain_cost, bx)
            used_pinv = used_pinv or pinv
            m = _sym(bx.T @ l_gain)
            x_next = _sym(q + a.T @ (x - m) @ a)
            delta = float(np.linalg.norm(x_next - x))
            x = x_next
            size = float(np.linalg.norm(x))
            if not math.isfinite(size):
                raise RiccatiError(f"Riccati value iteration diverged: the "
                                   f"iterate is not finite at iteration {it}")
            tol = max(ABS_TOL * min(1.0, size), REL_TOL * size)
            if delta < tol or delta == 0.0:
                return x, it, used_pinv
    raise RiccatiError(f"Riccati value iteration did not converge in {MAX_ITER} iterations")


def solve_control(plant: LinearPlant) -> ControlRiccati:
    """Value-iterate S <- Q + A^T (S - M(S)) A from S = Q."""
    a, b, q, r = plant.A, plant.B, plant.Q, plant.R
    s, it, used_pinv = _value_iterate(a, b, q, r, q)

    bs = b.T @ s
    gain_cost = r + bs @ b
    l_gain, pinv = _solve_psd(gain_cost, bs)
    used_pinv = used_pinv or pinv
    m = _sym(bs.T @ l_gain)
    residual = float(np.linalg.norm(s - _sym(q + a.T @ (s - m) @ a)))
    return ControlRiccati(
        S=s,
        M=m,
        L=l_gain,
        W=a.T @ m @ a,
        gain_cost=gain_cost,
        iterations=it,
        residual=residual,
        pseudo_inverse_used=used_pinv,
    )


def solve_filter(plant: LinearPlant) -> FilterRiccati:
    """Value-iterate P <- A (I - K C) P A^T + Sigma_V from P = Sigma_X1.

    This is the control recursion on the dual plant (A^T, C^T, Sigma_V,
    Sigma_W).  Requires gaussian process/observation noise; the filter is
    only the conditional-mean estimator in that case.
    """
    if plant.fully_observed:
        raise RiccatiError("filter Riccati applies to partially observed plants only")
    if not plant.noise_v.is_gaussian or (plant.noise_w is not None and not plant.noise_w.is_gaussian):
        raise RiccatiError("filter Riccati requires gaussian noise_v and noise_w")
    a, c = plant.A, plant.C
    sigma_v = plant.noise_v.covariance
    sigma_w = plant.obs_cov
    p, it, used_pinv = _value_iterate(a.T, c.T, sigma_v, sigma_w,
                                      plant.noise_x1.covariance)

    innov = _sym(c @ p @ c.T + sigma_w)
    k_gain_t, pinv = _solve_psd(innov, c @ p)
    used_pinv = used_pinv or pinv
    k = k_gain_t.T
    sigma = _sym(p - k @ innov @ k.T)
    n_jump = _sym(k @ innov @ k.T)
    residual = float(np.linalg.norm(p - _sym(a @ sigma @ a.T + sigma_v)))
    return FilterRiccati(
        P=p,
        K=k,
        Sigma=sigma,
        N=n_jump,
        innovation_cov=innov,
        iterations=it,
        residual=residual,
        pseudo_inverse_used=used_pinv,
    )


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
