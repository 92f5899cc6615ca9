"""Term-by-term oracle for bit-for-bit checks of ``ratecost.bounds._slb_lowrank``.

``slb_lowrank`` forms each power A^i, its product L A^i K and that
product's SVD one term at a time, and stops at the first power that is not
finite or at the first ill-conditioned product past the first.  The
library forms every finite power first and takes all singular values in
one stacked call, then truncates where this loop stops; the floating-point
operations on each kept term are the same, so the two must agree in every
bit, and they must raise and warn alike.
"""

import math

import numpy as np

from ratecost.bounds import (
    DEFAULT_I_MAX,
    INFIMUM_TOL,
    InfimumBound,
    _logdet,
    _modes,
    psd_sqrt,
)


def slb_lowrank(a_mat, l_mat, k_mat, noise_cov, entropy_power: float):
    """causal_slb_lowrank as a function of d > 0, one term at a time."""
    a = np.asarray(a_mat, dtype=float)
    l = np.asarray(l_mat, dtype=float)
    k = np.asarray(k_mat, dtype=float)
    cov = np.asarray(noise_cov, dtype=float)
    n = a.shape[0]
    m = l.shape[0]
    kdim = k.shape[1]
    if not (1 <= m <= kdim <= n):
        raise ValueError(f"need rows(L)={m} <= cols(K)={kdim} <= n={n}")

    eig_mags = np.abs(_modes(a))[:m]
    if np.all(eig_mags > 0.0):
        a_limit = float(np.exp(np.mean(np.log(eig_mags))))
    else:
        a_limit = 0.0

    log_den = _logdet(cov) + _logdet(l @ l.T) + _logdet(k.T @ k)
    cov_half = psd_sqrt(cov)
    a_terms: list[float] = []
    a_pow = np.eye(n)
    for i in range(1, DEFAULT_I_MAX + 1):
        a_pow = a_pow @ a
        if not np.all(np.isfinite(a_pow)):
            break
        mat = l @ a_pow @ k  # m x kdim
        scale = float(np.max(np.abs(mat)))
        if scale == 0.0 or not math.isfinite(log_den):
            a_terms.append(0.0)
            continue
        # det(mat cov mat^T) through singular values of mat cov^(1/2); the
        # explicit Gram product would square the condition number.
        svals = np.linalg.svd((mat / scale) @ cov_half, compute_uv=False)
        if i > 1 and svals[-1] <= 1e-5 * svals[0]:
            break  # roundoff floor of A^i: later terms carry no information
        log_num = 2.0 * (m * math.log(scale) + float(np.sum(np.log(svals))))
        a_terms.append(math.exp((log_num - log_den) / (2.0 * i * m)))
    if not a_terms:
        raise ValueError("dynamics matrix powers overflowed before the first term")
    a_inf = min(min(a_terms), a_limit)
    tail_stable = (len(a_terms) >= 2
                   and abs(a_terms[-1] - a_terms[-2])
                   <= INFIMUM_TOL * max(1.0, abs(a_terms[-1])))
    at_limit = abs(a_terms[-1] - a_limit) <= 1e-6 * max(1.0, a_limit)
    converged = tail_stable or at_limit

    log_w = (_logdet(l @ l.T) + _logdet(k.T @ k)) / m
    w = math.exp(log_w) if math.isfinite(log_w) else 0.0

    def at(d: float) -> InfimumBound:
        arg = a_inf ** 2 + w * entropy_power ** (kdim / m) * m / d
        if arg == 0.0:  # a = 0 and no priced noise: the bound is vacuous
            return InfimumBound(nats=-math.inf, converged=True)
        return InfimumBound(nats=0.5 * m * math.log(arg), converged=converged)

    return at
