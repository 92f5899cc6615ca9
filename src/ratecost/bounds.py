"""Rate-cost bounds for quantized control of linear stochastic systems.

Lower bounds give the minimum information rate (nats per step, directed
sense) any causal coding scheme needs to attain LQR cost b; the upper bound
is the output entropy of a lattice-quantized predictive coder at the same
cost.  All rates are nats; bits appear only through ``nats_to_bits``, in the
``bound`` output.

Each bound has one body over the noise z that drives the coded process
s_{i+1} = A s_i + K z_i (``_source``): the process noise v (K = I) for a
fully observed plant; for a partially observed one the Kalman innovation
(gaussian, K the filter gain, K z of covariance N), whose b_min gains the
estimation term tr(Sigma A^T M A).  The partial_ kinds are the other kinds
evaluated on the innovation.

Bound kinds
  full               full-rank control weight
  projected          projected onto the ell dominant modes
  lowrank            rank-deficient control weight (m < n)
  partial            full on the innovation
  partial_projected  projected on the innovation
  partial_lowrank    lowrank on the innovation (m <= k <= n)
  floor              rate floor sum(log|eig|) over unstable modes
  upper              achievable output entropy of the lattice coder
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .riccati import ControlRiccati, FilterRiccati, b_min
from .sysmodel import TWO_PI_E, LinearPlant, NoiseModel, symmetric_eigvalsh

LOG2_E = 1.0 / math.log(2.0)

DEFAULT_I_MAX = 64
INFIMUM_TOL = 1e-9


def nats_to_bits(x: float) -> float:
    return x * LOG2_E


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix."""
    lam, vec = np.linalg.eigh((mat + mat.T) / 2.0)
    return vec @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


def whitening(weight: np.ndarray):
    """(W^{1/2}, W^{-1/2}, least eigenvalue of W) for a positive definite W:
    cond(W^{1/2}), which the lattice coder inverts, is then at most 1e6."""
    w_min = symmetric_eigvalsh(weight, "weight W = A^T M A", definite=True)[0]
    w_sqrt = psd_sqrt(weight)
    return w_sqrt, np.linalg.inv(w_sqrt), float(w_min)


def _logdet(mat: np.ndarray) -> float:
    """log det of a PSD matrix, -inf when singular."""
    sign, val = np.linalg.slogdet(mat)
    return val if sign > 0 else -math.inf


def _require_feasible(b: float, bmin: float) -> float:
    if b <= bmin:
        raise ValueError(f"cost b={b} is not attainable: requires b > b_min={bmin:.10g}")
    return b - bmin


# ---------------------------------------------------------------------------
# rate floor and causal Shannon lower bounds (source-coding level)

def _modes(a_mat) -> np.ndarray:
    """Eigenvalues of A, largest |eig| first (a stable sort).  Every mode
    count and cut of this module reads this one spectrum."""
    eigs = np.linalg.eigvals(np.asarray(a_mat, dtype=float))
    return eigs[np.argsort(-np.abs(eigs), kind="stable")]


def unstable_floor(a_mat) -> float:
    """sum(log|eig|) over the unstable (|eig| >= 1) modes of A, nats."""
    mags = np.abs(_modes(a_mat))
    return float(np.sum(np.log(mags[mags >= 1.0])))


def causal_slb(a: float, w: float, entropy_power: float, n: int, d: float) -> float:
    """Causal Shannon lower bound (n/2) log(a^2 + w N / (d/n)).

    a is the per-dimension dynamics gain |det A|^(1/n), w the per-dimension
    weight determinant, and d the weighted mean-square distortion budget.
    n may be a number ell of retained modes; ell = 0 gives rate 0.
    """
    if d <= 0:
        raise ValueError("distortion d must be positive")
    if n == 0:
        return 0.0
    return 0.5 * n * math.log(a * a + w * entropy_power * n / d)


@dataclass(frozen=True)
class InfimumBound:
    """Result of a determinant-ratio infimum bound (rank-deficient cases)."""

    nats: float
    converged: bool


def causal_slb_lowrank(a_mat, l_mat, k_mat, noise_cov, entropy_power: float,
                       d: float) -> InfimumBound:
    """Low-rank causal SLB for sources s_{i+1} = A s_i + K v'_i with weight
    W = L^T L, rank m = rows(L) <= k = cols(K) <= n.

    Evaluates (m/2) log(a^2 + w N(v')^{k/m} / (d/m)) with
      a = inf_i [det(L A^i K Cov Kt A^it Lt) / (det Cov det(L Lt) det(Kt K))]^(1/(2 i m))
      w = (det(L Lt) det(Kt K))^(1/m)
    The infimum is truncated at DEFAULT_I_MAX terms (running minimum).
    Terms past the first are dropped once A^i is so ill conditioned that the
    product has no significant digits left in its smallest direction; the
    sequence limit, the geometric mean of the m largest |eig(A)|, joins the
    minimum in their place.  The first term, L A K, is a product of the
    inputs, not of a power, and is always kept.  ``converged``
    records whether the kept terms stabilised or reached that limit.  All
    finite powers are formed first, with one stacked SVD of the terms,
    which are then truncated at the same break.
    """
    if d <= 0:
        raise ValueError("distortion d must be positive")
    return _slb_lowrank(a_mat, l_mat, k_mat, noise_cov, entropy_power)(d)


def _slb_lowrank(a_mat, l_mat, k_mat, noise_cov, entropy_power: float):
    """causal_slb_lowrank as a function of d > 0.  The infimum a and the
    weight w do not depend on d: they are computed here, once.  The powers
    fill one (DEFAULT_I_MAX, n, n) stack; one SVD over the products L A^i K
    of finite, nonzero scale finds the break, and each term before it has
    the bits, warnings and errors of a term-by-term loop.
    """
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

    log_ll, log_kk = _logdet(l @ l.T), _logdet(k.T @ k)
    log_den = _logdet(cov) + log_ll + log_kk
    cov_half = psd_sqrt(cov)
    pows = np.empty((DEFAULT_I_MAX, n, n))  # pows[i - 1] = A^i
    a_pow = np.eye(n)
    # A power or product past the point where a term-by-term loop stops
    # must not warn; the warnings of those it reaches are replayed below.
    with np.errstate(over="ignore", invalid="ignore"):
        for out in pows:
            a_pow = np.matmul(a_pow, a, out=out)
        finite = np.isfinite(pows).all(axis=(1, 2))
        count = DEFAULT_I_MAX if finite.all() else int(finite.argmin())
        mats = l @ pows[:count] @ k  # m x kdim each
    scales = np.abs(mats).max(axis=(1, 2))
    priced = math.isfinite(log_den)  # else every term is 0.0, with no SVD
    rows = np.flatnonzero((scales > 0.0) & (scales < math.inf) & priced)
    stop = count  # terms 1..stop, as the term-by-term loop kept them
    if rows.size:
        # det(mat cov mat^T) through singular values of mat cov^(1/2); the
        # explicit Gram product would square the condition number.
        svals = np.linalg.svd((mats[rows] / scales[rows, None, None]) @ cov_half,
                              compute_uv=False)
        for r, low, high in zip(rows.tolist(), svals[:, -1].tolist(),
                                svals[:, 0].tolist()):
            if r and low <= 1e-5 * high:
                stop = r  # roundoff floor of A^i: later terms carry no information
                break
    a_terms = [0.0] * stop
    kept = rows[rows < stop].tolist()
    if kept:
        scale_of = scales.tolist()
        log_svals = np.log(svals[: len(kept)]).sum(axis=1).tolist()
        for r, log_sval in zip(kept, log_svals):
            log_num = 2.0 * (m * math.log(scale_of[r]) + log_sval)
            a_terms[r] = math.exp((log_num - log_den) / (2.0 * (r + 1) * m))
    # A product that overflowed where the loop reached it: warn as the loop
    # did and, when priced, fail as its SVD of NaN did (LinAlgError).
    for r in np.flatnonzero(~np.isfinite(scales[:stop])).tolist():
        mat = l @ pows[r] @ k
        if priced:
            np.linalg.svd((mat / float(np.max(np.abs(mat)))) @ cov_half,
                          compute_uv=False)
    if not a_terms:
        raise ValueError("dynamics matrix powers overflowed before the first term")
    if stop == count < DEFAULT_I_MAX:  # the loop went on to the power that overflowed
        pows[count - 1] @ a
    a_inf = min(min(a_terms), a_limit)
    tail_stable = (len(a_terms) >= 2
                   and abs(a_terms[-1] - a_terms[-2])
                   <= INFIMUM_TOL * max(1.0, abs(a_terms[-1])))
    at_limit = abs(a_terms[-1] - a_limit) <= 1e-6 * max(1.0, a_limit)
    converged = tail_stable or at_limit

    log_w = (log_ll + log_kk) / m
    w = math.exp(log_w) if math.isfinite(log_w) else 0.0

    def at(d: float) -> InfimumBound:
        arg = a_inf ** 2 + w * entropy_power ** (kdim / m) * m / d
        if arg == 0.0:  # a = 0 and no priced noise: the bound is vacuous
            return InfimumBound(nats=-math.inf, converged=True)
        return InfimumBound(nats=0.5 * m * math.log(arg), converged=converged)

    return at


# ---------------------------------------------------------------------------
# mode projection helper

@dataclass(frozen=True)
class ProjectionSpec:
    """Orthogonal change of basis isolating the ell dominant modes of A.

    A = J A' J^T with J orthogonal and A' block lower-triangular, the
    leading ell x ell block carrying the largest-magnitude eigenvalues.
    Only the span of J's leading ell columns is fixed; a_prime =
    |det A'_ell|^(1/ell), the default mu_prime and the entropy power
    through transform do not depend on the basis chosen within it.
    """

    j: np.ndarray
    ell: int
    a_prime: float
    mu_prime: float

    @property
    def transform(self) -> np.ndarray:
        """Pi_ell^T J^T: maps states to retained-mode coordinates."""
        return self.j[:, : self.ell].T


def make_projection(
    plant: LinearPlant,
    control: ControlRiccati,
    ell: int | None = None,
    lam=None,
) -> ProjectionSpec:
    """Build a ProjectionSpec for the ell largest-|eig| modes of plant.A.

    ell defaults to the number of unstable (|eig| >= 1) modes.  The
    orthogonal basis J leads with the invariant subspace of A^T for the
    ell largest-|eig| modes (``_ordered_basis``), so A = J A' J^T; a cut
    between two |eig| less than 1e-12 apart, a complex pair's among them,
    is refused.  lam is a diagonal (vector) lower bound on J^T M J;
    mu_prime is the geometric mean of its leading ell entries.  lam
    defaults to the uniform floor min-eig(J^T M J).
    """
    a = plant.A
    n = plant.n
    eigs = _modes(a)
    mags = np.abs(eigs)
    if ell is None:
        ell = int(np.sum(mags >= 1.0))
    if not 0 <= ell <= n:
        raise ValueError(f"ell must be in [0, {n}], got {ell}")
    if ell == 0:
        return ProjectionSpec(j=np.eye(n), ell=0, a_prime=0.0, mu_prime=0.0)
    if ell < n and mags[ell - 1] - mags[ell] < 1e-12:
        raise ValueError(
            f"cannot separate modes: |eig| {mags[ell - 1]:.6g} vs "
            f"{mags[ell]:.6g} at ell={ell} (ell may split a complex pair)"
        )
    j_mat = _ordered_basis(a, eigs[ell:])
    a_prime_mat = j_mat.T @ a @ j_mat

    if not np.allclose(a_prime_mat[:ell, ell:], 0.0, atol=1e-9):
        raise ValueError("basis does not isolate the retained modes "
                         "(leading block couples to discarded modes)")
    if 0 < ell < n:
        kept = np.abs(np.linalg.eigvals(a_prime_mat[:ell, :ell]))
        dropped = np.abs(np.linalg.eigvals(a_prime_mat[ell:, ell:]))
        if kept.min() < dropped.max() - 1e-9:
            raise ValueError("retained modes are not the dominant ones")

    sign, logdet = np.linalg.slogdet(a_prime_mat[:ell, :ell])
    a_prime = math.exp(logdet / ell) if sign != 0 else 0.0

    m_prime = j_mat.T @ control.M @ j_mat
    if lam is None:
        lam_vec = np.full(n, max(float(np.linalg.eigvalsh(m_prime).min()), 0.0))
    else:
        lam_vec = np.asarray(lam, dtype=float)
        if lam_vec.shape != (n,):
            raise ValueError(f"lam must be a length-{n} diagonal vector")
        gap = np.linalg.eigvalsh(m_prime - np.diag(lam_vec)).min()
        if gap < -1e-9 * float(np.abs(m_prime).max()):
            raise ValueError("lam is not admissible: J^T M J - diag(lam) not PSD")
    lead = lam_vec[:ell]
    mu_prime = float(np.exp(np.mean(np.log(lead)))) if np.all(lead > 0) else 0.0

    return ProjectionSpec(j=j_mat, ell=ell, a_prime=a_prime, mu_prime=mu_prime)


def _ordered_basis(a: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """Orthogonal J whose leading columns span A^T's invariant subspace for
    every eigenvalue of A but the dropped ones (closed under conjugation).

    The product of (A^T - mu I)/max|A| over the dropped mu vanishes on
    their invariant subspace (Cayley-Hamilton) and maps onto the retained
    one, so the leading left singular vectors of its real part span it, and
    the rest complete R^n.  Then A = J A' J^T with A' block lower-triangular
    (A'[:ell, ell:] = 0, ell = n - len(dropped)).  A diagonal A gets an
    axis-aligned J.
    """
    eye = np.eye(len(a))
    scale = float(np.abs(a).max())
    prod = eye
    for mu in dropped:
        prod = prod @ (a.T - mu * eye) / scale
    return np.linalg.svd(prod.real)[0]


# ---------------------------------------------------------------------------
# the coded process and the noise that drives it

@dataclass(frozen=True)
class _Source:
    """Noise z, gain K and jump K z of the coded process, and its b_min."""

    z: NoiseModel
    gain: np.ndarray
    jump: NoiseModel
    bmin: float


def _source(plant: LinearPlant, control: ControlRiccati,
            filt: FilterRiccati | None = None) -> _Source:
    """The process noise v when filt is None, else the Kalman innovation."""
    if filt is None:
        return _Source(plant.noise_v, np.eye(plant.n), plant.noise_v,
                       b_min(plant, control))
    return _Source(NoiseModel("gaussian", filt.innovation_cov), filt.K,
                   NoiseModel("gaussian", filt.N), b_min(plant, control, filt))


# ---------------------------------------------------------------------------
# rate-cost lower bounds (control level)
#
# Each body returns its bound as a function of b.  The parts that do not
# depend on b are computed at its first feasible call and kept (a part that
# raises is not), so a grid of b pays for them once and fails where a
# one-b call would.

def _converse(plant: LinearPlant, control: ControlRiccati, src: _Source):
    """log|det A| + (n/2) log(1 + N(K z) |det M|^(1/n) / ((b - b_min)/n))."""
    n = plant.n

    @functools.cache
    def fixed():  # None when A is singular
        sign, log_det_a = np.linalg.slogdet(plant.A)
        if sign == 0:
            return None
        log_det_m = _logdet(control.M)
        det_m_root = math.exp(log_det_m / n) if math.isfinite(log_det_m) else 0.0
        return log_det_a, src.jump.entropy_power, det_m_root

    def at(b: float) -> float:
        slack = _require_feasible(b, src.bmin)
        if fixed() is None:
            return -math.inf
        log_det_a, power, det_m_root = fixed()
        return log_det_a + 0.5 * n * math.log1p(power * det_m_root * n / slack)

    return at


def _projected(plant: LinearPlant, control: ControlRiccati, src: _Source,
               proj: ProjectionSpec | None = None):
    """ell log a' + (ell/2) log(1 + mu' N(T K z) / ((b - b_min)/ell)), with
    T the projection onto the ell dominant modes."""

    @functools.cache
    def spec() -> ProjectionSpec:
        return make_projection(plant, control) if proj is None else proj

    @functools.cache
    def power() -> float:
        return src.jump.projected_entropy_power(spec().transform)

    def at(b: float) -> float:
        slack = _require_feasible(b, src.bmin)
        p = spec()
        if p.ell == 0:
            return 0.0
        if p.a_prime == 0.0:
            return -math.inf
        return p.ell * math.log(p.a_prime) + 0.5 * p.ell * math.log1p(
            p.mu_prime * power() * p.ell / slack
        )

    return at


def _weighted_gain_rows(control: ControlRiccati) -> np.ndarray:
    """L_w = (R + B^T S B)^(1/2) L, the rank-m factor of M = L_w^T L_w."""
    return psd_sqrt(control.gain_cost) @ control.L


def _lowrank(plant: LinearPlant, control: ControlRiccati, src: _Source):
    """Coding s'' = A s under the weight M = L_w^T L_w, driven by A K z: the
    low-rank causal SLB with gain A K."""

    @functools.cache
    def slb():
        return _slb_lowrank(plant.A, _weighted_gain_rows(control),
                            plant.A @ src.gain, src.z.covariance,
                            src.z.entropy_power)

    def at(b: float) -> InfimumBound:
        slack = _require_feasible(b, src.bmin)
        return slb()(slack)

    return at


def lower_bound_full(plant: LinearPlant, control: ControlRiccati,
                     b: float) -> float:
    """Fully observed converse:
    log|det A| + (n/2) log(1 + N(V) |det M|^(1/n) / ((b - b_min)/n))."""
    return _converse(plant, control, _source(plant, control))(b)


def lower_bound_partial(plant: LinearPlant, control: ControlRiccati,
                        filt: FilterRiccati, b: float) -> float:
    """Partially observed converse: N(V) becomes det(N)^(1/n)."""
    return _converse(plant, control, _source(plant, control, filt))(b)


def lower_bound_projected(plant: LinearPlant, control: ControlRiccati, b: float,
                          proj: ProjectionSpec | None = None) -> float:
    """Projected converse pricing only the ell dominant modes of v."""
    return _projected(plant, control, _source(plant, control), proj)(b)


def lower_bound_partial_projected(plant: LinearPlant, control: ControlRiccati,
                                  filt: FilterRiccati, b: float,
                                  proj: ProjectionSpec | None = None) -> float:
    """Projected converse on the innovation; a singular T N T^T prices the
    noise at 0."""
    return _projected(plant, control, _source(plant, control, filt), proj)(b)


def lower_bound_lowrank(plant: LinearPlant, control: ControlRiccati,
                        b: float) -> InfimumBound:
    """Fully observed converse for m < n control inputs (gain A K = A)."""
    return _lowrank(plant, control, _source(plant, control))(b)


def lower_bound_partial_lowrank(plant: LinearPlant, control: ControlRiccati,
                                filt: FilterRiccati, b: float) -> InfimumBound:
    """Partially observed converse for m <= k <= n (gain A K)."""
    return _lowrank(plant, control, _source(plant, control, filt))(b)


# ---------------------------------------------------------------------------
# achievability: lattice coder output entropy

def alpha_n(n: int) -> float:
    """Ball-vs-cube shape penalty (n/2) log(2e/n) + log Gamma(n/2 + 1), nats."""
    return 0.5 * n * math.log(2.0 * math.e / n) + math.lgamma(0.5 * n + 1.0)


def rho_covering(n: int) -> float:
    """Covering efficiency of the A_n* lattice family (1 at n=1)."""
    return (
        math.sqrt(math.pi)
        * (n + 1.0) ** (1.0 / (2.0 * n))
        / math.gamma(0.5 * n + 1.0) ** (1.0 / n)
        * math.sqrt(n * (n + 2.0) / (12.0 * (n + 1.0)))
    )


def rogers_rho_bound(n: int) -> float:
    """Reference upper bound on n log rho for the best covering lattice:
    (1/2) log(2 pi e) (log n + log log n + 2), nats.  Never used to build
    lattices.
    """
    if n < 3:
        raise ValueError("the covering reference bound needs n >= 3")
    return 0.5 * math.log(TWO_PI_E) * (math.log(n) + math.log(math.log(n)) + 2.0)


def _upper(plant: LinearPlant, control: ControlRiccati, src: _Source):
    """entropy_cost_upper as a function of b; the coder of a partially
    observed plant codes its innovation, not its process noise."""
    n = plant.n
    observed = plant.fully_observed or src.jump is not plant.noise_v
    rho = 1.0 if n == 1 else rho_covering(n)
    converse = _converse(plant, control, src)

    @functools.cache
    def fixed():
        reg = src.jump.regularity
        if reg is None:
            raise ValueError(
                f"{src.jump.family} noise has no known regularity constants"
            )
        w_mat = control.W
        _, w_half_inv, w_min = whitening(w_mat)
        v_total = float(np.trace(src.jump.covariance @ w_mat))
        # a* = max_z z' A'WA z / z'Wz, the one-step growth of weighted error.
        a_star = float(np.linalg.eigvalsh(
            w_half_inv @ (plant.A.T @ w_mat @ plant.A) @ w_half_inv).max())
        return reg, w_min, v_total, a_star

    def at(b: float) -> float:
        if not observed:
            raise ValueError("filt is required for a partially observed plant")
        first_terms = converse(b)
        correction = _design_correction(n, b - src.bmin, *fixed())
        return first_terms + alpha_n(n) + n * math.log(rho) + correction

    return at


def _design_correction(n: int, slack: float, reg, w_min: float,
                       v_total: float, a_star: float) -> float:
    """The smoothness correction of the upper bound: the minimum over design
    distortions 0 < dt <= slack of f(dt) = (n/2) log(slack/dt) + beta(dt).

    In s = log dt, f is convex: the log term is linear in s and each term of
    beta (sqrt(dt), dt and sqrt(a* dt^2 + v dt)) is log-convex.  So the
    minimum is at dt = slack when f's slope in s is <= 0 there, and else at
    the slope's root, bisected in s to 1e-12.
    """
    c0, c1 = reg
    sq_a = math.sqrt(a_star)
    k0 = 0.5 * c1 * sq_a * math.sqrt(v_total) + c0 * (2.0 + sq_a)
    k1, k2 = c1 * (2.0 + sq_a / 2.0), 2.0 * c1 * (1.0 + sq_a)

    def slope(s: float) -> float:  # df/ds, increasing in s
        dt = math.exp(s)
        grow = math.sqrt(dt / (a_star * dt + v_total)) * (a_star * dt + 0.5 * v_total)
        return (0.5 * k0 * math.sqrt(dt) + k1 * grow + k2 * dt) / w_min - 0.5 * n

    dt = slack
    hi = math.log(slack)
    if slope(hi) > 0.0:
        step = 1.0
        while slope(hi - step) > 0.0:
            step *= 2.0
        lo = hi - step
        while hi - lo > 1e-12 * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if slope(mid) > 0.0 else (mid, hi)
        dt = min(math.exp(hi), slack)
    beta = (math.sqrt(dt) / w_min) * (
        k0 + k1 * math.sqrt(a_star * dt + v_total) + k2 * math.sqrt(dt))
    return 0.5 * n * math.log(slack / dt) + beta


def entropy_cost_upper(plant: LinearPlant, control: ControlRiccati, b: float,
                       filt: FilterRiccati | None = None) -> float:
    """Entropy-cost upper bound: prefix-free coding of the lattice-quantized
    innovation attains LQR cost b at output entropy no larger than this.

    Equals the matching lower bound's leading terms plus concrete
    corrections: alpha_n + n log rho (rho of the coder's lattice) + a
    smoothness term that vanishes as b -> b_min (so the sandwich gap tends
    to alpha_n + n log rho).  A partially observed plant needs its filter.
    """
    return _upper(plant, control, _source(plant, control, filt))(b)


# ---------------------------------------------------------------------------
# every bound as a function of b

_BODIES = {"full": _converse, "projected": _projected, "lowrank": _lowrank,
           "partial": _converse, "partial_projected": _projected,
           "partial_lowrank": _lowrank, "upper": _upper}
KINDS = (*_BODIES, "floor")


def bound_curve(kind: str, plant: LinearPlant, control: ControlRiccati,
                filt: FilterRiccati | None = None):
    """Bound kind as a function b -> (nats, converged), for a grid of b.

    kind is one of KINDS.  The partial_ kinds and "upper" read filt (None
    for a fully observed plant); the other kinds take the process noise.
    Only a truncated infimum is not converged.  Each b-free part is
    computed once, at the first call that needs it.
    """
    if kind == "floor":
        floor = functools.cache(lambda: unstable_floor(plant.A))
        return lambda b: (floor(), True)
    coded = kind == "upper" or kind.startswith("partial")
    src = _source(plant, control, filt if coded else None)
    at = _BODIES[kind](plant, control, src)
    if kind.endswith("lowrank"):
        return lambda b: astuple(at(b))
    return lambda b: (at(b), True)


def sandwich_curve(plant: LinearPlant, control: ControlRiccati,
                   filt: FilterRiccati | None = None):
    """(converse, coder entropy bound) on the plant's source as a function
    of b; the upper bound is NaN where it is not defined."""
    src = _source(plant, control, filt)
    lower = _converse(plant, control, src)
    upper = _upper(plant, control, src)

    def at(b: float) -> tuple[float, float]:
        low = lower(b)
        try:
            up = upper(b)
        except ValueError:
            up = math.nan
        return low, up

    return at

