"""Rate-cost bounds for quantized control of linear stochastic systems.

Lower bounds give the minimum information rate (nats per step, directed
sense) any causal coding scheme needs to attain LQR cost b; the upper bound
is the output entropy of a lattice-quantized predictive coder at the same
cost.  All rates are nats internally; bits appear only through the explicit
conversion helpers.

Bound kinds
  full               fully observed, full-rank control weight
  projected          fully observed, projected onto the ell dominant modes
  lowrank            fully observed, rank-deficient control weight (m < n)
  partial            partially observed (gaussian), full rank
  partial_projected  partially observed, projected
  partial_lowrank    partially observed, rank-deficient (m <= k <= n)
  floor              rate floor sum(log|eig|) over unstable modes
  upper              achievable output entropy of the lattice coder
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .riccati import ControlRiccati, FilterRiccati, b_min
from .sysmodel import TWO_PI_E, LinearPlant, NoiseModel

LOG2_E = 1.0 / math.log(2.0)

LOWER_KINDS = ("full", "projected", "lowrank", "partial", "partial_projected",
               "partial_lowrank")

DEFAULT_I_MAX = 64
INFIMUM_TOL = 1e-9


def nats_to_bits(x: float) -> float:
    return x * LOG2_E


def bits_to_nats(x: float) -> float:
    return x / LOG2_E


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix."""
    lam, vec = np.linalg.eigh((mat + mat.T) / 2.0)
    return vec @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


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

def unstable_floor(a_mat) -> float:
    """sum(log|eig|) over the unstable (|eig| >= 1) modes of A, nats."""
    eigs = np.linalg.eigvals(np.asarray(a_mat, dtype=float))
    mags = np.abs(eigs)
    return float(np.sum(np.log(mags[mags >= 1.0])))


def causal_slb(a: float, w: float, entropy_power: float, n: int, d: float) -> float:
    """Causal Shannon lower bound (n/2) log(a^2 + w N / (d/n)).

    a is the per-dimension dynamics gain |det A|^(1/n), w the per-dimension
    weight determinant, and d the weighted mean-square distortion budget.
    """
    if d <= 0:
        raise ValueError("distortion d must be positive")
    return 0.5 * n * math.log(a * a + w * entropy_power * n / d)


def causal_slb_projected(a_prime: float, w_prime: float, entropy_power: float,
                         ell: int, d: float) -> float:
    """Projected variant: rate of the ell retained modes at distortion d."""
    if d <= 0:
        raise ValueError("distortion d must be positive")
    if ell == 0:
        return 0.0
    return 0.5 * ell * math.log(a_prime * a_prime + w_prime * entropy_power * ell / d)


@dataclass(frozen=True)
class InfimumBound:
    """Result of a determinant-ratio infimum bound (rank-deficient cases)."""

    nats: float
    a: float
    w: float
    converged: bool
    i_max: int


def causal_slb_lowrank(a_mat, l_mat, k_mat, noise_cov, entropy_power: float,
                       d: float, i_max: int = DEFAULT_I_MAX) -> InfimumBound:
    """Low-rank causal SLB for sources s_{i+1} = A s_i + K v'_i with weight
    W = L^T L, rank m = rows(L) <= k = cols(K) <= n.

    Evaluates (m/2) log(a^2 + w N(v')^{k/m} / (d/m)) with
      a = inf_i [det(L A^i K Cov Kt A^it Lt) / (det Cov det(L Lt) det(Kt K))]^(1/(2 i m))
      w = (det(L Lt) det(Kt K))^(1/m)
    The infimum is truncated at i_max (running minimum).  Terms are dropped
    once A^i is so ill conditioned that the product has no significant digits
    left in its smallest direction; the sequence limit, the geometric mean of
    the m largest |eig(A)|, joins the minimum in their place.  ``converged``
    records whether the kept terms stabilised or reached that limit.
    """
    if d <= 0:
        raise ValueError("distortion d must be positive")
    a = np.asarray(a_mat, dtype=float)
    l = np.asarray(l_mat, dtype=float)
    k = np.asarray(k_mat, dtype=float)
    cov = np.asarray(noise_cov, dtype=float)
    n = a.shape[0]
    m = l.shape[0]
    kdim = k.shape[1]
    if not (1 <= m <= kdim <= n):
        raise ValueError(f"need rows(L)={m} <= cols(K)={kdim} <= n={n}")

    eig_mags = np.sort(np.abs(np.linalg.eigvals(a)))[::-1][:m]
    if np.all(eig_mags > 0.0):
        a_limit = float(np.exp(np.mean(np.log(eig_mags))))
    else:
        a_limit = 0.0

    log_den = _logdet(cov) + _logdet(l @ l.T) + _logdet(k.T @ k)
    cov_half = psd_sqrt(cov)
    a_terms: list[float] = []
    a_pow = np.eye(n)
    for i in range(1, i_max + 1):
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
        if svals[-1] <= 1e-5 * svals[0]:
            break  # roundoff floor of A^i: later terms carry no information
        if svals[-1] == 0.0:
            a_terms.append(0.0)
            continue
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
    nats = 0.5 * m * math.log(a_inf ** 2 + w * entropy_power ** (kdim / m) * m / d)
    return InfimumBound(nats=nats, a=a_inf, w=w, converged=converged, i_max=i_max)


# ---------------------------------------------------------------------------
# mode projection helper

@dataclass(frozen=True)
class ProjectionSpec:
    """Orthogonal change of basis isolating the ell dominant modes of A.

    A = J A' J^{-1} with A' block lower-triangular, the leading ell x ell
    block carrying the largest-magnitude eigenvalues.  ``lam`` is a diagonal
    (vector) lower bound on J^T M J used to price the retained modes.
    """

    j: np.ndarray
    j_inv: np.ndarray
    ell: int
    lam: np.ndarray
    a_prime: float
    mu_prime: float

    @property
    def transform(self) -> np.ndarray:
        """Pi_ell^T J^{-1}: maps states to retained-mode coordinates."""
        return self.j_inv[: self.ell, :]


def default_ell(a_mat) -> int:
    """Number of unstable (|eig| >= 1) modes."""
    return int(np.sum(np.abs(np.linalg.eigvals(np.asarray(a_mat, dtype=float))) >= 1.0))


def make_projection(
    plant: LinearPlant,
    control: ControlRiccati,
    ell: int | None = None,
    lam=None,
) -> ProjectionSpec:
    """Build a ProjectionSpec for the ell largest-|eig| modes of plant.A.

    The orthogonal basis J comes from a real Schur decomposition sorted by
    eigenvalue magnitude; ell must not split a complex pair.  lam defaults
    to the uniform floor min-eig(J^T M J).
    """
    a = plant.A
    n = plant.n
    if ell is None:
        ell = default_ell(a)
    if not 0 <= ell <= n:
        raise ValueError(f"ell must be in [0, {n}], got {ell}")
    if ell == 0:
        return ProjectionSpec(j=np.eye(n), j_inv=np.eye(n), ell=0,
                              lam=np.zeros(n), a_prime=0.0, mu_prime=0.0)

    mags = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
    if ell == n:
        j_mat, a_prime_mat = _ordered_basis(a, cut_sq=-1.0)
    else:
        if mags[ell - 1] - mags[ell] < 1e-12:
            raise ValueError(
                f"cannot separate modes: |eig| {mags[ell - 1]:.6g} vs "
                f"{mags[ell]:.6g} at ell={ell}"
            )
        cut_sq = 0.5 * (mags[ell - 1] ** 2 + mags[ell] ** 2)
        j_mat, a_prime_mat = _ordered_basis(a, cut_sq=cut_sq, want=ell)
    j_inv = j_mat.T  # orthogonal

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
        if gap < -1e-9 * max(1.0, float(np.abs(m_prime).max())):
            raise ValueError("lam is not admissible: J^T M J - diag(lam) not PSD")
    lead = lam_vec[:ell]
    mu_prime = float(np.exp(np.mean(np.log(lead)))) if np.all(lead > 0) else 0.0

    return ProjectionSpec(j=j_mat, j_inv=j_inv, ell=ell, lam=lam_vec,
                          a_prime=a_prime, mu_prime=mu_prime)


def _ordered_basis(a: np.ndarray, cut_sq: float, want: int | None = None):
    """Schur basis of A with |eig|^2 >= cut_sq clustered leading.

    Returns (J, A') with A = J A' J^T, J orthogonal, A' block
    lower-quasi-triangular (Schur of A^T, transposed back).
    """
    if want is None:
        t_mat, z_mat = schur(a.T, output="real")
        return z_mat, t_mat.T
    t_mat, z_mat, sdim = schur(
        a.T, output="real", sort=lambda re, im: re * re + im * im >= cut_sq
    )
    if sdim != want:
        raise ValueError(
            f"mode split selected {sdim} eigenvalues, expected {want} "
            "(ell may split a complex pair)"
        )
    return z_mat, t_mat.T


# ---------------------------------------------------------------------------
# rate-cost lower bounds (control level)

def lower_bound_full(plant: LinearPlant, control: ControlRiccati, b: float,
                     entropy_power: float | None = None) -> float:
    """Fully observed converse:
    log|det A| + (n/2) log(1 + N(V) |det M|^(1/n) / ((b - b_min)/n)).
    """
    n = plant.n
    slack = _require_feasible(b, b_min(plant, control))
    log_det_a = _logdet_abs(plant.A)
    if log_det_a == -math.inf:
        return -math.inf
    n_v = plant.noise_v.entropy_power if entropy_power is None else entropy_power
    log_det_m = _logdet(control.M)
    det_m_root = math.exp(log_det_m / n) if math.isfinite(log_det_m) else 0.0
    return log_det_a + 0.5 * n * math.log1p(n_v * det_m_root * n / slack)


def lower_bound_partial(plant: LinearPlant, control: ControlRiccati,
                        filt: FilterRiccati, b: float) -> float:
    """Partially observed gaussian converse:
    log|det A| + (n/2) log(1 + det(N M)^(1/n) / ((b - b_min)/n)).
    """
    n = plant.n
    slack = _require_feasible(b, b_min(plant, control, filt))
    log_det_a = _logdet_abs(plant.A)
    if log_det_a == -math.inf:
        return -math.inf
    log_det_nm = _logdet(filt.N) + _logdet(control.M)
    det_root = math.exp(log_det_nm / n) if math.isfinite(log_det_nm) else 0.0
    return log_det_a + 0.5 * n * math.log1p(det_root * n / slack)


def lower_bound_projected(plant: LinearPlant, control: ControlRiccati, b: float,
                          proj: ProjectionSpec | None = None,
                          entropy_power: float | None = None) -> float:
    """Projected converse pricing only the ell dominant modes:
    ell log a' + (ell/2) log(1 + mu' N(proj V) / ((b - b_min)/ell)).
    """
    if proj is None:
        proj = make_projection(plant, control)
    if proj.ell == 0:
        return 0.0
    slack = _require_feasible(b, b_min(plant, control))
    if proj.a_prime == 0.0:
        return -math.inf
    if entropy_power is None:
        entropy_power = plant.noise_v.projected_entropy_power(proj.transform)
    return proj.ell * math.log(proj.a_prime) + 0.5 * proj.ell * math.log1p(
        proj.mu_prime * entropy_power * proj.ell / slack
    )


def lower_bound_partial_projected(plant: LinearPlant, control: ControlRiccati,
                                  filt: FilterRiccati, b: float,
                                  proj: ProjectionSpec | None = None) -> float:
    """Projected partially observed converse; the innovation jump covariance
    N replaces the process noise: eta' = det(proj N proj^T)^(1/ell).
    """
    if proj is None:
        proj = make_projection(plant, control)
    if proj.ell == 0:
        return 0.0
    slack = _require_feasible(b, b_min(plant, control, filt))
    if proj.a_prime == 0.0:
        return -math.inf
    t = proj.transform
    log_det = _logdet(t @ filt.N @ t.T)
    eta_prime = math.exp(log_det / proj.ell) if math.isfinite(log_det) else 0.0
    return proj.ell * math.log(proj.a_prime) + 0.5 * proj.ell * math.log1p(
        eta_prime * proj.mu_prime * proj.ell / slack
    )


def _weighted_gain_rows(control: ControlRiccati) -> np.ndarray:
    """L_w = (R + B^T S B)^(1/2) L, the rank-m factor of M = L_w^T L_w."""
    return psd_sqrt(control.gain_cost) @ control.L


def lower_bound_lowrank(plant: LinearPlant, control: ControlRiccati, b: float,
                        i_max: int = DEFAULT_I_MAX,
                        entropy_power: float | None = None) -> InfimumBound:
    """Fully observed converse for m < n control inputs.

    The weighted quantization problem is equivalent to coding s'' = A s with
    weight M = L_w^T L_w and noise A v, so the low-rank causal SLB applies
    with K = A.
    """
    slack = _require_feasible(b, b_min(plant, control))
    if entropy_power is None:
        entropy_power = plant.noise_v.entropy_power
    return causal_slb_lowrank(
        plant.A, _weighted_gain_rows(control), plant.A,
        plant.noise_v.covariance, entropy_power, slack, i_max=i_max,
    )


def lower_bound_partial_lowrank(plant: LinearPlant, control: ControlRiccati,
                                filt: FilterRiccati, b: float,
                                i_max: int = DEFAULT_I_MAX) -> InfimumBound:
    """Partially observed converse for m <= k <= n.

    The coded process is the state estimate, driven by the k-dimensional
    innovation through A K; its weight is again M = L_w^T L_w.
    """
    slack = _require_feasible(b, b_min(plant, control, filt))
    innov_cov = filt.innovation_cov
    kdim = innov_cov.shape[0]
    ep = math.exp(_logdet(innov_cov) / kdim)
    return causal_slb_lowrank(
        plant.A, _weighted_gain_rows(control), plant.A @ filt.K,
        innov_cov, ep, slack, i_max=i_max,
    )


def _logdet_abs(mat: np.ndarray) -> float:
    sign, val = np.linalg.slogdet(mat)
    return val if sign != 0 else -math.inf


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


def lattice_entropy_upper(entropy_power: float, variance: float,
                          regularity: tuple[float, float] | None, n: int,
                          rho: float, d: float, grid_points: int = 64) -> float:
    """Output entropy bound for lattice quantization at covering distortion d:

      min over dt <= d of (n/2) log(N(X) / (dt/n)) + alpha_n + n log rho
        + 2 sqrt(dt) (c1 sqrt(Var X) + c0 + c1 sqrt(dt))

    The minimum re-optimizes the design distortion over a 64-point log grid;
    regularity constants must be known.
    """
    if regularity is None:
        raise ValueError("smoothness correction needs regularity constants")
    if d <= 0:
        raise ValueError("distortion d must be positive")
    c0, c1 = regularity
    dt = np.geomspace(1e-6 * d, d, grid_points)
    vals = (
        0.5 * n * np.log(entropy_power * n / dt)
        + alpha_n(n)
        + n * math.log(rho)
        + 2.0 * np.sqrt(dt) * (c1 * math.sqrt(variance) + c0 + c1 * np.sqrt(dt))
    )
    return float(vals.min())


def entropy_cost_upper(plant: LinearPlant, control: ControlRiccati, b: float,
                       filt: FilterRiccati | None = None,
                       rho: float | None = None,
                       grid_points: int = 64) -> float:
    """Entropy-cost upper bound: prefix-free coding of the lattice-quantized
    innovation attains LQR cost b at output entropy no larger than this.

    Equals the matching lower bound's leading terms plus concrete
    corrections: alpha_n + n log rho + a smoothness term that vanishes as
    b -> b_min (so the sandwich gap tends to alpha_n + n log rho).
    """
    n = plant.n
    if rho is None:
        rho = 1.0 if n == 1 else rho_covering(n)
    w_mat = plant.A.T @ control.M @ plant.A

    if filt is None:
        if not plant.fully_observed:
            raise ValueError("filt is required for a partially observed plant")
        first_terms = lower_bound_full(plant, control, b)
        noise_cov = plant.noise_v.covariance
        reg = plant.noise_v.regularity
        slack = b - b_min(plant, control)
    else:
        first_terms = lower_bound_partial(plant, control, filt, b)
        noise_cov = filt.N
        lam_min = float(np.linalg.eigvalsh(noise_cov).min())
        if lam_min <= 0:
            raise ValueError("innovation jump covariance must be nonsingular")
        reg = (0.0, 3.0 / lam_min)
        slack = b - b_min(plant, control, filt)
    if reg is None:
        raise ValueError(
            f"{plant.noise_v.family} noise has no known regularity constants"
        )

    w_eigs = np.linalg.eigvalsh(w_mat)
    w_min = float(w_eigs.min())
    if w_min <= 0:
        raise ValueError("innovation weight A^T M A must be positive definite")
    v_total = float(np.trace(noise_cov @ w_mat))
    # a* = max_z z' A'WA z / z'Wz, the one-step growth of weighted error.
    w_half_inv = np.linalg.inv(psd_sqrt(w_mat))
    a_star = float(np.linalg.eigvalsh(
        w_half_inv @ (plant.A.T @ w_mat @ plant.A) @ w_half_inv).max())

    c0, c1 = reg
    sq_a = math.sqrt(a_star)
    dt = np.geomspace(1e-6 * slack, slack, grid_points)
    beta = (np.sqrt(dt) / w_min) * (
        0.5 * c1 * sq_a * math.sqrt(v_total)
        + c0 * (2.0 + sq_a)
        + c1 * (2.0 + sq_a / 2.0) * np.sqrt(a_star * dt + v_total)
        + 2.0 * c1 * (1.0 + sq_a) * np.sqrt(dt)
    )
    correction = float((0.5 * n * np.log(slack / dt) + beta).min())
    return first_terms + alpha_n(n) + n * math.log(rho) + correction


# ---------------------------------------------------------------------------
# variable-rate conversion (bits)

def psi_bits(x: float) -> float:
    """psi(x) = x + log2(x + 1) + log2(e), the variable-rate penalty map."""
    if x < 0:
        raise ValueError("psi is defined for nonnegative rates")
    return x + math.log2(x + 1.0) + LOG2_E


def psi_inv_bits(y: float, tol: float = 1e-10) -> float:
    """Inverse of psi by bisection; values below psi(0) clamp to 0."""
    if y < 0:
        raise ValueError("psi_inv is defined for nonnegative rates")
    if y <= psi_bits(0.0):
        return 0.0
    lo, hi = 0.0, y
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if psi_bits(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def varrate_sandwich(converse_bits: float, entropy_bits: float) -> tuple[float, float]:
    """Operational variable-rate sandwich (psi^{-1}(R), H), both in bits."""
    return (psi_inv_bits(converse_bits), entropy_bits)
