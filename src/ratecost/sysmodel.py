"""System models for quantized LQG control.

A plant is a linear stochastic system x_{i+1} = A x_i + B u_i + v_i observed
either fully or through y_i = C x_i + w_i.  Noise enters through zero-mean
models from a small menu of families; everything downstream (Riccati solves,
rate-cost bounds, simulation) consumes these two classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI_E = 2.0 * math.pi * math.e

FAMILIES = ("gaussian", "laplace", "uniform")

# Singular values below RANK_RTOL * sigma_max count as zero in rank tests.
RANK_RTOL = 1e-9


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    return a


def _require_psd(mat: np.ndarray, name: str) -> None:
    """Refuse a matrix whose symmetric part has its least eigenvalue below
    -1e-12 times its largest eigenvalue magnitude: a test free of the
    matrix's scale, which the zero matrix passes."""
    eigs = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    if eigs[0] < -1e-12 * max(-eigs[0], eigs[-1]):
        raise ValueError(f"{name} must be positive semidefinite")


def _is_diagonal(a: np.ndarray, tol: float = 0.0) -> bool:
    off = a - np.diag(np.diag(a))
    return bool(np.all(np.abs(off) <= tol))


class NoiseModel:
    """Zero-mean noise with a known covariance.

    Families:
      gaussian  arbitrary positive-semidefinite covariance
      laplace   independent coordinates, diagonal covariance
      uniform   independent coordinates, diagonal covariance

    Differential entropy and entropy power are exact per family.  The
    regularity constants (c0, c1) bound the density's log-gradient,
    ``||grad f(x)|| <= (c1 ||x|| + c0) f(x)``; they exist for the gaussian and
    laplace families and are unknown for uniform (the density is not
    differentiable), reported as None.
    """

    def __init__(self, family: str, covariance) -> None:
        if family not in FAMILIES:
            raise ValueError(f"unknown noise family {family!r}, expected one of {FAMILIES}")
        cov = _as_matrix(covariance, "covariance")
        if cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        _require_psd(cov, "covariance")
        if family != "gaussian" and not _is_diagonal(cov):
            raise ValueError(f"{family} noise requires a diagonal covariance")
        self.family = family
        self.covariance = cov
        self.covariance.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    @property
    def variance(self) -> float:
        """Total variance E||X||^2 = tr(covariance)."""
        return float(np.trace(self.covariance))

    @property
    def is_gaussian(self) -> bool:
        return self.family == "gaussian"

    def _coordinate_entropies(self) -> np.ndarray:
        """Per-coordinate differential entropies in nats (diagonal families)."""
        var = np.diag(self.covariance)
        if np.any(var <= 0):
            raise ValueError("per-coordinate entropy needs strictly positive variances")
        if self.family == "laplace":
            scale = np.sqrt(var / 2.0)
            return 1.0 + np.log(2.0 * scale)
        if self.family == "uniform":
            half = np.sqrt(3.0 * var)
            return np.log(2.0 * half)
        return 0.5 * np.log(TWO_PI_E * var)

    @property
    def differential_entropy(self) -> float:
        """h(X) in nats.  Requires a nonsingular covariance."""
        if self.family == "gaussian":
            sign, logdet = np.linalg.slogdet(self.covariance)
            if sign <= 0:
                raise ValueError("differential entropy needs a nonsingular covariance")
            return 0.5 * (self.dim * math.log(TWO_PI_E) + logdet)
        return float(np.sum(self._coordinate_entropies()))

    @property
    def entropy_power(self) -> float:
        """N(X) = exp(2 h(X) / n) / (2 pi e)."""
        return math.exp(2.0 * self.differential_entropy / self.dim) / TWO_PI_E

    @property
    def regularity(self) -> tuple[float, float] | None:
        """(c0, c1) log-gradient constants, or None when unknown."""
        if self.family == "gaussian":
            lam_min = float(np.linalg.eigvalsh(self.covariance).min())
            if lam_min <= 0:
                raise ValueError("gaussian regularity needs a nonsingular covariance")
            return (0.0, 3.0 / lam_min)
        if self.family == "laplace":
            scale = np.sqrt(np.diag(self.covariance) / 2.0)
            return (float(np.sqrt(np.sum(scale ** -2))), 0.0)
        return None

    def projected_entropy_power(self, transform) -> float:
        """Entropy power of T X for a full-row-rank matrix T.

        Exact for gaussian noise with any T.  For the independent-coordinate
        families T must select distinct (possibly scaled) coordinate axes,
        otherwise the projected entropy has no closed form here.
        """
        t = _as_matrix(transform, "transform")
        ell = t.shape[0]
        if t.shape[1] != self.dim or not 1 <= ell <= self.dim:
            raise ValueError(f"transform shape {t.shape} incompatible with dim {self.dim}")
        if self.family == "gaussian":
            sign, logdet = np.linalg.slogdet(t @ self.covariance @ t.T)
            if sign <= 0:
                raise ValueError("projected covariance is singular")
            return math.exp(logdet / ell)
        h_coord = self._coordinate_entropies()
        h = 0.0
        used: set[int] = set()
        for row in t:
            nz = np.flatnonzero(np.abs(row) > 1e-12)
            if nz.size != 1 or int(nz[0]) in used:
                raise ValueError(
                    f"projected entropy power of {self.family} noise needs an "
                    "axis-aligned transform with distinct coordinates"
                )
            j = int(nz[0])
            used.add(j)
            h += h_coord[j] + math.log(abs(row[j]))
        return math.exp(2.0 * h / ell) / TWO_PI_E

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` iid vectors, shape (size, dim)."""
        n = self.dim
        if self.family == "gaussian":
            try:
                chol = np.linalg.cholesky(self.covariance)
            except np.linalg.LinAlgError:
                # PSD-singular: factor through the eigendecomposition.
                lam, vec = np.linalg.eigh(self.covariance)
                chol = vec * np.sqrt(np.clip(lam, 0.0, None))
            return rng.standard_normal((size, n)) @ chol.T
        var = np.diag(self.covariance)
        if self.family == "laplace":
            return rng.laplace(0.0, np.sqrt(var / 2.0), size=(size, n))
        half = np.sqrt(3.0 * var)
        return rng.uniform(-half, half, size=(size, n))

    def __repr__(self) -> str:
        return f"NoiseModel({self.family!r}, dim={self.dim})"


class LinearPlant:
    """Linear plant x_{i+1} = A x_i + B u_i + v_i with quadratic cost (Q, R).

    When ``c`` is the identity and no observation noise is given the plant is
    fully observed; otherwise the controller sees y_i = C x_i + w_i (w absent
    means noiseless partial observations).
    """

    def __init__(
        self,
        a,
        b,
        q,
        r,
        noise_v: NoiseModel,
        c=None,
        noise_w: NoiseModel | None = None,
        noise_x1: NoiseModel | None = None,
    ) -> None:
        self.A = _as_matrix(a, "A")
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        self.B = _as_matrix(b, "B")
        if self.B.shape[0] != n:
            raise ValueError(f"B has {self.B.shape[0]} rows, expected {n}")
        self.Q = _as_matrix(q, "Q")
        if self.Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {self.Q.shape}")
        _require_psd(self.Q, "Q")
        m = self.B.shape[1]
        self.R = _as_matrix(r, "R")
        if self.R.shape != (m, m):
            raise ValueError(f"R must be {m}x{m}, got {self.R.shape}")
        _require_psd(self.R, "R")
        self.C = np.eye(n) if c is None else _as_matrix(c, "C")
        if self.C.shape[1] != n:
            raise ValueError(f"C has {self.C.shape[1]} columns, expected {n}")
        if noise_v.dim != n:
            raise ValueError(f"noise_v has dim {noise_v.dim}, expected {n}")
        self.noise_v = noise_v
        k = self.C.shape[0]
        if noise_w is not None and noise_w.dim != k:
            raise ValueError(f"noise_w has dim {noise_w.dim}, expected {k}")
        self.noise_w = noise_w
        if noise_x1 is not None and noise_x1.dim != n:
            raise ValueError(f"noise_x1 has dim {noise_x1.dim}, expected {n}")
        self.noise_x1 = noise_x1 if noise_x1 is not None else noise_v
        for mat in (self.A, self.B, self.C, self.Q, self.R):
            mat.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def k(self) -> int:
        return self.C.shape[0]

    @property
    def fully_observed(self) -> bool:
        return (
            self.noise_w is None
            and self.C.shape == (self.n, self.n)
            and np.array_equal(self.C, np.eye(self.n))
        )

    @property
    def obs_cov(self) -> np.ndarray:
        """Observation noise covariance, zero matrix when noise_w is absent."""
        if self.noise_w is None:
            return np.zeros((self.k, self.k))
        return self.noise_w.covariance

    def __repr__(self) -> str:
        mode = "fully" if self.fully_observed else "partially"
        return f"LinearPlant(n={self.n}, m={self.m}, k={self.k}, {mode} observed)"


def numerical_rank(mat: np.ndarray) -> int:
    """Rank by singular values, zero threshold RANK_RTOL * sigma_max."""
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv >= RANK_RTOL * sv[0]))


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def observability_matrix(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    return controllability_matrix(a.T, c.T).T


@dataclass
class ValidationReport:
    controllable: bool
    observable: bool
    controllability_rank: int
    observability_rank: int
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.controllable and self.observable


def validate(plant: LinearPlant) -> ValidationReport:
    """Structural checks: (A,B) controllable, (A,C) observable.

    The plant's weights and noise covariances need no check here:
    ``LinearPlant`` and ``NoiseModel`` refuse an indefinite one."""
    n = plant.n
    msgs: list[str] = []

    ctrl_rank = numerical_rank(controllability_matrix(plant.A, plant.B))
    controllable = ctrl_rank == n
    if not controllable:
        msgs.append(f"(A, B) not controllable: rank {ctrl_rank} < {n}")

    obs_rank = numerical_rank(observability_matrix(plant.A, plant.C))
    observable = obs_rank == n
    if not observable:
        msgs.append(f"(A, C) not observable: rank {obs_rank} < {n}")

    return ValidationReport(
        controllable=controllable,
        observable=observable,
        controllability_rank=ctrl_rank,
        observability_rank=obs_rank,
        messages=msgs,
    )
