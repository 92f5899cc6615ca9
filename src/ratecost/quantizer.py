"""Covering-lattice quantizers, the DPCM innovation codec, and entropy
estimation from emitted index streams.

Lattice menu: the integers for n = 1 and A_n* for 2 <= n <= 8, decoded in
the sum-zero hyperplane of R^(n+1).  A_n* is the thinnest known lattice
covering in every dimension handled here; no dither is used anywhere.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import psd_sqrt

TIE_TOL = 1e-12
INDEX_ATOL = 1e-9
MIN_ENTROPY_SAMPLES = 1000


def _ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _helmert_rows(n: int) -> np.ndarray:
    """Orthonormal rows spanning the sum-zero hyperplane of R^(n+1)."""
    h = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        h[k - 1, :k] = 1.0
        h[k - 1, k] = -float(k)
        h[k - 1] /= math.sqrt(k * (k + 1.0))
    return h


def _glue_vectors(n: int) -> np.ndarray:
    """Coset representatives of A_n* over A_n in R^(n+1) coordinates."""
    glue = np.zeros((n + 1, n + 1))
    for c in range(1, n + 1):
        glue[c, : n + 1 - c] = c / (n + 1.0)
        glue[c, n + 1 - c:] = c / (n + 1.0) - 1.0
    return glue


def _decode_sum_zero(y: np.ndarray) -> np.ndarray:
    """Nearest point of A_n (sum-zero integer vectors) for each row of y.

    Rounds coordinate-wise, then repairs the sum defect at the coordinates
    whose rounding residual makes the repair cheapest.
    """
    f = np.round(y)
    delta = y - f
    defect = np.rint(f.sum(axis=-1)).astype(np.int64)
    rank = np.argsort(np.argsort(delta, axis=-1, kind="stable"),
                      axis=-1, kind="stable")
    pos = defect[..., None]
    f -= ((pos > 0) & (rank < pos)).astype(float)
    f += ((pos < 0) & (rank >= y.shape[-1] + pos)).astype(float)
    return f


@dataclass(frozen=True)
class Lattice:
    """A scaled covering lattice in R^n.

    ``base_basis`` columns generate the unit-scale lattice; the effective
    generator is ``scale * base_basis``.  ``lift`` maps R^n coordinates to
    the sum-zero hyperplane for the A_n* family (None for the integers).
    """

    family: str
    n: int
    base_basis: np.ndarray
    base_covering_radius: float
    scale: float = 1.0
    lift: np.ndarray | None = None

    @property
    def basis(self) -> np.ndarray:
        return self.scale * self.base_basis

    @property
    def covering_radius(self) -> float:
        return self.scale * self.base_covering_radius

    @property
    def cell_volume(self) -> float:
        return float(abs(np.linalg.det(self.basis)))

    @property
    def rho(self) -> float:
        """Covering efficiency: covering radius over the radius of the
        equal-volume ball. Scale invariant, always >= 1."""
        r_eff = (self.cell_volume / _ball_volume(self.n)) ** (1.0 / self.n)
        return self.covering_radius / r_eff

    def scale_to_distortion(self, d: float) -> "Lattice":
        """Rescale so the covering radius squared equals d exactly."""
        if d <= 0:
            raise ValueError("distortion d must be positive")
        return replace(self, scale=math.sqrt(d) / self.base_covering_radius)

    def nearest(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.n:
            raise ValueError(f"points must have dimension {self.n}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        y = pts / self.scale
        if self.family == "integer_Z":
            dec = np.round(y)
        else:
            dec = self._decode_a_star(y)
        out = dec * self.scale
        return out[0] if single else out

    def _decode_a_star(self, y: np.ndarray) -> np.ndarray:
        hyper = y @ self.lift  # (N, n+1)
        glue = _glue_vectors(self.n)
        cands = np.empty((self.n + 1,) + hyper.shape)
        for c in range(self.n + 1):
            cands[c] = _decode_sum_zero(hyper - glue[c]) + glue[c]
        d2 = np.sum((hyper[None] - cands) ** 2, axis=-1)  # (n+1, N)
        best = np.argmin(d2, axis=0)
        rows = np.arange(hyper.shape[0])
        chosen = cands[best, rows]
        tied = np.sum(d2 <= d2[best, rows] + TIE_TOL, axis=0) > 1
        for i in np.flatnonzero(tied):
            chosen[i] = self._break_tie(hyper[i], cands[:, i],
                                        d2[:, i], d2[best[i], i])
        return chosen @ self.lift.T

    def _break_tie(self, point, cands, d2, d2min):
        # Even coordinate sum first, then lexicographic order, on the
        # integer coordinates in the lattice basis. Measure-zero event;
        # the rule only pins down replayability.
        keys = []
        for c in np.flatnonzero(d2 <= d2min + TIE_TOL):
            z = np.linalg.solve(self.base_basis, cands[c] @ self.lift.T)
            z = np.rint(z).astype(np.int64)
            keys.append((int(np.sum(z)) % 2, tuple(z), c))
        keys.sort()
        return cands[keys[0][2]]

    def index_of(self, points) -> np.ndarray:
        """Integer coordinates of lattice points in the generator basis."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts) / self.scale
        z = np.linalg.solve(self.base_basis, pts.T).T
        zi = np.rint(z)
        if not np.allclose(pts, zi @ self.base_basis.T, atol=INDEX_ATOL):
            raise ValueError("inputs are not lattice points")
        out = zi.astype(np.int64)
        return out[0] if single else out

    def point_of(self, indices) -> np.ndarray:
        idx = np.asarray(indices)
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("indices must be integer coordinate vectors")
        single = idx.ndim == 1
        idx = np.atleast_2d(idx)
        if idx.shape[1] != self.n:
            raise ValueError(f"indices must have dimension {self.n}")
        out = (idx @ self.base_basis.T) * self.scale
        return out[0] if single else out


def integer_lattice(scale: float = 1.0) -> Lattice:
    """The integers; the unique n=1 entry of the menu (rho = 1)."""
    return Lattice("integer_Z", 1, np.eye(1), 0.5, scale)


def a_star_lattice(n: int, scale: float = 1.0) -> Lattice:
    if not 2 <= n <= 8:
        raise ValueError("A_n* lattices are configured for 2 <= n <= 8")
    h = _helmert_rows(n)
    gen = np.zeros((n + 1, n))
    for i in range(n):
        gen[i, i] = 1.0
        gen[i + 1, i] = -1.0
    basis_an = h @ gen
    # A_n* is the dual of A_n inside the hyperplane: inverse-transpose basis.
    base = np.linalg.inv(basis_an.T)
    r2 = n * (n + 2.0) / (12.0 * (n + 1.0))
    return Lattice("a_n_star", n, base, math.sqrt(r2), scale, lift=h)


def lattice_for_dimension(n: int, scale: float = 1.0) -> Lattice:
    return integer_lattice(scale) if n == 1 else a_star_lattice(n, scale)


class DpcmCodec:
    """DPCM codec quantizing weighted state innovations on a lattice.

    Encoder and decoder replicas fed the same index stream hold
    bit-identical state; ``state_digest`` exposes that for desync audits.
    The lattice is expected pre-scaled so its covering radius squared is
    the per-step distortion budget, which then bounds the weighted error
    (s - s_hat)^T W (s - s_hat) on every step.  ``simloop.run`` does not use
    this class: it runs the same coder as one error recursion.
    """

    def __init__(self, lattice: Lattice, weight, a_mat, b_mat=None, s0=None):
        self.lattice = lattice
        w = np.asarray(weight, dtype=float)
        self.w_sqrt = psd_sqrt(w)
        self.w_sqrt_inv = np.linalg.inv(self.w_sqrt)
        self.a = np.asarray(a_mat, dtype=float)
        self.b = None if b_mat is None else np.asarray(b_mat, dtype=float)
        n = self.a.shape[0]
        if lattice.n != n:
            raise ValueError("lattice dimension must match the state")
        self.s_hat = np.zeros(n) if s0 is None else np.asarray(s0, float).copy()
        self.step = 0

    def _predict(self, u_prev) -> np.ndarray:
        pred = self.a @ self.s_hat
        if self.b is not None and u_prev is not None:
            pred = pred + self.b @ np.asarray(u_prev, dtype=float)
        return pred

    def encode_step(self, s, u_prev=None):
        """Quantize the innovation of s; returns (index, quantized innovation)."""
        pred = self._predict(u_prev)
        innovation = np.asarray(s, dtype=float) - pred
        index = self.lattice.index_of(
            self.lattice.nearest(self.w_sqrt @ innovation))
        # reconstruct through the index so encoder and decoder floats agree
        point = self.lattice.point_of(index)
        corr = self.w_sqrt_inv @ point
        self.s_hat = pred + corr
        self.step += 1
        return index, corr

    def decode_step(self, index, u_prev=None) -> np.ndarray:
        """Mirror of encode_step driven by the received index."""
        pred = self._predict(u_prev)
        point = self.lattice.point_of(index)
        self.s_hat = pred + self.w_sqrt_inv @ point
        self.step += 1
        return self.s_hat.copy()

    def state_digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.s_hat).tobytes())
        h.update(self.step.to_bytes(8, "little", signed=False))
        return h.hexdigest()


@dataclass(frozen=True)
class EntropyEstimate:
    plug_in: float
    miller_madow: float
    support: int
    samples: int


def empirical_entropy(indices, burn_in: int = 0) -> EntropyEstimate:
    """Plug-in entropy (nats) of the post-burn-in index marginal.

    This is the entropy of memoryless coding of the indices, an upper
    proxy for the conditional per-step entropy; the Miller-Madow value
    adds the (support-1)/(2N) small-sample correction.
    """
    data = np.asarray(indices)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    data = data[burn_in:]
    if data.shape[0] < MIN_ENTROPY_SAMPLES:
        raise ValueError(
            f"need at least {MIN_ENTROPY_SAMPLES} samples past burn-in")
    _, counts = np.unique(data, axis=0, return_counts=True)
    p = counts / counts.sum()
    plug_in = float(-(p * np.log(p)).sum())
    mm = plug_in + (len(counts) - 1) / (2.0 * data.shape[0])
    return EntropyEstimate(plug_in, mm, int(len(counts)), int(data.shape[0]))
