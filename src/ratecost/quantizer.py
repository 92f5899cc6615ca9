"""Covering-lattice quantizers, the DPCM innovation codec, and entropy
estimation from emitted index streams.

Lattice menu: the integers for n = 1 and A_n* for 2 <= n <= 8.  A_n* is
the thinnest known lattice covering in every dimension handled here; no
dither is used anywhere.  A_n* has two decoders of Conway and Sloane's
coset decode in the sum-zero hyperplane of R^(n+1): one vector in Python
floats, and many rows (each with its own scale) in one numpy pass over
rows x glue cosets.  They give the same bits, so a point decodes alike
alone or in a batch; ``nearest`` picks by the number of rows it is given.
Only glue cosets that round to sum zero are candidates.  Both families
decode only inside ``DECODE_RANGE``, where every unit coordinate (lifted on
A_n*) rounds exactly and n + 1 <= 9 rounded ones sum exactly in floats.
Entropy counts the distinct index rows from one stable lexicographic sort.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import psd_sqrt

TIE_TOL = 1e-12
DECODE_RANGE = 2.0 ** 48  # cells; a unit coordinate must stay below it
TOO_FAR = "point too far out to decode in double precision"
INDEX_ATOL = 1e-12  # per unit of a row's largest coordinate, past 1
INDEX_LIMIT = 2.0 ** 63  # indices are int64
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


@functools.cache
def _glue_vectors(n: int) -> tuple[tuple[float, ...], ...]:
    """Coset representatives of A_n* over A_n in R^(n+1) coordinates."""
    glue = []
    for c in range(n + 1):
        frac = c / (n + 1.0)
        glue.append((frac,) * (n + 1 - c) + (frac - 1.0,) * c)
    return tuple(glue)


@functools.cache
def _glue_array(n: int) -> np.ndarray:
    glue = np.array(_glue_vectors(n))
    glue.flags.writeable = False
    return glue


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
        """The nearest lattice point to x or to each row of x; refuses a
        point outside ``DECODE_RANGE`` or, on A_n*, with no zero-sum coset."""
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.n:
            raise ValueError(f"points must have dimension {self.n}")
        with np.errstate(all="ignore"):  # x / t may overflow; refused
            if self.family == "integer_Z":
                unit = pts / self.scale
                if not np.all(np.abs(unit) < DECODE_RANGE):
                    raise ValueError(TOO_FAR)
                out = np.round(unit) * self.scale
            elif len(pts) == 1:
                out = np.array([self._nearest_one(pts[0].tolist())])
            else:
                out, ok = self._nearest_rows(pts, np.full(len(pts),
                                                          self.scale))
                if not ok.all():
                    raise ValueError(TOO_FAR)
        return out[0] if single else out

    def _nearest_one(self, x: list[float]) -> list[float]:
        """Nearest point of the scaled A_n* to one point x of R^n.

        Conway & Sloane's coset decode in Python floats: in the sum-zero
        hyperplane of R^(n+1), for each glue coset g_c of A_n, round
        y = hyper - g_c (half to even, like ``np.round``) to r and keep
        r + g_c if r sums to zero; the closest kept point wins.  A coset
        left with a defect k = sum(r) != 0 can never win or tie: projecting
        r + g_c onto the hyperplane gives an A_n* point at |y - r|^2 -
        k^2/(n+1), while every integer vector of sum zero is at >= |y - r|^2
        (McKilliam, Clarkson & Quinn 2008), so a repaired point loses by
        1/(n+1) >> ``TIE_TOL``.  A point with any lifted coordinate outside
        ``DECODE_RANGE`` is refused, and so is one whose roundoff in the lift
        leaves no zero-sum coset.  The two linear maps stay numpy products on
        a (1, n) row, which ``_nearest_rows`` repeats for the same bits.
        """
        t = self.scale
        hyper = (np.array([[xi / t for xi in x]]) @ self.lift)[0].tolist()
        if not all(abs(h) < DECODE_RANGE for h in hyper):  # NaN is not
            raise ValueError(TOO_FAR)
        cands, d2 = [], []
        for g in _glue_vectors(self.n):
            f = [round(h - gj) for h, gj in zip(hyper, g)]
            if sum(f):
                continue
            cand = [k + gj for k, gj in zip(f, g)]
            acc = 0.0  # spelled out: sum() is compensated from Python 3.12
            for h, c in zip(hyper, cand):
                acc += (h - c) * (h - c)
            cands.append(cand)
            d2.append(acc)
        if not cands:
            raise ValueError("point too large to decode on A_n* in double "
                             "precision: no glue coset rounds to sum zero")
        low = min(d2)
        tied = [c for c, d in zip(cands, d2) if d <= low + TIE_TOL]
        chosen = tied[0] if len(tied) == 1 else self._break_tie(tied)
        point = (np.array([chosen]) @ self.lift.T)[0].tolist()
        return [v * t for v in point]

    def _nearest_rows(self, x: np.ndarray, t: np.ndarray):
        """``_nearest_one`` on every row of x (k, n), row i at scale t[i],
        in one numpy pass over rows x glue cosets; the same bits per row.

        Returns (points, ok).  A row is not ok where ``_nearest_one``
        raises: a lifted coordinate is outside ``DECODE_RANGE``, or no coset
        rounds to sum zero; its output row is then meaningless.  Each step
        repeats the one-vector arithmetic: stacked (1, n) products (a 2-D
        ``x @ lift`` rounds differently), ``np.rint`` for ``round``, squared
        distances summed column by column, and a zero-sum test on float
        sums, exact inside the decode range.  Rows with more than one
        candidate within ``TIE_TOL`` go to ``_break_tie`` in coset order.
        """
        glue = _glue_array(self.n)
        t = t[:, None]
        with np.errstate(all="ignore"):
            hyper = np.matmul((x / t)[:, None, :], self.lift)
            f = np.rint(hyper - glue)                   # rows x cosets x n+1
            cand = f + glue
            diff = hyper - cand
            sq = diff * diff
            d2 = sq[..., 0]
            for j in range(1, self.n + 1):
                d2 = d2 + sq[..., j]
            zero_sum = f.sum(axis=2) == 0.0
            if not np.abs(hyper).max(initial=0.0) < DECODE_RANGE:  # far or NaN
                zero_sum &= np.abs(hyper).max(axis=2) < DECODE_RANGE
            d2 = np.where(zero_sum, d2, math.inf)
            low = d2.min(axis=1)
            tied = d2 <= (low + TIE_TOL)[:, None]
            ok = low < math.inf
            chosen = cand[np.arange(len(x)), tied.argmax(axis=1)]
            if np.count_nonzero(tied) > len(x):
                for i in np.flatnonzero(ok & (tied.sum(axis=1) > 1)):
                    chosen[i] = self._break_tie(cand[i, tied[i]].tolist())
            point = np.matmul(chosen[:, None, :], self.lift.T)[:, 0, :] * t
        return point, ok

    def _break_tie(self, tied):
        # Even coordinate sum first, then lexicographic order, on the
        # integer coordinates in the lattice basis. Measure-zero event;
        # the rule only pins down replayability.  The basis is the inverse
        # transpose of h @ gen, so a zero-sum candidate c has coordinates
        # z_i = c_i - c_{i+1}: Python ints, exact at any size.
        def key(cand):
            z = tuple(round(a - b) for a, b in zip(cand, cand[1:]))
            return sum(z) % 2, z
        return min(tied, key=key)

    @functools.cached_property
    def _base_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.base_basis)

    def index_of(self, points) -> np.ndarray:
        """Integer coordinates of lattice points in the generator basis; a
        decoded point is within about 1e-16 relative, far inside
        ``INDEX_ATOL``, and its index must fit in int64.  The coordinates
        come from the basis inverse, taken once per lattice: they differ
        from a solve's by rounding only, so a point that passes the
        lattice-point check rounds to the same integers either way."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts) / self.scale
        zi = np.rint(pts @ self._base_inverse.T)
        tol = INDEX_ATOL * np.maximum(1.0, abs(pts).max(1, keepdims=True))
        if not np.all(np.abs(pts - zi @ self.base_basis.T) <= tol):
            raise ValueError("inputs are not lattice points")
        if not np.all(np.abs(zi) < INDEX_LIMIT):
            raise ValueError(
                f"lattice index does not fit in int64 at cell scale "
                f"{self.scale:.6g}: the point is too far out for the cell")
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


def integer_lattice() -> Lattice:
    """The integers; the unique n=1 entry of the menu (rho = 1)."""
    return Lattice("integer_Z", 1, np.eye(1), 0.5)


def a_star_lattice(n: int) -> Lattice:
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
    return Lattice("a_n_star", n, base, math.sqrt(r2), lift=h)


def lattice_for_dimension(n: int) -> Lattice:
    return integer_lattice() if n == 1 else a_star_lattice(n)


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


def _row_counts(data: np.ndarray) -> np.ndarray:
    """Occurrences of each distinct row, in lexicographic row order (the
    counts of ``np.unique(data, axis=0)``), from one sort: of the values
    for one column, else one stable lexicographic sort of the rows."""
    if data.shape[1] == 1:
        rows = np.sort(data, axis=0)
    else:
        rows = data[np.lexsort(data.T[::-1])]
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(rows[1:] != rows[:-1], axis=1))))
    return np.diff(starts, append=rows.shape[0])


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
    counts = _row_counts(data)
    p = counts / counts.sum()
    plug_in = float(-(p * np.log(p)).sum())
    mm = plug_in + (len(counts) - 1) / (2.0 * data.shape[0])
    return EntropyEstimate(plug_in, mm, int(len(counts)), int(data.shape[0]))
