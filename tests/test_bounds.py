import inspect
import json
import math
import warnings

import numpy as np
import pytest
from bound_oracle import slb_lowrank
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import block_diag, schur

from ratecost import bounds
from ratecost.bounds import (
    InfimumBound,
    alpha_n,
    bound_curve,
    causal_slb,
    causal_slb_lowrank,
    entropy_cost_upper,
    lower_bound_full,
    lower_bound_lowrank,
    lower_bound_partial,
    lower_bound_partial_lowrank,
    lower_bound_partial_projected,
    lower_bound_projected,
    make_projection,
    nats_to_bits,
    rho_covering,
    rogers_rho_bound,
    sandwich_curve,
    unstable_floor,
)
from ratecost.riccati import b_min, solve_control, solve_filter
from ratecost.sysmodel import LinearPlant, NoiseModel

# Frozen oracles (sympy/mpmath, 20 digits):
ALPHA_1 = 0.7257913526447274        # 0.5 ln(2e) + ln Gamma(3/2)
RHO_2 = 1.0996361107912677
CAUSAL_SLB_EX = 0.8047189562170050  # 0.5 ln 5
FULL_AT_BMIN_PLUS_1 = 1.4370140156042802
PARTIAL_AT_BMIN_PLUS_1 = 1.9657040842084052


def gaussian_plant(a, b, q, r, cov_v, c=None, cov_w=None, family="gaussian"):
    noise_w = None if cov_w is None else NoiseModel("gaussian", cov_w)
    return LinearPlant(a, b, q, r, NoiseModel(family, cov_v), c=c, noise_w=noise_w)


@pytest.fixture(scope="module")
def scalar():
    plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
    return plant, solve_control(plant)


@pytest.fixture(scope="module")
def scalar_partial():
    plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
                           c=[[1.0]], cov_w=[[1.0]])
    return plant, solve_control(plant), solve_filter(plant)


class TestUnits:
    def test_round_trip(self):
        assert math.isclose(nats_to_bits(0.7) * math.log(2.0), 0.7,
                            rel_tol=1e-12)
        assert math.isclose(nats_to_bits(math.log(2.0)), 1.0, rel_tol=1e-12)


class TestLatticeConstants:
    def test_alpha_1_frozen(self):
        assert math.isclose(alpha_n(1), ALPHA_1, rel_tol=1e-12)

    def test_rho_1_is_unity(self):
        assert math.isclose(rho_covering(1), 1.0, rel_tol=1e-12)

    def test_rho_2_frozen(self):
        assert math.isclose(rho_covering(2), RHO_2, rel_tol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_alpha_rho_identity(self, n):
        # log rho + alpha_n / n = 0.5 log(2 pi e (n+2) / (12 (n+1)^(1-1/n))),
        # an independent closed form tying both constants together.
        lhs = math.log(rho_covering(n)) + alpha_n(n) / n
        rhs = 0.5 * math.log(
            2.0 * math.pi * math.e * (n + 2.0) / (12.0 * (n + 1.0) ** (1.0 - 1.0 / n))
        )
        assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_rogers_dominates_constructed_lattice(self):
        for n in (3, 5, 8):
            assert rogers_rho_bound(n) > n * math.log(rho_covering(n))
        with pytest.raises(ValueError):
            rogers_rho_bound(2)


class TestCausalSlb:
    def test_frozen_example(self):
        assert math.isclose(causal_slb(2.0, 1.0, 1.0, 1, 1.0), CAUSAL_SLB_EX,
                            rel_tol=1e-12)

    def test_rejects_nonpositive_distortion(self):
        with pytest.raises(ValueError):
            causal_slb(2.0, 1.0, 1.0, 1, 0.0)

    def test_no_retained_modes_need_no_rate(self):
        assert causal_slb(1.3, 0.7, 0.9, 0, 2.0) == 0.0
        with pytest.raises(ValueError):
            causal_slb(1.3, 0.7, 0.9, 0, 0.0)

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2)])
    def test_lowrank_square_reduction(self, n, seed):
        # k = m = n: the determinant-ratio bound collapses to the plain SLB
        # with w = det(L'L)^(1/n) and the entropy power of K v'.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        l = rng.standard_normal((n, n))
        k = rng.standard_normal((n, n)) + np.eye(n)
        g = rng.standard_normal((n, n))
        cov = g @ g.T + 0.5 * np.eye(n)
        d = 1.7
        ep_inner = float(np.linalg.det(cov)) ** (1.0 / n)
        res = causal_slb_lowrank(a, l, k, cov, ep_inner, d)
        a_plain = abs(np.linalg.det(a)) ** (1.0 / n)
        w_plain = float(np.linalg.det(l.T @ l)) ** (1.0 / n)
        ep_outer = float(np.linalg.det(k @ cov @ k.T)) ** (1.0 / n)
        want = causal_slb(a_plain, w_plain, ep_outer, n, d)
        assert math.isclose(res.nats, want, rel_tol=1e-9)
        assert res.converged

    def test_lowrank_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            causal_slb_lowrank(np.eye(2), np.ones((2, 2)), np.ones((2, 1)),
                               np.eye(1), 1.0, 1.0)


class TestUnstableFloor:
    def test_mixed_spectrum(self):
        assert math.isclose(unstable_floor(np.diag([2.0, 0.5])), math.log(2.0),
                            rel_tol=1e-12)

    def test_complex_pair(self):
        a = np.array([[0.0, 2.0], [-2.0, 0.0]])  # eigenvalues +-2i
        assert math.isclose(unstable_floor(a), 2.0 * math.log(2.0), rel_tol=1e-12)

    def test_marginally_stable_contributes_zero(self):
        theta = 0.3
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        assert abs(unstable_floor(rot)) < 1e-12


class TestFullLowerBound:
    def test_frozen_value(self, scalar):
        plant, ctrl = scalar
        b = b_min(plant, ctrl) + 1.0
        assert math.isclose(lower_bound_full(plant, ctrl, b),
                            FULL_AT_BMIN_PLUS_1, abs_tol=1e-9)

    def test_matches_scalar_gaussian_closed_form(self, scalar):
        # Independent route: the scalar Gauss-Markov rate-distortion formula
        # evaluated at distortion b - b_min with weight A^T M A.
        plant, ctrl = scalar
        bmin = b_min(plant, ctrl)
        a = abs(plant.A[0, 0])
        w = (plant.A.T @ ctrl.M @ plant.A)[0, 0]
        for b in np.linspace(bmin + 1e-3, bmin + 50.0, 50):
            want = causal_slb(a, w, 1.0, 1, b - bmin)
            assert math.isclose(lower_bound_full(plant, ctrl, b), want,
                                abs_tol=1e-9)

    def test_asymptote(self, scalar):
        plant, ctrl = scalar
        assert math.isclose(lower_bound_full(plant, ctrl, 1e6), math.log(2.0),
                            abs_tol=1e-3)

    def test_strictly_decreasing_in_b(self, scalar):
        plant, ctrl = scalar
        bmin = b_min(plant, ctrl)
        grid = bmin + np.geomspace(0.01, 100.0, 30)
        vals = [lower_bound_full(plant, ctrl, b) for b in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_infeasible_cost_names_bmin(self, scalar):
        plant, ctrl = scalar
        with pytest.raises(ValueError, match="b_min"):
            lower_bound_full(plant, ctrl, 1.0)

    def test_singular_dynamics_vacuous(self):
        plant = gaussian_plant(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2),
                               np.eye(2))
        ctrl = solve_control(plant)
        b = b_min(plant, ctrl) + 1.0
        assert lower_bound_full(plant, ctrl, b) == -math.inf
        # the low-rank infimum is 0 and so is its weight: no math domain error
        assert bound_curve("lowrank", plant, ctrl)(b) == (-math.inf, True)

    def test_noise_term_drops_when_m_singular(self):
        # Free control with a zero-cost direction makes det M = 0; the bound
        # degrades to log|det A| but stays valid.
        plant = gaussian_plant(np.diag([2.0, 3.0]), np.eye(2), np.eye(2),
                               np.zeros((2, 2)), np.eye(2))
        ctrl = solve_control(plant)
        b = b_min(plant, ctrl) + 1.0
        got = lower_bound_full(plant, ctrl, b)
        assert got >= math.log(6.0) - 1e-12


class TestPartialLowerBound:
    def test_frozen_value(self, scalar_partial):
        plant, ctrl, filt = scalar_partial
        b = b_min(plant, ctrl, filt) + 1.0
        got = lower_bound_partial(plant, ctrl, filt, b)
        assert math.isclose(got, PARTIAL_AT_BMIN_PLUS_1, abs_tol=1e-9)
        want = math.log(2.0) + 0.5 * math.log1p(ctrl.M[0, 0] * filt.N[0, 0])
        assert math.isclose(got, want, abs_tol=1e-12)

    def test_decreasing(self, scalar_partial):
        plant, ctrl, filt = scalar_partial
        bmin = b_min(plant, ctrl, filt)
        grid = bmin + np.geomspace(0.05, 40.0, 20)
        vals = [lower_bound_partial(plant, ctrl, filt, b) for b in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestProjection:
    def test_default_ell_counts_unstable(self):
        plant = gaussian_plant(np.diag([2.0, 1.0, 0.3]), np.eye(3), np.eye(3),
                               np.eye(3), np.eye(3))
        assert make_projection(plant, solve_control(plant)).ell == 2

    def test_stable_plant_gives_zero_bound(self):
        plant = gaussian_plant([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        ctrl = solve_control(plant)
        assert lower_bound_projected(plant, ctrl, b_min(plant, ctrl) + 1.0) == 0.0

    @pytest.mark.parametrize("kind", ["projected", "partial_projected"])
    def test_stable_plant_refuses_unattainable_cost(self, kind):
        # ell = 0 prices no mode, but b <= b_min is still no cost to price.
        plant = gaussian_plant([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
                               c=[[1.0]], cov_w=[[1.0]])
        ctrl, filt = solve_control(plant), solve_filter(plant)
        if kind == "projected":
            bmin, one_b = b_min(plant, ctrl), lower_bound_projected
            args = (plant, ctrl)
        else:
            bmin, one_b = b_min(plant, ctrl, filt), lower_bound_partial_projected
            args = (plant, ctrl, filt)
        curve = bound_curve(kind, plant, ctrl, filt)
        for b in (0.5 * bmin, bmin):
            with pytest.raises(ValueError, match="not attainable"):
                curve(b)
            with pytest.raises(ValueError, match="not attainable"):
                one_b(*args, b)
        assert curve(2.0 * bmin) == (0.0, True)
        assert one_b(*args, 2.0 * bmin) == 0.0

    def test_ordering_invariant(self):
        plant = gaussian_plant(np.diag([0.5, 3.0, 2.0]), np.eye(3), np.eye(3),
                               np.eye(3), np.eye(3))
        ctrl = solve_control(plant)
        proj = make_projection(plant, ctrl, ell=2)
        block = proj.j.T @ plant.A @ proj.j
        kept = np.abs(np.linalg.eigvals(block[:2, :2]))
        assert set(np.round(kept, 9)) == {2.0, 3.0}
        assert np.allclose(block[:2, 2:], 0.0, atol=1e-9)

    def test_complex_pair_cannot_split(self):
        rot = 1.5 * np.array([[math.cos(1.0), -math.sin(1.0)],
                              [math.sin(1.0), math.cos(1.0)]])
        a = np.zeros((3, 3))
        a[:2, :2] = rot
        a[2, 2] = 0.5
        plant = gaussian_plant(a, np.eye(3), np.eye(3), np.eye(3), np.eye(3))
        ctrl = solve_control(plant)
        with pytest.raises(ValueError, match="complex pair|separate"):
            make_projection(plant, ctrl, ell=1)
        assert make_projection(plant, ctrl, ell=2).ell == 2

    def test_inadmissible_lam_rejected(self, scalar):
        plant, ctrl = scalar
        with pytest.raises(ValueError, match="admissible"):
            make_projection(plant, ctrl, ell=1, lam=np.array([100.0]))

    def test_lam_admissibility_is_relative_to_m_prime(self):
        # at Q = R = 1e-20, M = 3.4e-20: lam = 1e-10 exceeds M by nine
        # orders of magnitude and would price the noise 11.5 nats, against
        # the true converse of about 1 nat
        plant = gaussian_plant([[2.0]], [[1.0]], [[1e-20]], [[1e-20]], [[1.0]])
        ctrl = solve_control(plant)
        with pytest.raises(ValueError, match="admissible"):
            make_projection(plant, ctrl, ell=1, lam=np.array([1e-10]))
        make_projection(plant, ctrl, ell=1, lam=np.array([ctrl.M[0, 0]]))

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_full_ell_reduction_scalar(self, family):
        plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
                               family=family)
        ctrl = solve_control(plant)
        bmin = b_min(plant, ctrl)
        proj = make_projection(plant, ctrl, ell=1, lam=np.array([ctrl.M[0, 0]]))
        for b in (bmin + 0.2, bmin + 3.0):
            assert math.isclose(lower_bound_projected(plant, ctrl, b, proj),
                                lower_bound_full(plant, ctrl, b), rel_tol=1e-9)

    def test_full_ell_reduction_2x2(self):
        plant = gaussian_plant(np.diag([2.0, 0.5]), np.eye(2), np.eye(2),
                               np.eye(2), np.eye(2))
        ctrl = solve_control(plant)
        proj0 = make_projection(plant, ctrl, ell=2)
        m_prime = proj0.j.T @ ctrl.M @ proj0.j
        assert np.allclose(m_prime, np.diag(np.diag(m_prime)), atol=1e-10)
        proj = make_projection(plant, ctrl, ell=2, lam=np.diag(m_prime))
        b = b_min(plant, ctrl) + 1.0
        assert math.isclose(lower_bound_projected(plant, ctrl, b, proj),
                            lower_bound_full(plant, ctrl, b), rel_tol=1e-9)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([0.01, 0.5, 5.0]))
    def test_full_ell_never_exceeds_full(self, n, seed, rel):
        # At ell = n the default lam prices M by its smallest eigenvalue,
        # which is at most det(M)^(1/n); equality needs M proportional to I.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        plant = gaussian_plant(rng.standard_normal((n, n)),
                               rng.standard_normal((n, n)), np.eye(n),
                               np.eye(n), g @ g.T + 0.1 * np.eye(n))
        ctrl = solve_control(plant)
        b = b_min(plant, ctrl) * (1.0 + rel)
        full = lower_bound_full(plant, ctrl, b)
        projected = lower_bound_projected(
            plant, ctrl, b, make_projection(plant, ctrl, ell=n))
        assert projected <= full + 1e-9 * max(1.0, abs(full))

    def test_dominant_mode_asymptote(self):
        plant = gaussian_plant(np.diag([2.0, 0.5]), np.eye(2), np.eye(2),
                               np.eye(2), np.eye(2))
        ctrl = solve_control(plant)
        proj = make_projection(plant, ctrl, ell=1)
        got = lower_bound_projected(plant, ctrl, 1e9, proj)
        assert math.isclose(got, math.log(2.0), abs_tol=1e-6)


def _schur_basis(a, dropped):
    """The ordered real Schur basis of A^T, scipy's, as the oracle for
    bounds._ordered_basis: it leads with every eigenvalue above the dropped
    ones, which the tested ells (``_separated_ells``) leave a relative
    |eig| gap of 1e-2 below."""
    cut_sq = (1.005 * np.abs(dropped).max()) ** 2 if len(dropped) else -1.0
    _, z_mat, sdim = schur(
        a.T, output="real", sort=lambda re, im: re * re + im * im >= cut_sq)
    assert sdim == len(a) - len(dropped)
    return z_mat


@st.composite
def mode_plants(draw):
    """A with n <= 6: a generic Gaussian matrix, rotated Jordan blocks (size
    <= 3) at distinct real eigenvalues, or rotated complex pairs beside real
    modes; |eig| up to 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["gaussian", "jordan", "pairs"]))
    if shape == "gaussian":
        a = rng.standard_normal((n, n))
        return a * rng.uniform(0.5, 3.0) / np.abs(np.linalg.eigvals(a)).max()
    blocks, left = [], n
    while left:
        r = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        if shape == "jordan":
            size = int(rng.integers(1, min(left, 3) + 1))
            blocks.append(r * np.eye(size) + np.eye(size, k=1))
        elif left >= 2 and rng.random() < 0.6:
            th = rng.uniform(0.1, math.pi - 0.1)
            blocks.append(r * np.array([[math.cos(th), -math.sin(th)],
                                        [math.sin(th), math.cos(th)]]))
        else:
            blocks.append(np.array([[r]]))
        left -= len(blocks[-1])
    rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return rot @ block_diag(*blocks) @ rot.T


def _separated_ells(a):
    """Each ell whose cut leaves a relative |eig| gap of at least 1e-2, and
    ell = n.  Cuts inside a defective cluster, which roundoff splits by
    about 1e-8, are left out: every basis gives a roundoff-driven answer
    there."""
    mags = np.sort(np.abs(np.linalg.eigvals(a)))[::-1]
    return [ell for ell in range(1, len(a) + 1)
            if ell == len(a) or mags[ell - 1] - mags[ell] >= 1e-2 * mags[ell - 1]]


def _check_basis_against_schur(a):
    n = len(a)
    g = np.random.default_rng(0).standard_normal((n, n))
    plant = gaussian_plant(a, np.eye(n), np.eye(n), np.eye(n),
                           g @ g.T / n + 0.1 * np.eye(n),
                           c=np.eye(n) + 0.3 * g, cov_w=np.eye(n))
    ctrl, filt = solve_control(plant), solve_filter(plant)
    for ell in _separated_ells(a):
        proj = make_projection(plant, ctrl, ell=ell)
        j = proj.j
        assert np.abs(j.T @ j - np.eye(n)).max() <= 1e-12
        assert np.abs((j.T @ a @ j)[:ell, ell:]).max(initial=0.0) <= 1e-9
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_ordered_basis", _schur_basis)
            ref = make_projection(plant, ctrl, ell=ell)
        for rel in (1.0, 9.0):
            b = (1.0 + rel) * b_min(plant, ctrl)
            b_partial = (1.0 + rel) * b_min(plant, ctrl, filt)
            pairs = [(lower_bound_projected(plant, ctrl, b, p),
                      lower_bound_partial_projected(plant, ctrl, filt,
                                                    b_partial, p))
                     for p in (proj, ref)]
            for got, want in zip(*pairs):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (ell, b)


# A kept Jordan block at 1.5 in a rotated basis: an eigenvector basis of A^T
# cannot span its two-dimensional invariant subspace.
_KEPT_JORDAN = np.array([[1.5, 1.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 0.5]])


class TestModeBasis:
    @given(mode_plants())
    def test_matches_the_ordered_schur_basis(self, a):
        _check_basis_against_schur(a)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_kept_jordan_block(self, seed):
        rot = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
        _check_basis_against_schur(rot @ _KEPT_JORDAN @ rot.T)

    # Parent values of the projected bound at b = 2 b_min with B, Q, R and
    # the noise covariance all I: the basis of a diagonal A is axis-aligned,
    # as the independent-coordinate families need.
    @pytest.mark.parametrize("diag, family, want", [
        ([3.0, 2.0, 0.5], "laplace", 1.8612022541297304),
        ([3.0, 2.0, 0.5], "uniform", 1.8485105789572964),
        ([2.0, -2.5, 0.3, 1.5], "laplace", 2.15370015693188),
        ([2.0, -2.5, 0.3, 1.5], "uniform", 2.1285693585773315),
    ])
    def test_non_gaussian_diagonal_plants(self, diag, family, want):
        n = len(diag)
        plant = gaussian_plant(np.diag(diag), np.eye(n), np.eye(n), np.eye(n),
                               np.eye(n), family=family)
        ctrl = solve_control(plant)
        got = lower_bound_projected(plant, ctrl, 2.0 * b_min(plant, ctrl))
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_rotated_modes_refuse_non_gaussian_noise(self):
        a = np.array([[0.0, 2.0, 0.0], [1.5, 0.0, 0.0], [0.0, 0.0, 0.4]])
        plant = gaussian_plant(a, np.eye(3), np.eye(3), np.eye(3), np.eye(3),
                               family="laplace")
        ctrl = solve_control(plant)
        with pytest.raises(ValueError, match="axis-aligned"):
            lower_bound_projected(plant, ctrl, 2.0 * b_min(plant, ctrl))


class TestLowRankBounds:
    @pytest.mark.parametrize("case", ["scalar", "2x2", "3x3"])
    def test_square_reduction_to_full(self, case):
        if case == "scalar":
            plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        elif case == "2x2":
            plant = gaussian_plant(np.array([[2.0, 0.3], [0.0, 1.4]]), np.eye(2),
                                   np.eye(2), np.eye(2), np.eye(2))
        else:
            rng = np.random.default_rng(4)
            a = rng.standard_normal((3, 3)) + 1.5 * np.eye(3)
            plant = gaussian_plant(a, np.eye(3), np.eye(3), np.eye(3), np.eye(3))
        ctrl = solve_control(plant)
        bmin = b_min(plant, ctrl)
        for b in (bmin + 0.5, bmin + 4.0):
            res = lower_bound_lowrank(plant, ctrl, b)
            assert isinstance(res, InfimumBound)
            assert res.converged
            assert math.isclose(res.nats, lower_bound_full(plant, ctrl, b),
                                rel_tol=1e-9)

    def test_partial_square_reduction(self, scalar_partial):
        plant, ctrl, filt = scalar_partial
        b = b_min(plant, ctrl, filt) + 1.0
        res = lower_bound_partial_lowrank(plant, ctrl, filt, b)
        assert math.isclose(res.nats, lower_bound_partial(plant, ctrl, filt, b),
                            rel_tol=1e-9)

    def test_genuinely_low_rank_input(self):
        # m = 1 < n = 2: bound finite, decreasing, above the rate floor.
        a = np.array([[2.0, 1.0], [0.0, 1.2]])
        plant = gaussian_plant(a, np.array([[0.0], [1.0]]), np.eye(2), [[1.0]],
                               np.eye(2))
        ctrl = solve_control(plant)
        bmin = b_min(plant, ctrl)
        prev = math.inf
        for b in bmin + np.array([0.5, 2.0, 10.0]):
            res = lower_bound_lowrank(plant, ctrl, b)
            assert res.nats < prev
            prev = res.nats
        assert prev >= 0.0


# A mild partially observed plant (eigenvalues of A 1.30 and 0.51, det C
# about 0.006) whose L A K is ill conditioned at the first power already:
# the roundoff-floor test used to drop that term and refuse the plant.
ILL_CONDITIONED_FIRST_TERM = {
    "a": [[1.2921043580336202, 0.07808362612069346],
          [0.07808362612069346, 0.5164806168755651]],
    "b": [[-1.1008834093581745, -1.2839309512668515],
          [0.6903987629785303, 0.8156684822447944]],
    "q": [[100.0, 0.0], [0.0, 100.0]], "r": [[100.0, 0.0], [0.0, 100.0]],
    "c": [[-1.1964837519946165, 0.7692445744399047],
          [1.011684233413179, -0.6553001808522605]],
    "noise_v": {"family": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]]},
    "noise_w": {"family": "gaussian", "covariance": [[1.0, 0.0], [0.0, 1.0]]},
}


def _lowrank_outcome(slb, a, l, k, cov):
    """What one low-rank infimum computes, raises and warns: the infimum a,
    the converged flag, the weight w and the bound at three d, or the
    exception; and every warning, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            at = slb(a, l, k, cov, 1.3)
            got = inspect.getclosurevars(at).nonlocals
            outcome = (got["a_inf"], got["converged"], got["w"],
                       [at(d) for d in (1e-9, 0.37, 1e6)])
        except Exception as exc:  # compared, type and message, with the oracle
            outcome = (type(exc).__name__, str(exc))
    return repr(outcome), [(w.category, str(w.message)) for w in caught]


@st.composite
def lowrank_inputs(draw):
    """(A, L, K, Cov) with n <= 6 and 1 <= m <= kdim <= n; Cov is singular
    when its factor has fewer than kdim columns, and A at scale 1e5 has
    powers that overflow before term 64."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    kdim = draw(st.integers(1, n))
    m = draw(st.integers(1, kdim))
    a = rng.standard_normal((n, n)) * draw(st.sampled_from([0.1, 1.0, 3.0, 1e5]))
    g = rng.standard_normal((kdim, draw(st.integers(1, kdim))))
    return a, rng.standard_normal((m, n)), rng.standard_normal((n, kdim)), g @ g.T


@given(lowrank_inputs())
# nilpotent A: L A^i K is 0 from i = 2 on, terms 0.0 with no break test
@example((np.eye(3, k=1), [[1.0, 0.0, 0.0]], np.eye(3)[:, :2], np.eye(2)))
# singular Cov: log_den is -inf and every term is 0.0, with no SVD
@example((np.array([[1.2, 0.3], [0.0, 0.7]]), [[1.0, 0.0]], np.eye(2),
          np.ones((2, 2))))
# A^52 overflows (m = 1, so no break): one "overflow encountered in matmul"
@example((np.diag([1e6, 0.5]), [[1.0, 1.0]], np.eye(2), np.eye(2)))
# the 1e-5 break at i = 2; A^52 overflows after it, with no warning
@example((np.diag([1e6, 0.5]), np.eye(2), np.eye(2), np.eye(2)))
@example((np.diag([1e3, 0.5]), np.eye(2), np.eye(2), np.eye(2)))
# L A^3 K overflows after the break at i = 2: never priced, no warning
@example((np.diag([1e3, 0.5]), np.diag([1e150, 1.0]), np.diag([1e150, 1.0]),
          np.eye(2)))
# L A^3 K overflows before any break: the same warnings, then the SVD of
# NaN fails with the same LinAlgError
@example((np.diag([1e3, 0.9]), [[1e150, 1e-3]], [[1e150], [1.0]], [[1.0]]))
# L A K overflows at every odd power only: the first one fails, as before
@example((np.array([[0.0, 1e200], [1e-200, 0.0]]), [[1e150, 0.0]],
          [[1.0], [1.0]], [[1.0]]))
# ... and with a singular Cov every overflowing product still warns
@example((np.diag([1e3, 0.9]), [[1e150, 1e-3]], [[1e150, 0.0], [1.0, 0.0]],
          np.eye(2)))
# a zero singular value in the first term: "divide by zero encountered in log"
@example((np.diag([1.0, 0.0]), np.eye(2), np.eye(2), np.eye(2)))
# a non-finite A: eigvals refuses it first, so the "powers overflowed before
# the first term" error is unreachable; both raise the same LinAlgError
@example((np.array([[np.inf, 0.0], [0.0, 1.0]]), [[1.0, 0.0]], np.eye(2),
          np.eye(2)))
def test_lowrank_terms_match_the_term_loop(case):
    """The stacked low-rank infimum equals the term-by-term loop bit for bit,
    and raises and warns as it does, on every branch of that loop."""
    a, l, k, cov = (np.asarray(x, dtype=float) for x in case)
    assert (_lowrank_outcome(bounds._slb_lowrank, a, l, k, cov)
            == _lowrank_outcome(slb_lowrank, a, l, k, cov))


def test_ill_conditioned_first_lowrank_term_is_kept(tmp_path, capsys):
    from ratecost import cli
    plant = cli.plant_from_dict(ILL_CONDITIONED_FIRST_TERM)
    ctrl, filt = solve_control(plant), solve_filter(plant)
    b_grid = [b_min(plant, ctrl, filt) * (1.0 + r)
              for r in np.geomspace(0.01, 10.0, 6)]
    kinds = ["partial", "upper", "partial_projected", "partial_lowrank",
             "floor"]
    cfg = tmp_path / "plant.json"
    cfg.write_text(json.dumps({"plant": ILL_CONDITIONED_FIRST_TERM,
                               "bounds": kinds, "b_grid": b_grid}))
    out = tmp_path / "out"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
    capsys.readouterr()
    rows = json.loads((out / "bound.json").read_text())["rows"]
    assert len(rows) == len(b_grid) * len(kinds)
    assert all(r["nats"] is not None and r["note"] == "" for r in rows)
    nats = {(r["b"], r["kind"]): r["nats"] for r in rows}
    for b in b_grid:
        assert math.isclose(nats[b, "partial_lowrank"], nats[b, "partial"],
                            rel_tol=1e-9, abs_tol=1e-12)
        res = lower_bound_partial_lowrank(plant, ctrl, filt, b)
        assert res.converged
    # the exact design-distortion minimum sits near 1e-21 slack, far below
    # the old 64-point grid's floor, where upper read 4e7 nats and more
    for b in (b_grid[0], b_grid[-1]):
        assert math.isfinite(nats[b, "upper"]) and nats[b, "upper"] < 100.0


def _grid_correction(n, slack, reg, w_min, v_total, a_star, dt):
    """The smoothness correction at each design distortion of the grid dt."""
    (c0, c1), sq_a = reg, math.sqrt(a_star)
    beta = (np.sqrt(dt) / w_min) * (
        0.5 * c1 * sq_a * math.sqrt(v_total) + c0 * (2.0 + sq_a)
        + c1 * (2.0 + sq_a / 2.0) * np.sqrt(a_star * dt + v_total)
        + 2.0 * c1 * (1.0 + sq_a) * np.sqrt(dt))
    return 0.5 * n * np.log(slack / dt) + beta


@given(n=st.integers(1, 6), log_slack=st.floats(-8, 8),
       log_c0=st.floats(-3, 6), log_c1=st.floats(-3, 6),
       laplace=st.booleans(), log_w=st.floats(-9, 3),
       log_v=st.floats(-2, 4), log_a=st.floats(-2, 9))
def test_design_correction_is_the_exact_minimum(n, log_slack, log_c0, log_c1,
                                                 laplace, log_w, log_v, log_a):
    # gaussian noise has c0 = 0, laplace noise c1 = 0
    reg = (10.0 ** log_c0, 0.0) if laplace else (0.0, 10.0 ** log_c1)
    args = (n, 10.0 ** log_slack, reg, 10.0 ** log_w, 10.0 ** log_v,
            10.0 ** log_a)
    slack = args[1]
    exact = bounds._design_correction(*args)
    coarse = _grid_correction(*args, np.geomspace(1e-6 * slack, slack,
                                                  64)).min()
    # dense: 10^4 points over (1e-300 slack, slack], then 10^4 more around
    # the best of them
    dt = np.geomspace(1e-300 * slack, slack, 10_001)
    i = int(np.argmin(_grid_correction(*args, dt)))
    dense = _grid_correction(*args, np.geomspace(
        dt[max(i - 1, 0)], dt[min(i + 1, dt.size - 1)], 10_001)).min()
    assert exact <= coarse + 1e-12 * abs(coarse)
    assert exact <= dense + 1e-12 * abs(dense)
    assert dense - exact <= 1e-9 * max(1.0, abs(exact))


class TestProjectedPartial:
    def test_scalar_reduction_to_partial(self, scalar_partial):
        plant, ctrl, filt = scalar_partial
        proj = make_projection(plant, ctrl, ell=1, lam=np.array([ctrl.M[0, 0]]))
        b = b_min(plant, ctrl, filt) + 1.0
        got = lower_bound_partial_projected(plant, ctrl, filt, b, proj)
        assert math.isclose(got, lower_bound_partial(plant, ctrl, filt, b),
                            rel_tol=1e-9)


class TestEntropyCostUpper:
    def test_sandwich_and_gap_limit(self, scalar):
        plant, ctrl = scalar
        bmin = b_min(plant, ctrl)
        for slack in np.geomspace(1e-8, 20.0, 25):
            b = bmin + slack
            up = entropy_cost_upper(plant, ctrl, b)
            lo = lower_bound_full(plant, ctrl, b)
            assert up >= lo
        gap_tiny = (entropy_cost_upper(plant, ctrl, bmin + 1e-8)
                    - lower_bound_full(plant, ctrl, bmin + 1e-8))
        assert math.isclose(gap_tiny, ALPHA_1, abs_tol=1e-3)

    def test_gap_still_moderate_at_coarse_cost(self, scalar):
        plant, ctrl = scalar
        bmin = b_min(plant, ctrl)
        gap = (entropy_cost_upper(plant, ctrl, bmin + 1e-3)
               - lower_bound_full(plant, ctrl, bmin + 1e-3))
        assert ALPHA_1 - 1e-6 < gap < ALPHA_1 + 0.15

    def test_partial_variant_sandwich(self, scalar_partial):
        plant, ctrl, filt = scalar_partial
        bmin = b_min(plant, ctrl, filt)
        for slack in (1e-6, 0.1, 5.0):
            b = bmin + slack
            up = entropy_cost_upper(plant, ctrl, b, filt=filt)
            assert up >= lower_bound_partial(plant, ctrl, filt, b)

    def test_partial_plant_needs_its_filter(self, scalar_partial):
        # the coder of a partially observed plant codes the innovation, so
        # the process noise is no source for the upper bound
        plant, ctrl, filt = scalar_partial
        b = b_min(plant, ctrl, filt) + 1.0
        with pytest.raises(ValueError, match="filt is required"):
            entropy_cost_upper(plant, ctrl, b)
        low, up = sandwich_curve(plant, ctrl)(b)
        assert low == lower_bound_full(plant, ctrl, b) and math.isnan(up)
        assert sandwich_curve(plant, ctrl, filt)(b) == (
            lower_bound_partial(plant, ctrl, filt, b),
            entropy_cost_upper(plant, ctrl, b, filt=filt))

    def test_uniform_noise_unsupported(self):
        plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
                               family="uniform")
        ctrl = solve_control(plant)
        with pytest.raises(ValueError, match="regularity"):
            entropy_cost_upper(plant, ctrl, b_min(plant, ctrl) + 1.0)

    def test_laplace_supported(self):
        plant = gaussian_plant([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
                               family="laplace")
        ctrl = solve_control(plant)
        b = b_min(plant, ctrl) + 1.0
        assert entropy_cost_upper(plant, ctrl, b) > lower_bound_full(plant, ctrl, b)


def matrix_plant(seed, n, m, k=None):
    """Seeded plant with Q = R = I and unit gaussian noise: A = U diag(lam)
    U^T with |lam| spread over 1.3..0.5, B = U G and C = H U^T with entries
    of G and H of magnitude 0.7..1.3.  Partially observed (k outputs, unit
    observation noise) unless k is None."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    u = q * np.sign(np.diag(r))
    lam = ((np.linspace(1.3, 0.5, n) + rng.uniform(-0.02, 0.02, n))
           * rng.choice([-1.0, 1.0], n))

    def signed(shape):
        return rng.uniform(0.7, 1.3, shape) * rng.choice([-1.0, 1.0], shape)

    b = u @ signed((n, m))
    c = signed((k or n, n)) @ u.T  # drawn either way: a seed fixes A and B
    partial = {} if k is None else {
        "c": c, "noise_w": NoiseModel("gaussian", np.eye(k))}
    return LinearPlant(u @ np.diag(lam) @ u.T, b, np.eye(n), np.eye(m),
                       NoiseModel("gaussian", np.eye(n)), **partial)


# Values of partial, partial_projected, partial_lowrank and the partially
# observed upper bound (None: undefined, W or N singular) at b = b_min (1 +
# rel), frozen from the implementation before the full and partial kinds
# shared one body.  The upper column was frozen again when the design
# distortion's 64-point grid gave way to its exact minimum; every value fell.
FROZEN_PARTIAL = [
    ((0, 2, 2, 2), 0.1, (-0.1742969142820882, 0.27489305645223466,
                         -0.1742969142824279, 23.466826220370173)),
    ((0, 2, 2, 2), 2.0, (-0.3768176324627546, 0.272104392668672,
                         -0.3768176324631693, 26.260037775743495)),
    ((1, 2, 1, 1), 0.1, (-0.44274231707970146, 0.2565576371132282,
                         1.1932967103309808, None)),
    ((1, 2, 1, 1), 2.0, (-0.44274231707970146, 0.2565576371132282,
                         0.262310392206643, None)),
    ((2, 3, 3, 3), 0.1, (0.7482037415548546, 0.7028229927479539,
                         0.7482037415548097, 27.460248249363215)),
    ((2, 3, 3, 3), 2.0, (-0.456355365814501, 0.30079001309322406,
                         -0.45635536581460256, 30.749287552324812)),
    ((3, 3, 1, 2), 0.1, (-0.5516093690253896, 0.2504060342134742,
                         0.371660786865067, None)),
    ((3, 3, 1, 2), 2.0, (-0.5516093690253896, 0.2504060342134742,
                         0.25722047007433685, None)),
    ((4, 4, 2, 2), 0.1, (-0.6411881830931551, 0.32595076484793095,
                         1.9338256873616562, None)),
    # partial_lowrank here is the value on S and P from a 40-digit fixed
    # point: the value frozen first was 1.5e-12 relative off it
    ((4, 4, 2, 2), 2.0, (-0.6411881830931551, 0.32595076484793095,
                         -0.08614650319304523, None)),
    ((5, 4, 4, 4), 0.1, (0.3427447884749605, 0.31151822909286775,
                         0.34274478847490325, 58.266579211006665)),
    ((5, 4, 4, 4), 2.0, (-0.6270831722887783, 0.29257488452051067,
                         -0.6270831722888733, 63.288215797350894)),
]


def _partial_values(plant, ctrl, filt, b):
    try:
        upper = entropy_cost_upper(plant, ctrl, b, filt=filt)
    except ValueError:
        upper = None
    return (lower_bound_partial(plant, ctrl, filt, b),
            lower_bound_partial_projected(plant, ctrl, filt, b),
            lower_bound_partial_lowrank(plant, ctrl, filt, b).nats, upper)


class TestPartialKinds:
    """The partial kinds are the full ones on the Kalman innovation."""

    @pytest.mark.parametrize("shape, rel, want", FROZEN_PARTIAL)
    def test_frozen_matrix_plants(self, shape, rel, want):
        plant = matrix_plant(*shape)
        ctrl, filt = solve_control(plant), solve_filter(plant)
        b = b_min(plant, ctrl, filt) * (1.0 + rel)
        got = _partial_values(plant, ctrl, filt, b)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert math.isclose(g, w, rel_tol=1e-12)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(0.01, 10.0))
    def test_square_lowrank_equals_full(self, n, seed, rel):
        plant = matrix_plant(seed, n, n)
        ctrl = solve_control(plant)
        b = b_min(plant, ctrl) * (1.0 + rel)
        res = lower_bound_lowrank(plant, ctrl, b)
        assert res.converged
        assert math.isclose(res.nats, lower_bound_full(plant, ctrl, b),
                            rel_tol=1e-9, abs_tol=1e-12)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(0.01, 10.0))
    def test_square_partial_lowrank_equals_partial(self, n, seed, rel):
        plant = matrix_plant(seed, n, n, n)
        ctrl, filt = solve_control(plant), solve_filter(plant)
        b = b_min(plant, ctrl, filt) * (1.0 + rel)
        res = lower_bound_partial_lowrank(plant, ctrl, filt, b)
        assert math.isclose(res.nats, lower_bound_partial(plant, ctrl, filt, b),
                            rel_tol=1e-9, abs_tol=1e-12)

    @given(st.integers(2, 4), st.data(), st.integers(0, 2**32 - 1),
           st.floats(0.01, 10.0))
    def test_few_outputs_finite_and_below_upper(self, n, data, seed, rel):
        k = data.draw(st.integers(1, n), label="k")
        m = data.draw(st.integers(1, k), label="m")
        plant = matrix_plant(seed, n, m, k)
        ctrl, filt = solve_control(plant), solve_filter(plant)
        b = b_min(plant, ctrl, filt) * (1.0 + rel)
        _, projected, lowrank, upper = _partial_values(plant, ctrl, filt, b)
        assert math.isfinite(projected) and math.isfinite(lowrank)
        # the upper bound needs nonsingular W and N: m = k = n
        assert (upper is None) == (m < n)
        if upper is not None:
            assert max(projected, lowrank) <= upper
