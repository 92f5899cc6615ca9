import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ratecost.bounds import rho_covering
from ratecost.quantizer import (
    DECODE_RANGE,
    TOO_FAR,
    DpcmCodec,
    EntropyEstimate,
    _row_counts,
    a_star_lattice,
    empirical_entropy,
    integer_lattice,
    lattice_for_dimension,
)

HAND_ENTROPY_QUARTER = 0.5623351446188083  # -(0.25 ln 0.25 + 0.75 ln 0.75)

# Integer index the tie rule picks for the deep hole h of A_n*, for p + h
# and for p - h, where p is the lattice point with index (1, -2, 3, ...).
# Each input is an (n+1)-way tie; the values are frozen from the batched
# coset decoder this one-vector decoder replaced.
DEEP_HOLE_PICKS = {
    2: ([0, 0], [1, -1], [0, -2]),
    3: ([0, 0, 0], [1, -2, 3], [1, -2, 3]),
    4: ([0, 0, 0, 0], [1, -2, 3, -4], [1, -2, 3, -4]),
    5: ([0, 0, 0, 0, 0], [1, -2, 3, -4, 6], [0, -2, 3, -4, 5]),
    6: ([0] * 6, [1, -2, 3, -4, 5, -5], [0, -2, 3, -4, 5, -6]),
    7: ([0] * 7, [1, -2, 3, -4, 5, -6, 7], [1, -2, 3, -4, 5, -6, 7]),
    8: ([0] * 8, [1, -2, 3, -4, 5, -6, 7, -8], [1, -2, 3, -4, 5, -6, 7, -8]),
}


# sha256 of ``nearest`` on ``decode_set(n)``, frozen from the coset decoder
# that still repaired the sum defect of every coset.
DECODE_SHA256 = {
    2: "8c7bbeffc6ecbe0eb95c2c0965a937241350023d62d52d8bd2cc0617e67e2a48",
    3: "fb55a53d3f9cf1e12900c0221a21714c1725c7d583b235bab7b453fff286ecf5",
    4: "b4fd20c0050b31d492dd61b4059a1bd2850c865cee69852b746b48708fbbc6fd",
    5: "4b689f3a2a47fb58b503447fc78d1a075a5168e407914ff3ca71687137581c8b",
    6: "c521b4708b1b40cc4f1f40c66a8a106d7f23c0313fdbe2af204610fb9da99dc2",
    7: "49216ea5ae88e63f5be90761d5618a980f1839bfe188c4ab8a9ffaa77fd5998d",
    8: "83948c7f19402b6141e542b7e21d5eaea586173312bc61072433fbf430965479",
}


def deep_hole(lat):
    n = lat.n
    return ((n / 2.0 - np.arange(n + 1)) / (n + 1.0)) @ lat.lift.T


def decode_set(n):
    """A scaled A_n* and 1000 seeded inputs: Gaussian points at three
    scales, lattice points, midpoints between lattice points and neighbours,
    and lattice points plus permuted deep holes (each an (n+1)-way tie)."""
    lat = a_star_lattice(n).scale_to_distortion(0.7)
    rng = np.random.default_rng(500 + n)
    z = rng.integers(-50, 51, size=(100, n))
    on = lat.point_of(z)
    unit = lat.point_of(np.eye(n, dtype=np.int64))
    mid = on + unit[rng.integers(0, n, size=100)] / 2.0
    hole = (n / 2.0 - np.array([rng.permutation(n + 1) for _ in range(100)])
            ) / (n + 1.0) @ lat.lift.T * lat.scale + on
    pts = np.concatenate([rng.normal(size=(300, n)) * 3.0,
                          rng.normal(size=(100, n)) * 1e6,
                          rng.normal(size=(100, n)) * 1e-8,
                          on, (on + on[::-1]) / 2.0, mid, hole])
    return lat, pts


@st.composite
def decode_batches(draw):
    """An A_n* and a batch of rows, each at its own scale in 1e-8..1e8:
    Gaussian points, lattice points plus permuted deep holes (ties), rows
    whose largest lifted coordinate is within four ulps of DECODE_RANGE or
    a tenth to 100 times it, rows whose scaled value overflows, and rows
    with non-finite values in any of their coordinates."""
    n = draw(st.integers(2, 8))
    kinds = draw(st.lists(st.sampled_from(
        ["gauss", "hole", "far", "overflow", "nonfinite"]),
        min_size=2, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lat = a_star_lattice(n)
    scales = 10.0 ** rng.uniform(-8.0, 8.0, size=len(kinds))
    rows = []
    for kind, t in zip(kinds, scales):
        unit = rng.normal(size=n)
        if kind == "hole":
            perm = n / 2.0 - rng.permutation(n + 1)
            on = lat.point_of(rng.integers(-50, 51, size=n))
            unit = perm / (n + 1.0) @ lat.lift.T + on
        elif kind == "far":
            edge = rng.choice([1.0 + rng.integers(-4, 5) * 2.0 ** -52,
                               10.0 ** rng.uniform(-1.0, 2.0)])
            unit *= edge * DECODE_RANGE / np.abs(unit @ lat.lift).max()
        elif kind == "nonfinite":
            bad = rng.random(n) < 0.5
            bad[rng.integers(n)] = True
            unit[bad] = rng.choice([math.nan, math.inf, -math.inf],
                                   size=bad.sum())
        # x / t overflows once t < 1e-3 or so
        rows.append(unit * 1e305 if kind == "overflow" else unit * t)
    return lat, np.array(rows), scales


class TestIntegerLattice:
    def test_rounding(self):
        lat = integer_lattice()
        assert lat.nearest(np.array([0.4]))[0] == 0.0
        assert lat.nearest(np.array([-1.4]))[0] == -1.0

    def test_half_ties_go_even(self):
        lat = integer_lattice()
        assert lat.nearest(np.array([0.5]))[0] == 0.0
        assert lat.nearest(np.array([1.5]))[0] == 2.0
        assert lat.nearest(np.array([-0.5]))[0] == 0.0

    def test_geometry(self):
        lat = integer_lattice()
        assert lat.covering_radius == 0.5
        assert lat.cell_volume == 1.0
        assert math.isclose(lat.rho, 1.0, rel_tol=1e-12)

    def test_scale_to_distortion(self):
        lat = integer_lattice().scale_to_distortion(0.25)
        assert math.isclose(lat.covering_radius, 0.5, rel_tol=1e-12)
        assert math.isclose(lat.scale, 1.0, rel_tol=1e-12)  # cell width 1
        lat2 = integer_lattice().scale_to_distortion(1.0)
        assert math.isclose(lat2.covering_radius ** 2, 1.0, rel_tol=1e-12)
        assert math.isclose(lat2.rho, lat.rho, rel_tol=1e-12)


class TestAStarLattice:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_cell_volume(self, n):
        lat = a_star_lattice(n)
        assert math.isclose(lat.cell_volume, 1.0 / math.sqrt(n + 1.0),
                            rel_tol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rho_matches_closed_form(self, n):
        assert math.isclose(a_star_lattice(n).rho, rho_covering(n),
                            rel_tol=1e-12)

    def test_rho_at_least_one(self):
        for n in range(2, 9):
            assert a_star_lattice(n).rho >= 1.0

    def test_dimension_menu(self):
        assert lattice_for_dimension(1).family == "integer_Z"
        assert lattice_for_dimension(4).family == "a_n_star"
        with pytest.raises(ValueError):
            a_star_lattice(9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_deep_hole_attains_covering_radius(self, n):
        # Voronoi-cell vertex: the permutohedron corner at
        # (n/2, n/2-1, ..., -n/2) / (n+1) in hyperplane coordinates.
        lat = a_star_lattice(n)
        hole = deep_hole(lat)
        dist = np.linalg.norm(hole - lat.nearest(hole))
        assert math.isclose(dist, lat.covering_radius, abs_tol=1e-9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_deep_hole_tie_pick_is_frozen(self, n):
        lat = a_star_lattice(n)
        hole = deep_hole(lat)
        shift = lat.point_of(np.arange(1, n + 1) * (-1) ** np.arange(n))
        picks = [lat.index_of(lat.nearest(x)).tolist()
                 for x in (hole, hole + shift, shift - hole)]
        assert picks == list(DEEP_HOLE_PICKS[n])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_decode_is_frozen(self, n):
        lat, pts = decode_set(n)
        digest = hashlib.sha256(lat.nearest(pts).tobytes()).hexdigest()
        assert digest == DECODE_SHA256[n]

    @given(st.integers(2, 8).flatmap(lambda n: st.lists(
        st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    def test_cosets_with_a_sum_defect_lose(self, x):
        # Rounding y = hyper - g_c to r with k = sum(r) != 0: every integer
        # vector of sum zero is at >= |y - r|^2, which exceeds the decoded
        # distance by at least 1/(n+1), so no repair of that coset can win.
        n = len(x)
        lat = a_star_lattice(n)
        hyper = np.array(x) @ lat.lift
        best = np.sum((hyper - lat.nearest(np.array(x)) @ lat.lift) ** 2)
        for c in range(n + 1):
            y = hyper - (c / (n + 1.0) - (np.arange(n + 1) >= n + 1 - c))
            r = np.round(y)
            if r.sum() != 0:
                assert np.sum((y - r) ** 2) >= best + 1.0 / (n + 1) - 1e-3

    def test_far_point_is_refused(self):
        # At 1e17 a double has no fractional part, the lift's rounding
        # leaves the hyperplane, and this point has no coset that rounds to
        # sum zero; the repairing decoder returned a point 35 covering radii
        # away.
        x = np.random.default_rng(2).normal(size=2) * 1e17
        with pytest.raises(ValueError, match="double precision"):
            a_star_lattice(2).nearest(x)

    def test_overflowing_point_is_refused_without_a_warning(self):
        # x / t overflows to inf, the lift turns it into NaN, and numpy's
        # product used to warn on stderr before the decode refused it
        lat = a_star_lattice(2).scale_to_distortion(1e-318)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="double precision"):
                lat.nearest([1e300, 1e300])

    @given(st.integers(2, 8), st.floats(-300.0, 300.0),
           st.one_of(st.builds(lambda k, sign: sign * DECODE_RANGE
                               * (1.0 + k * 2.0 ** -52),
                               st.integers(-4, 4), st.sampled_from([-1, 1])),
                     st.sampled_from([math.inf, -math.inf, math.nan]),
                     st.floats(-1e3, 1e3), st.floats()),
           st.integers(0, 2**32 - 1))
    def test_nearest_refuses_as_the_integers_do(self, n, log_scale, v, seed):
        # One range rule on both lattices: a point is refused, alone or in
        # a batch, exactly when a unit coordinate the decoder rounds (x / t,
        # lifted on A_n*) is not finite or not below DECODE_RANGE.  A_n*
        # may also refuse a point whose lift leaves no zero-sum coset.
        t = 10.0 ** log_scale
        rng = np.random.default_rng(seed)
        star = dataclasses.replace(a_star_lattice(n), scale=t)
        y = rng.normal(size=n + 1)
        y -= y.mean()
        j, k = rng.choice(n + 1, size=2, replace=False)
        with np.errstate(all="ignore"):
            y[j] += v
            y[k] -= v
            cases = [(dataclasses.replace(integer_lattice(), scale=t),
                      np.array([v * t])), (star, y @ star.lift.T * t)]
            for lat, x in cases:
                unit = x / t if lat.lift is None else (x / t)[None] @ lat.lift
                outside = not np.all(np.abs(unit) < DECODE_RANGE)
                try:
                    lat.nearest(x)
                    err = None
                except ValueError as exc:
                    err = str(exc)
                if outside:
                    assert err == TOO_FAR
                else:
                    assert err is None or (lat is star
                                           and "no glue coset" in err)
                batch = np.stack([np.full(lat.n, t), x])
                if err is None:
                    assert lat.nearest(batch)[1].tobytes() == \
                        lat.nearest(x).tobytes()
                else:
                    with pytest.raises(ValueError, match="double precision"):
                        lat.nearest(batch)

    def test_far_tie_is_decided_without_a_cast(self):
        # Two zero-sum candidates whose basis coordinates, the consecutive
        # differences, pass int64: a key solved in floats and cast to int64
        # warned here.  Both sums are even, so the lexicographic order picks.
        lat = a_star_lattice(3)
        near = [3e19, 3e19, 3e19, -9e19]
        far = [3e19 + 4096, 3e19, 3e19, -9e19 - 4096]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lat._break_tie([near, far]) == near
            assert lat._break_tie([far, near]) == near

    @pytest.mark.parametrize("n", range(2, 9))
    def test_batch_equals_row_by_row(self, n):
        lat = a_star_lattice(n).scale_to_distortion(1.7)
        rng = np.random.default_rng(40 + n)
        pts = rng.normal(size=(400, n)) * 5.0
        rows = np.array([lat.nearest(x) for x in pts])
        assert lat.nearest(pts).tobytes() == rows.tobytes()

    @given(decode_batches())
    def test_batched_decode_equals_the_one_vector_decode(self, batch):
        lat, x, scales = batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, ok = lat._nearest_rows(x, scales)
        for row, t, got, good in zip(x, scales, out, ok):
            try:
                with np.errstate(all="ignore"):
                    ref = dataclasses.replace(lat, scale=t)._nearest_one(
                        row.tolist())
            except ValueError:
                assert not good
            else:
                assert good
                assert got.tobytes() == np.array(ref).tobytes()
        # nearest on the finite rows at one scale: the row loop's bits, or
        # the error of its first bad row
        lat = dataclasses.replace(lat, scale=scales[0])
        finite = x[np.isfinite(x).all(axis=1)]
        try:
            with np.errstate(all="ignore"):
                expect = np.array([lat._nearest_one(r)
                                   for r in finite.tolist()])
        except ValueError:
            with pytest.raises(ValueError):
                lat.nearest(finite)
        else:
            assert lat.nearest(finite).tobytes() == expect.tobytes()

    @given(st.integers(2, 8).flatmap(lambda n: st.lists(
               st.floats(-100.0, 100.0), min_size=n, max_size=n)),
           st.floats(1e-3, 1e3))
    def test_nearest_within_covering_radius(self, x, d):
        lat = a_star_lattice(len(x)).scale_to_distortion(d)
        p = lat.nearest(np.array(x))
        assert np.linalg.norm(np.array(x) - p) <= lat.covering_radius + 1e-12
        lat.index_of(p)  # raises unless p is a lattice point

    @pytest.mark.parametrize("n", [2, 3])
    def test_nearest_agrees_with_brute_force(self, n):
        lat = a_star_lattice(n)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2.0, 2.0, size=(300, n))
        dec = lat.nearest(pts)
        base = lat.index_of(dec)
        offsets = np.array(np.meshgrid(*[np.arange(-2, 3)] * n)).reshape(n, -1).T
        for x, d, z in zip(pts, dec, base):
            cand = lat.point_of(z[None] + offsets)
            best = np.min(np.linalg.norm(cand - x, axis=1))
            assert np.linalg.norm(x - d) <= best + 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_covering_property(self, n):
        lat = lattice_for_dimension(n).scale_to_distortion(0.7)
        rng = np.random.default_rng(n)
        frac = rng.uniform(0.0, 1.0, size=(100_000, n))
        pts = frac @ lat.basis.T
        err = np.linalg.norm(pts - lat.nearest(pts), axis=1)
        assert np.max(err) <= lat.covering_radius + 1e-12

    def test_index_round_trip(self):
        lat = a_star_lattice(3).scale_to_distortion(2.0)
        rng = np.random.default_rng(11)
        z = rng.integers(-5, 6, size=(200, 3))
        pts = lat.point_of(z)
        assert np.array_equal(lat.index_of(pts), z)
        assert np.allclose(lat.point_of(lat.index_of(pts)), pts, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_index_round_trip_at_large_coordinates(self, n):
        lat = lattice_for_dimension(n).scale_to_distortion(2.0)
        rng = np.random.default_rng(60 + n)
        z = rng.integers(-10**7, 10**7 + 1, size=(200, n))
        assert np.array_equal(lat.index_of(lat.point_of(z)), z)

    @given(st.integers(1, 8), st.floats(-6.0, 6.0), st.integers(0, 9),
           st.integers(0, 2**32 - 1))
    @example(8, 6.0, 9, 1)
    @example(8, -6.0, 9, 2)
    def test_index_matches_the_solve_form(self, n, log_scale, span, seed):
        # the basis inverse, taken once, gives the integers a solve gives
        lat = lattice_for_dimension(n).scale_to_distortion(
            (10.0 ** log_scale) ** 2)
        z = np.random.default_rng(seed).integers(-10**span, 10**span,
                                                 size=(50, n), endpoint=True)
        pts = lat.point_of(z)
        solved = np.rint(np.linalg.solve(lat.base_basis,
                                         (pts / lat.scale).T).T)
        assert np.array_equal(lat.index_of(pts), z)
        assert np.array_equal(solved.astype(np.int64), z)

    def test_index_rejects_non_lattice_points(self):
        lat = a_star_lattice(2)
        with pytest.raises(ValueError, match="not lattice"):
            lat.index_of(np.array([0.3, 0.4]))

    def test_index_rejects_off_lattice_points_at_large_coordinates(self):
        # a relative tolerance of 1e-5 used to accept the first pair, and
        # one of 1e-9 the second
        lat = a_star_lattice(2)
        for lattice, point in [
            (integer_lattice(), [100000.4]),
            (lat, lat.point_of([300000, -200000]) + 0.3),
            (integer_lattice(), [[2e10 + 0.5]]),
            (lat, lat.point_of([10**10, -10**10]) + 0.3),
        ]:
            with pytest.raises(ValueError, match="not lattice"):
                lattice.index_of(point)

    def test_index_beyond_int64_is_refused(self):
        # both used to cast past int64 with only a numpy RuntimeWarning
        fine = integer_lattice().scale_to_distortion(1e-318)
        with pytest.raises(ValueError, match="int64 at cell scale 2e-159"):
            fine.index_of([2.0 ** 70 * fine.scale])
        lat = a_star_lattice(2)
        with pytest.raises(ValueError, match="int64 at cell scale 1:"):
            lat.index_of(lat.point_of([2**61, -2**61]) * 8.0)

    def test_decoded_points_are_lattice_points(self):
        lat = a_star_lattice(4)
        rng = np.random.default_rng(3)
        dec = lat.nearest(rng.normal(size=(500, 4)) * 3.0)
        lat.index_of(dec)  # raises if the coset decode left the lattice


class TestDpcmCodec:
    def test_hand_traced_step(self):
        lat = integer_lattice()  # cell width 1
        codec = DpcmCodec(lat, np.eye(1), np.eye(1))
        index, corr = codec.encode_step(np.array([0.4]))
        assert tuple(index) == (0,)
        assert codec.s_hat[0] == 0.0
        assert corr[0] == 0.0

    def test_noiseless_loop_emits_origin(self):
        lat = integer_lattice().scale_to_distortion(0.1)
        a = np.array([[2.0]])
        codec = DpcmCodec(lat, np.eye(1), a, s0=np.array([0.7]))
        s = np.array([0.7])
        for _ in range(50):
            s = a @ s
            index, _ = codec.encode_step(s)
            assert tuple(index) == (0,)
            assert np.allclose(codec.s_hat, s)

    def test_weighted_distortion_guarantee(self):
        d = 0.3
        w = np.array([[4.0]])
        a = np.array([[0.9]])
        lat = integer_lattice().scale_to_distortion(d)
        codec = DpcmCodec(lat, w, a)
        rng = np.random.default_rng(0)
        s = np.zeros(1)
        for _ in range(2000):
            s = a @ s + rng.normal(size=1)
            codec.encode_step(s)
            err = s - codec.s_hat
            assert err @ w @ err <= d + 1e-12

    def test_encoder_decoder_synchronism(self):
        n = 2
        d = 0.5
        a = np.array([[0.8, 0.4], [0.0, 0.7]])
        b = np.array([[0.0], [1.0]])
        w = np.array([[2.0, 0.3], [0.3, 1.0]])
        lat = a_star_lattice(n).scale_to_distortion(d)
        enc = DpcmCodec(lat, w, a, b_mat=b)
        dec = DpcmCodec(lat, w, a, b_mat=b)
        rng = np.random.default_rng(12)
        s = np.zeros(n)
        u = np.zeros(1)
        steps = 100_000
        for i in range(steps):
            s = a @ s + b @ u + 0.3 * rng.normal(size=n)
            index, _ = enc.encode_step(s, u_prev=u)
            dec.decode_step(index, u_prev=u)
            u = np.array([-0.4 * dec.s_hat[1]])
            if i % 20_000 == 0:
                assert enc.state_digest() == dec.state_digest()
        assert enc.state_digest() == dec.state_digest()
        assert enc.step == dec.step == steps

    def test_desync_detected_by_digest(self):
        lat = integer_lattice()
        enc = DpcmCodec(lat, np.eye(1), np.eye(1))
        dec = DpcmCodec(lat, np.eye(1), np.eye(1))
        index, _ = enc.encode_step(np.array([3.2]))
        dec.decode_step(index)
        assert enc.state_digest() == dec.state_digest()
        dec.s_hat = dec.s_hat + 1e-9
        assert enc.state_digest() != dec.state_digest()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            DpcmCodec(integer_lattice(), np.eye(2), np.eye(2))


class TestEmpiricalEntropy:
    def test_constant_stream(self):
        est = empirical_entropy(np.zeros(5000, dtype=np.int64))
        assert est.plug_in == 0.0
        assert est.support == 1

    def test_uniform_four_symbols(self):
        rng = np.random.default_rng(21)
        est = empirical_entropy(rng.integers(0, 4, size=1_000_000))
        assert abs(est.plug_in - math.log(4.0)) < 0.01
        assert est.support == 4

    def test_hand_computed_binary(self):
        rng = np.random.default_rng(8)
        data = (rng.uniform(size=200_000) < 0.75).astype(np.int64)
        est = empirical_entropy(data)
        assert abs(est.plug_in - HAND_ENTROPY_QUARTER) < 0.01

    def test_within_three_standard_errors(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        rng = np.random.default_rng(33)
        n = 50_000
        draws = rng.choice(4, size=n, p=p)
        est = empirical_entropy(draws)
        truth = float(-(p * np.log(p)).sum())
        se = math.sqrt(float(np.var(-np.log(p[draws]))) / n)
        assert abs(est.plug_in - truth) <= 3.0 * se + (4 - 1) / (2.0 * n)

    def test_miller_madow_exceeds_plug_in(self):
        rng = np.random.default_rng(2)
        est = empirical_entropy(rng.integers(0, 10, size=2000))
        assert est.miller_madow > est.plug_in

    @given(st.integers(1, 4), st.integers(0, 40), st.integers(1, 30),
           st.integers(0, 500), st.integers(0, 2**32 - 1))
    def test_counts_match_unique_rows(self, n, span_bits, atoms, burn_in,
                                      seed):
        # rows drawn from a few distinct values in [-2^span, 2^span], so
        # that counts repeat; compared with the np.unique(axis=0) counts
        rng = np.random.default_rng(seed)
        values = rng.integers(-2**span_bits, 2**span_bits, size=atoms,
                              endpoint=True)
        data = values[rng.integers(0, atoms, size=(1200 + burn_in, n))]
        _, counts = np.unique(data[burn_in:], axis=0, return_counts=True)
        p = counts / counts.sum()
        plug_in = float(-(p * np.log(p)).sum())
        samples = 1200
        expect = EntropyEstimate(plug_in,
                                 plug_in + (len(counts) - 1) / (2.0 * samples),
                                 len(counts), samples)
        assert empirical_entropy(data, burn_in=burn_in) == expect

    @given(st.integers(0, 62), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @example(62, 6, 0)
    def test_one_column_sort_matches_lexsort(self, span_bits, atoms, seed):
        # one column is counted from np.sort, more from a lexsort; a column
        # of zeros beside it must not change the counts, near +-2^62 too
        rng = np.random.default_rng(seed)
        values = rng.integers(-2**span_bits, 2**span_bits, size=atoms,
                              endpoint=True)
        if span_bits == 62:
            values[:2] = [2**62 - 1, -2**62]
        data = values[rng.integers(0, atoms, size=(1500, 1))]
        counts = _row_counts(data)
        wide = _row_counts(np.column_stack([data, np.zeros_like(data)]))
        assert np.array_equal(counts, wide)
        assert np.array_equal(
            counts, np.unique(data, axis=0, return_counts=True)[1])

    def test_burn_in_and_length_guard(self):
        data = np.zeros(1500, dtype=np.int64)
        with pytest.raises(ValueError, match="samples"):
            empirical_entropy(data, burn_in=1000)
        est = empirical_entropy(data, burn_in=100)
        assert est.samples == 1400
