import math

import numpy as np
import pytest

from ratecost.sysmodel import (
    TWO_PI_E,
    LinearPlant,
    NoiseModel,
    controllability_matrix,
    numerical_rank,
    validate,
)

# Unit-variance scalar entropy powers, frozen from the closed forms:
#   gaussian -> 1, laplace -> e/pi, uniform -> 12/(2*pi*e).
EP_LAPLACE_UNIT = 0.8652559794322651
EP_UNIFORM_UNIT = 12.0 / TWO_PI_E


def scalar_plant(a=2.0, family="gaussian", var=1.0):
    noise = NoiseModel(family, [[var]])
    return LinearPlant([[a]], [[1.0]], [[1.0]], [[1.0]], noise)


class TestNoiseModel:
    def test_gaussian_unit_entropy_power(self):
        n = NoiseModel("gaussian", [[1.0]])
        assert math.isclose(n.entropy_power, 1.0, rel_tol=1e-12)
        assert math.isclose(n.differential_entropy, 0.5 * math.log(TWO_PI_E), rel_tol=1e-12)

    def test_laplace_unit_entropy_power(self):
        n = NoiseModel("laplace", [[1.0]])
        assert math.isclose(n.entropy_power, EP_LAPLACE_UNIT, rel_tol=1e-12)
        assert math.isclose(n.entropy_power, math.e / math.pi, rel_tol=1e-12)

    def test_uniform_unit_entropy_power(self):
        n = NoiseModel("uniform", [[1.0]])
        assert math.isclose(n.entropy_power, EP_UNIFORM_UNIT, rel_tol=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "uniform"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entropy_power_inequalities(self, family, seed):
        # N(X) <= det(Sigma)^(1/n) <= Var(X)/n on randomized covariances.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        if family == "gaussian":
            g = rng.standard_normal((n, n))
            cov = g @ g.T + 0.1 * np.eye(n)
        else:
            cov = np.diag(rng.uniform(0.2, 3.0, size=n))
        model = NoiseModel(family, cov)
        det_term = float(np.linalg.det(cov)) ** (1.0 / n)
        assert model.entropy_power <= det_term * (1 + 1e-12)
        assert det_term <= model.variance / n + 1e-12
        if family == "gaussian":
            assert math.isclose(model.entropy_power, det_term, rel_tol=1e-12)

    def test_entropy_power_white_equality(self):
        cov = 1.7 * np.eye(3)
        model = NoiseModel("gaussian", cov)
        assert math.isclose(model.entropy_power, model.variance / 3, rel_tol=1e-12)

    def test_gaussian_regularity(self):
        cov = np.diag([2.0, 0.5])
        c0, c1 = NoiseModel("gaussian", cov).regularity
        assert c0 == 0.0
        assert math.isclose(c1, 3.0 / 0.5, rel_tol=1e-12)

    def test_laplace_regularity_scalar(self):
        # Unit variance -> scale 1/sqrt(2) -> (c0, c1) = (sqrt(2), 0).
        c0, c1 = NoiseModel("laplace", [[1.0]]).regularity
        assert math.isclose(c0, math.sqrt(2.0), rel_tol=1e-12)
        assert c1 == 0.0

    def test_uniform_regularity_unknown(self):
        assert NoiseModel("uniform", [[1.0]]).regularity is None

    @pytest.mark.parametrize("family", ["gaussian", "laplace", "uniform"])
    def test_sampler_zero_mean_and_covariance(self, family):
        cov = np.diag([1.0, 4.0])
        model = NoiseModel(family, cov)
        draws = model.sample(np.random.default_rng(7), 1_000_000)
        sd = np.sqrt(np.diag(cov))
        assert np.all(np.abs(draws.mean(axis=0)) < 4.0 * sd / 1000.0)
        emp = np.cov(draws.T)
        assert np.allclose(np.diag(emp), np.diag(cov), rtol=2e-2)
        assert abs(emp[0, 1]) < 2e-2

    def test_gaussian_cross_covariance_sampling(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        draws = NoiseModel("gaussian", cov).sample(np.random.default_rng(3), 500_000)
        assert np.allclose(np.cov(draws.T), cov, atol=2e-2)

    def test_projected_entropy_power_gaussian(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        model = NoiseModel("gaussian", cov)
        t = np.array([[1.0, 1.0]])
        expected = (t @ cov @ t.T).item()
        assert math.isclose(model.projected_entropy_power(t), expected, rel_tol=1e-12)

    def test_projected_entropy_power_axis_selection(self):
        model = NoiseModel("laplace", np.diag([1.0, 9.0]))
        got = model.projected_entropy_power(np.array([[0.0, 2.0]]))
        # h(2 X_2) = h(X_2) + ln 2, variance 9 scales entropy power by 9.
        assert math.isclose(got, 4.0 * 9.0 * EP_LAPLACE_UNIT, rel_tol=1e-12)

    def test_projected_entropy_power_rejects_mixing_rows(self):
        model = NoiseModel("laplace", np.diag([1.0, 1.0]))
        with pytest.raises(ValueError):
            model.projected_entropy_power(np.array([[1.0, 1.0]]))

    def test_family_validation(self):
        with pytest.raises(ValueError):
            NoiseModel("cauchy", [[1.0]])
        with pytest.raises(ValueError):
            NoiseModel("laplace", [[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(ValueError):
            NoiseModel("gaussian", [[1.0, 2.0], [2.0, 1.0]])  # indefinite


class TestLinearPlant:
    def test_fully_observed_flag(self):
        plant = scalar_plant()
        assert plant.fully_observed
        noisy = LinearPlant(
            [[2.0]], [[1.0]], [[1.0]], [[1.0]],
            NoiseModel("gaussian", [[1.0]]),
            c=[[1.0]],
            noise_w=NoiseModel("gaussian", [[1.0]]),
        )
        assert not noisy.fully_observed

    def test_dimension_mismatch_rejected(self):
        v = NoiseModel("gaussian", np.eye(2))
        with pytest.raises(ValueError, match="B has"):
            LinearPlant(np.eye(2), np.ones((3, 1)), np.eye(2), [[1.0]], v)
        with pytest.raises(ValueError, match="noise_v"):
            LinearPlant(np.eye(2), np.ones((2, 1)), np.eye(2), [[1.0]],
                        NoiseModel("gaussian", [[1.0]]))

    @pytest.mark.parametrize("key", ["q", "r"])
    def test_indefinite_weight_rejected_at_any_scale(self, key):
        v = NoiseModel("gaussian", np.eye(2))
        weights = {"q": np.eye(2), "r": np.eye(2)}
        for scale in (1e-20, 1.0, 1e20):
            weights[key] = scale * np.diag([1.0, -1e-6])
            with pytest.raises(ValueError, match=f"{key.upper()} must be "
                               "positive semidefinite"):
                LinearPlant(np.eye(2), np.eye(2), weights["q"], weights["r"],
                            v)
        # the zero matrix and a singular PSD weight are accepted
        weights[key] = np.zeros((2, 2))
        LinearPlant(np.eye(2), np.eye(2), weights["q"], weights["r"], v)
        weights[key] = 1e-20 * np.diag([1.0, 0.0])
        LinearPlant(np.eye(2), np.eye(2), weights["q"], weights["r"], v)

    def test_indefinite_covariance_rejected_at_any_scale(self):
        for scale in (1e-20, 1.0, 1e20):
            with pytest.raises(ValueError, match="covariance must be positive"):
                NoiseModel("gaussian", scale * np.diag([1.0, -1e-6]))
        NoiseModel("gaussian", np.zeros((2, 2)))

    def test_obs_cov_default_zero(self):
        plant = scalar_plant()
        assert np.array_equal(plant.obs_cov, [[0.0]])


class TestValidate:
    def test_controllable_observable(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([[0.0], [1.0]])
        plant = LinearPlant(a, b, np.eye(2), [[1.0]], NoiseModel("gaussian", np.eye(2)))
        report = validate(plant)
        assert report.ok
        assert report.controllability_rank == 2

    def test_uncontrollable_reported(self):
        a = np.diag([1.0, 1.0])
        b = np.array([[1.0], [0.0]])
        plant = LinearPlant(a, b, np.eye(2), [[1.0]], NoiseModel("gaussian", np.eye(2)))
        report = validate(plant)
        assert not report.controllable
        assert any("not controllable" in m for m in report.messages)

    def test_unobservable_reported(self):
        a = np.diag([2.0, 0.5])
        b = np.eye(2)
        c = np.array([[1.0, 0.0]])
        plant = LinearPlant(a, b, np.eye(2), np.eye(2), NoiseModel("gaussian", np.eye(2)),
                            c=c, noise_w=NoiseModel("gaussian", [[1.0]]))
        report = validate(plant)
        assert not report.observable

    def test_rank_threshold_scales_with_magnitude(self):
        # A tiny-but-honest column must still count toward the rank.
        mat = np.array([[1.0, 0.0], [0.0, 1e-6]])
        assert numerical_rank(mat) == 2
        assert numerical_rank(np.array([[1.0, 0.0], [0.0, 1e-12]])) == 1

    def test_controllability_matrix_shape(self):
        a = np.eye(3)
        b = np.ones((3, 2))
        assert controllability_matrix(a, b).shape == (3, 6)
