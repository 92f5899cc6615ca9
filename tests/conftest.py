import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ratecost.sysmodel import LinearPlant, NoiseModel

# One derandomized profile for every property test, so tier-1 runs the same
# examples each time.
settings.register_profile("ratecost", max_examples=20, deadline=None,
                          derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ratecost")


@pytest.fixture
def large_cost_plant():
    """A 6-state, 3-input plant at cost scale 1e3 with ||S||_F about 1.6e4.
    Its Riccati iterates round by more than 1e-12 absolute, so only a
    relative stop converges, and ||A||_F^2 = 14.5 lifts the value step's
    rounding floor 8 u ||A||_F^2 = 1.3e-14 above REL_TOL."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    a *= 1.2 / np.abs(np.linalg.eigvals(a)).max()
    b = rng.standard_normal((6, 3))
    return LinearPlant(a, b, 1e3 * np.eye(6), 1e3 * np.eye(3),
                       NoiseModel("gaussian", np.eye(6)))
