import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import svlab.experiments

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# A longer run of the same properties, selected with --hypothesis-profile=deep.
settings.register_profile(
    "deep",
    deadline=None,
    max_examples=500,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _no_kept_pool():
    """Join any pool a test's pooled sweeps kept, so idle workers do not outlive the test."""
    yield
    svlab.experiments._drop_pool()


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    while np.linalg.norm(v) < 1e-6:
        v = rng.standard_normal(n)
    return v / np.linalg.norm(v)
