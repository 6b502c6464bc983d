import pytest
from hypothesis import HealthCheck, settings

from powerdep import pipeline

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("default")


def blas_threads(controls=None):
    """Thread count of each OpenBLAS the pipeline reaches."""
    return tuple(get() for get, _ in controls or pipeline._openblas_controls())


@pytest.fixture
def two_blas_threads():
    """Every reachable OpenBLAS on two threads for the test, then as before."""
    controls = pipeline._openblas_controls()
    before = blas_threads(controls)
    if not before:
        pytest.skip("no reachable OpenBLAS")
    for _, set_ in controls:
        set_(2)
    yield (2,) * len(before)
    for (_, set_), count in zip(controls, before):
        set_(count)
