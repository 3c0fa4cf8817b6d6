import tracemalloc

import numpy as np
import pytest

from subordlab import catalog
from subordlab.dickman import make_dickman
from subordlab.simulate import sample_cutoff_cp


@pytest.fixture(scope="session")
def gamma11():
    return catalog.make_gamma(1.0, 1.0)


@pytest.fixture(scope="session")
def gamma21():
    return catalog.make_gamma(2.0, 1.0)


@pytest.fixture(scope="session")
def dickman1():
    return make_dickman(1.0)


@pytest.fixture(scope="session")
def dense_cp():
    """``sample_cutoff_cp`` with its sparse batch scattered into ``np.zeros(n)``."""

    def draw(tail, eps, t, rng, n):
        idx, sums = sample_cutoff_cp(tail, eps, t, rng, n)
        out = np.zeros(n)
        out[idx] = sums
        return out

    return draw


@pytest.fixture(scope="session")
def traced_peak():
    """Peak bytes traced while fn() runs, counted from the start of the call."""

    def measure(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture(scope="session")
def all_known_gamma_models():
    """Catalog models with a known Pareto index, paired with it."""
    return [
        (catalog.make_gamma(0.5, 1.0), 0.5),
        (catalog.make_gamma(1.0, 1.0), 1.0),
        (catalog.make_gamma(2.0, 1.0), 2.0),
        (catalog.make_bessel(), 1.0),
        (catalog.make_thorin_uniform(1.0), 1.0),
        (catalog.make_thorin_uniform(2.0), 2.0),
        (make_dickman(1.0), 1.0),
        (make_dickman(3.0), 3.0),
        (catalog.make_weibull(2.0), 2.0),
        (catalog.make_pareto_type(1.0), 1.0),
        (catalog.make_fdist(1.5, 2.0), 2.0),
        (catalog.make_half_cauchy(), 1.0),
    ]


@pytest.fixture(scope="session")
def log_s_grid():
    return np.linspace(np.log(1e-2), np.log(1e8), 21)
