import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from subordlab import catalog, cli, dickman, montecarlo, simulate
from subordlab.dickman import make_dickman
from subordlab.simulate import sample_cutoff_cp

SAMPLERS = ("sample_marginal", "sample_cutoff_cp", "sample_dickman_recursion")


@pytest.fixture
def loose_quad(monkeypatch):
    """scipy's quad, reporting an error estimate of 1 on every piece."""
    real = integrate.quad

    def quad_loose(*args, **kwargs):
        val, _, *rest = real(*args, **kwargs)
        return (val, 1.0, *rest)

    monkeypatch.setattr(integrate, "quad", quad_loose)


@pytest.fixture
def sampler_calls(monkeypatch):
    """Counts calls of the samplers at every binding site the runner reaches."""
    calls = []
    for module in (cli, montecarlo, simulate, dickman):
        for name in SAMPLERS:
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), **kwargs):
                    calls.append(_fn)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return calls


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
    """``sample_cutoff_cp`` in its dense form, written into a fresh n-float batch."""

    def draw(tail, eps, t, rng, n):
        return sample_cutoff_cp(tail, eps, t, rng, n, out=np.empty(n))

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
