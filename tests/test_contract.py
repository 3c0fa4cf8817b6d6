"""The elementwise contract, generated from the catalog, the transforms and the laws.

Every surface and limit law maps a float array (a Python float counting as
0-d) to float64 of the argument's shape, each element bitwise the one its
1-d call on the raveled argument gives.  A new catalog model, transform or
family is checked here as soon as it exists.
"""

import numpy as np
import pytest

from subordlab import catalog, cli
from subordlab.core import REQUIRED, ExponentialLaw, ParetoLaw, pareto_cdf, pareto_quantile
from subordlab.dickman import dickman_density, dickman_rho
from subordlab.montecarlo import AffineMinLaw, ParetoMixtureLaw, ParetoProductLaw


def _params(factory, scale=1.0):
    """Each argument's default, or for a required one the first of 1.0, 0.5, 2.0 its rule
    accepts; times ``scale`` where its rule allows."""
    params = {}
    for arg, (default, check) in factory.fields.items():
        value = next(v for v in (1.0, 0.5, 2.0) if check.passes(v)) if default is REQUIRED else default
        scaled = value * scale
        params[arg] = scaled if scale != 1.0 and check.passes(scaled) else value
    return params


def _leaf(name, scale=1.0):
    return {"name": name, "params": _params(catalog.CATALOG[name], scale)}


def _transformed(kind, leaf, scale=1.0):
    """The transform ``kind`` over ``leaf``, with a gamma leaf wherever it takes a second model;
    the gamma leaf and the transform's own numbers are scaled by ``scale``."""
    other = _leaf("gamma", scale)
    fields = {"of": [leaf, other] if kind == "add" else leaf, "outer": leaf, "inner": other,
              "theta": 0.5 * scale, "c": 1.0 * scale}
    expr = {"transform": kind, **{field: fields[field] for field in cli.TRANSFORMS[kind]}}
    return cli.build_model_expr(expr)


# surface -> (its callable on a model, or None, and the ends of a range inside its domain)
SURFACES = {
    "phi.eval": (lambda m: m.phi and m.phi.eval, (0.0, 3.0)),
    "phi.eval_log": (lambda m: m.phi and m.phi.eval_log, (-3.0, 5.0)),
    "tail": (lambda m: m.tail and m.tail.tail, (0.05, 0.95)),
    "inverse_tail": (lambda m: m.tail and m.tail.inverse_tail, (0.1, 5.0)),
    "cdf1": (lambda m: m.cdf1, (0.05, 0.95)),
    "density1": (lambda m: m.density1, (0.05, 0.95)),
    "levy_density": (lambda m: m.levy_density, (0.05, 0.95)),
}


def models(scale=1.0):
    """(label, model) of every catalog model and each transform of a leaf, at the defaults,
    or with every number scaled by ``scale`` where its rule allows."""
    suffix = "" if scale == 1.0 else f"*{scale:g}"
    yield from ((name + suffix, catalog.build_model(name, _params(factory, scale)))
                for name, factory in catalog.CATALOG.items())
    for kind in cli.TRANSFORMS:
        for leaf in ("gamma", "dickman"):
            yield f"{kind}({leaf}){suffix}", _transformed(kind, _leaf(leaf, scale), scale)


def _cases():
    for label, model in models():
        for surface, (get, span) in SURFACES.items():
            fn = get(model)
            if fn is not None:
                yield pytest.param(fn, span, id=f"{label}.{surface}")
    for name, factory in catalog.FAMILIES.items():
        family = factory(**_params(factory))
        yield pytest.param(lambda lu: family.psi_t_log(0.01, lu), (-1.0, 3.0), id=f"{name}.psi_t_log")
        yield pytest.param(family.limit_cdf, (0.5, 5.0), id=f"{name}.limit_cdf")
    laws = (ParetoLaw(1.5), ExponentialLaw(1.5), ParetoProductLaw(1.0, 2.0),
            ParetoProductLaw(1.0, 1.0), AffineMinLaw(2.0, 8.0, 1.0), ParetoMixtureLaw(0.4, 1.0))
    for law in laws:
        yield pytest.param(law.cdf, (0.5, 12.0), id=f"{law.describe()}.cdf")
        if hasattr(law, "quantile"):
            yield pytest.param(law.quantile, (0.1, 0.9), id=f"{law.describe()}.quantile")
    yield pytest.param(lambda x: pareto_cdf(1.5, x), (0.5, 12.0), id="pareto_cdf")
    yield pytest.param(lambda p: pareto_quantile(1.5, p), (0.1, 0.9), id="pareto_quantile")
    yield pytest.param(dickman_rho, (0.0, 10.0), id="dickman_rho")
    yield pytest.param(dickman_density, (0.0, 10.0), id="dickman_density")
    for name, L in cli.L_FUNCTIONS.items():
        yield pytest.param(L, (-20.0, -0.5), id=f"L_FUNCTIONS[{name}]")
    for name, (f, _) in cli.FUNCTIONALS.items():
        yield pytest.param(f, (0.0, 2.0), id=f"FUNCTIONALS[{name}]")


@pytest.mark.parametrize("fn, span", _cases())
def test_float64_of_the_arguments_shape(fn, span):
    grid = np.linspace(*span, 6)
    for x in (float(grid[2]), np.array(grid[2]), grid, grid.reshape(2, 3)):
        got = fn(x)
        assert got.dtype == np.float64 and got.shape == np.shape(x)
        assert np.ravel(got).tobytes() == fn(np.ravel(x)).tobytes()
