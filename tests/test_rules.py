"""The number rules of core: one check, in one set of words, for the library and the CLI."""

import math

import numpy as np
import pytest

from subordlab import catalog, cli, core, dickman, montecarlo, simulate, transforms
from subordlab.core import NONNEGATIVE, POSITIVE
from subordlab.errors import InvalidParameterError

GAMMA11 = catalog.make_gamma(1.0, 1.0)
DICKMAN_TAIL = dickman.make_dickman(1.0).tail
EMP = montecarlo.EmpiricalDistribution.from_values(np.array([0.5, 2.0]))

# (argument, call of the library with the value under test and a generator)
CALLS = [
    pytest.param("gamma", lambda v, rng: core.pareto_cdf(v, 2.0), id="pareto_cdf"),
    pytest.param("gamma", lambda v, rng: core.pareto_quantile(v, 0.5), id="pareto_quantile"),
    pytest.param("gamma", lambda v, rng: core.ParetoLaw(v), id="ParetoLaw"),
    pytest.param("gamma", lambda v, rng: core.ExponentialLaw(v), id="ExponentialLaw"),
    pytest.param("s", lambda v, rng: core.lst_from_cdf(GAMMA11.cdf1, v), id="lst_from_cdf"),
    pytest.param("lam", lambda v, rng: catalog.make_gamma(1.0, v), id="make_gamma"),
    pytest.param("alpha", lambda v, rng: catalog.make_stable(1.0, v), id="make_stable"),
    pytest.param("b", lambda v, rng: catalog.make_fdist(1.0, v), id="make_fdist"),
    pytest.param("theta", lambda v, rng: catalog.make_stable_nef(1.0, v), id="make_stable_nef"),
    pytest.param("theta", lambda v, rng: dickman.recursion_depth(v), id="recursion_depth"),
    pytest.param("gamma", lambda v, rng: dickman.sample_dickman_recursion(v, 3, rng, 10),
                 id="sample_dickman_recursion-gamma"),
    pytest.param("depth", lambda v, rng: dickman.sample_dickman_recursion(1.0, v, rng, 10),
                 id="sample_dickman_recursion-depth"),
    pytest.param("gamma", lambda v, rng: dickman.make_dickman(v), id="make_dickman"),
    pytest.param("theta", lambda v, rng: transforms.tilt(GAMMA11, v), id="tilt"),
    pytest.param("c", lambda v, rng: transforms.add_drift(GAMMA11, v), id="add_drift"),
    pytest.param("t", lambda v, rng: simulate.sample_marginal(GAMMA11, v, 10, rng),
                 id="sample_marginal"),
    pytest.param("t", lambda v, rng: simulate.sample_cutoff_cp(DICKMAN_TAIL, 1e-6, v, rng, 10),
                 id="sample_cutoff_cp"),
    pytest.param("t", lambda v, rng: simulate.to_neg_t_power(np.zeros(3), v), id="to_neg_t_power"),
    pytest.param("t", lambda v, rng: simulate.to_tl(np.zeros(3), lambda ly: -ly, v), id="to_tl"),
    pytest.param("a", lambda v, rng: montecarlo.experiment_affine(GAMMA11, v, 2.0, 0.05, 10),
                 id="experiment_affine"),
    pytest.param("q", lambda v, rng: montecarlo.experiment_mixture(GAMMA11, v, 0.01, 10),
                 id="experiment_mixture"),
    pytest.param("c", lambda v, rng: montecarlo.experiment_drift(GAMMA11, v, 0.01, 10),
                 id="experiment_drift-c"),
    pytest.param("window", lambda v, rng: montecarlo.experiment_drift(GAMMA11, 1.0, 0.01, 10,
                                                                      window=v),
                 id="experiment_drift-window"),
    pytest.param("delta", lambda v, rng: montecarlo.support_check(EMP, v), id="support_check"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("arg,call", CALLS)
def test_non_finite_argument_refused_before_any_draw(monkeypatch, arg, call, value):
    # the experiments draw from montecarlo.substream: hand them the watched generator
    rng = simulate.substream(0, 0)
    monkeypatch.setattr(montecarlo, "substream", lambda seed, stream: rng)
    before = rng.bit_generator.state
    with pytest.raises(InvalidParameterError) as exc:
        call(value, rng)
    message = str(exc.value)
    assert message.startswith(f"{arg} must be ") and message.endswith(f", got {value!r}"), message
    assert rng.bit_generator.state == before


# a valid value of each declared factory argument, so that a test can make any one other bad
VALID_PARAMS = {"gamma": 1.0, "lam": 1.0, "a": 1.0, "alpha": 0.5, "b": 1.0, "theta": 1.0,
                "power": 3}


def declared_arguments():
    listed = cli.list_catalog()
    for group, factories in (("models", catalog.CATALOG), ("families", catalog.FAMILIES)):
        for name, factory in factories.items():
            for arg, field in listed[group][name]["params"].items():
                yield pytest.param(factory, arg, field["requirement"], id=f"{name}-{arg}")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x"],
                         ids=["nan", "inf", "-inf", "x"])
@pytest.mark.parametrize("factory,arg,requirement", list(declared_arguments()))
def test_every_declared_argument_is_checked(factory, arg, requirement, value):
    args = {name: VALID_PARAMS[name] for name in factory.fields}
    factory(**args)
    with pytest.raises(InvalidParameterError) as exc:
        factory(**{**args, arg: value})
    assert str(exc.value) == f"{arg} must be {requirement}, got {value!r}"


def test_require_names_the_first_value_that_fails():
    POSITIVE.require(a=1.0, b=2)
    with pytest.raises(InvalidParameterError, match=r"^b must be a finite number > 0, got nan$"):
        POSITIVE.require(a=1.0, b=math.nan, c=-1.0)
    # a value the rule cannot compare fails it rather than raising TypeError
    assert not NONNEGATIVE.passes("x") and not NONNEGATIVE.passes(None)


def test_library_refusal_reads_as_the_listed_requirement():
    listed = cli.list_catalog()["experiment_kinds"]["drift"]["params"]["c"]["requirement"]
    with pytest.raises(InvalidParameterError) as exc:
        transforms.add_drift(GAMMA11, -1.0)
    assert str(exc.value) == f"c must be {listed}, got -1.0"


def test_cli_fields_use_the_library_rules():
    assert cli.POSITIVE is core.POSITIVE and cli.DEPTH is dickman.DEPTH
    assert cli.KINDS["affine"].params["a"][1] is core.ABOVE_ONE
    assert cli.KINDS["mixture"].params["q"][1] is core.OPEN_UNIT
