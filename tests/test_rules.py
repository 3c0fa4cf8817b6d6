"""The number and model rules: one check, in one set of words, for the library and the CLI."""

import importlib
import inspect
import json
import math
import pkgutil
from dataclasses import replace

import numpy as np
import pytest

import subordlab
from subordlab import catalog, cli, core, criteria, dickman, montecarlo, simulate, transforms
from subordlab.core import INVERTIBLE_TAIL, KNOWN_INDEX, NONNEGATIVE, NOT_NULL, POSITIVE, Check
from subordlab.errors import InvalidParameterError
from conftest import pareto_quantile

GAMMA11 = catalog.make_gamma(1.0, 1.0)
# an exponent below 1e-15 at s = 1 and 100: the null subordinator
NULL_GAMMA = catalog.make_gamma(1e-300, 1.0)
DICKMAN_TAIL = dickman.make_dickman(1.0).tail
EMP = montecarlo.EmpiricalDistribution.from_values(np.array([0.5, 2.0]))

# every function of the package that declares its arguments (core.checks or
# core.declares), found by walking the modules, in module and name order
DECLARED = [
    fn
    for info in pkgutil.iter_modules(subordlab.__path__)
    for module in (importlib.import_module(f"subordlab.{info.name}"),)
    for _, fn in sorted(vars(module).items())
    if inspect.isfunction(fn) and hasattr(fn, "fields") and fn.__module__ == module.__name__
]

# each kind that runs a library function declared with core.checks, and those functions
RUNS = {
    "pareto_limit": [montecarlo.experiment_pareto_limit],
    "general_limit": [montecarlo.experiment_general_limit],
    "min_rule": [montecarlo.experiment_min_rule],
    "product_rule": [montecarlo.experiment_product_rule],
    "affine": [montecarlo.experiment_affine],
    "mixture": [montecarlo.experiment_mixture],
    "drift": [montecarlo.experiment_drift],
    "support": [montecarlo.support_check],
    "ergodic": [montecarlo.estimate_ergodic_functional],
    "sandwich": [criteria.check_sandwich_ol, criteria.check_sandwich_ol2],
    "s2": [criteria.check_s2],
    "family_limit": [montecarlo.check_family_limit],
    "dickman_density_norm": [dickman.dickman_density_norm],
}
# a valid value of each argument of the DECLARED functions that has no default,
# and a small n; a function that takes rng gets the test's generator
VALID_ARGS = {"model": GAMMA11, "m1": GAMMA11, "m2": GAMMA11, "outer": GAMMA11, "inner": GAMMA11,
              "L": np.negative, "gamma": 1.0, "lam": 1.0, "a": 2.0, "alpha": 0.5, "b": 4.0,
              "q": 0.3, "theta": 0.5, "c": 1.0, "t": 0.5, "depth": 3, "emp": EMP,
              "f": cli.FUNCTIONALS["ramp"][0], "delta0": 0.5, "cdf1": GAMMA11.cdf1,
              "limit_cdf": core.ParetoLaw(1.0).cdf, "family": catalog.make_stable_nef(1.0, 1.0),
              "at": lambda t, ell: ell, "target": lambda u: 0.0 * u, "t_grid": (0.1,),
              "u_grid": (2.0,), "n": 10}


def valid_call(fn, rng, **given):
    """fn on VALID_ARGS (and rng, when it takes one), with the arguments given in their place."""
    params = inspect.signature(fn).parameters
    valid = {arg: VALID_ARGS[arg] for arg in params if arg in VALID_ARGS}
    if "rng" in params:
        valid["rng"] = rng
    return fn(**{**valid, **given})


def declared_calls():
    """A CALLS row per declared argument of each DECLARED function."""
    for fn in DECLARED:
        for arg in fn.fields:
            yield pytest.param(
                arg, lambda v, rng, fn=fn, arg=arg: valid_call(fn, rng, **{arg: v}),
                id=fn.__name__ if len(fn.fields) == 1 else f"{fn.__name__}-{arg}")


# (argument, call of the library with the value under test and a generator)
CALLS = [
    pytest.param("gamma", lambda v, rng: core.pareto_cdf(v, 2.0), id="pareto_cdf"),
    pytest.param("gamma", lambda v, rng: pareto_quantile(v, 0.5), id="pareto_quantile"),
    pytest.param("gamma", lambda v, rng: core.ParetoLaw(v), id="ParetoLaw"),
    pytest.param("gamma", lambda v, rng: core.ExponentialLaw(v), id="ExponentialLaw"),
    pytest.param("s", lambda v, rng: core.lst_from_cdf(GAMMA11.cdf1, v), id="lst_from_cdf"),
    pytest.param("theta", lambda v, rng: dickman.recursion_depth(v), id="recursion_depth"),
    pytest.param("t", lambda v, rng: simulate.sample_cutoff_cp(DICKMAN_TAIL, 1e-6, v, rng, 10),
                 id="sample_cutoff_cp"),
    pytest.param("t", lambda v, rng: simulate.to_neg_t_power(np.zeros(3), v), id="to_neg_t_power"),
    pytest.param("t", lambda v, rng: simulate.to_tl(np.zeros(3), lambda ly: -ly, v), id="to_tl"),
    *declared_calls(),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True],
                         ids=["nan", "inf", "-inf", "true"])
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", True],
                         ids=["nan", "inf", "-inf", "x", "true"])
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


def test_each_rule_holds_its_closed_end():
    # a repeated time is not strictly decreasing; a standard deviation needs two samples
    assert core.DECREASING_TIMES.passes((0.2, 0.1))
    assert not core.DECREASING_TIMES.passes((0.1, 0.1))
    for rule, low in ((core.COUNT, 1), (core.STD_COUNT, 2)):
        assert rule.passes(low) and rule.passes(2**53)
        assert not rule.passes(low - 1) and not rule.passes(2**53 + 1)
    # the two floors at the values README states, each accepted and the float below refused
    assert core.SHAPE.passes(2.1e-307) and not core.SHAPE.passes(math.nextafter(2.1e-307, 0))
    assert core.GRID_TIMES.passes([4.2e-306])
    assert not core.GRID_TIMES.passes([math.nextafter(4.2e-306, 0)])


def test_library_refusal_reads_as_the_listed_requirement():
    listed = cli.list_catalog()["experiment_kinds"]["drift"]["params"]["c"]["requirement"]
    with pytest.raises(InvalidParameterError) as exc:
        transforms.add_drift(GAMMA11, -1.0)
    assert str(exc.value) == f"c must be {listed}, got -1.0"


def test_every_kind_takes_its_functions_declared_fields():
    for kind, functions in RUNS.items():
        entry = cli.KINDS[kind]
        for fn in functions:
            args = list(inspect.signature(fn).parameters)
            for field, (default, rule) in fn.fields.items():
                if isinstance(rule, Check):
                    assert entry.params[field][0] == default, (kind, field)
                    assert entry.params[field][1] is rule, (kind, field)
                else:
                    # a model parameter's rules: the model key at its position carries them
                    assert field not in entry.params, (kind, field)
                    assert list(entry.models.values())[args.index(field)] is rule, (kind, field)


# a model that fails each model rule and passes every other: (rule's name, model)
FAILS = {
    simulate.SAMPLABLE.requirement: ("SAMPLABLE", transforms.tilt(GAMMA11, 0.5)),
    KNOWN_INDEX.requirement: ("KNOWN_INDEX", catalog.make_stable(1.0, 0.5)),
    INVERTIBLE_TAIL.requirement: ("INVERTIBLE_TAIL", replace(GAMMA11, tail=None)),
    core.has("levy_density").requirement: ("levy_density", replace(GAMMA11, levy_density=None)),
    core.has("phi").requirement: ("phi", replace(GAMMA11, phi=None)),
    NOT_NULL.requirement: ("NOT_NULL", NULL_GAMMA),
}


def declared_model_rules():
    """A row per model rule that a DECLARED function declares on one of its models,
    with the kind that runs the function (None for one that no kind runs)."""
    for fn in DECLARED:
        kind = next((kind for kind, functions in RUNS.items() if fn in functions), None)
        for arg, (_, rule) in fn.fields.items():
            for check in () if isinstance(rule, Check) else rule:
                name, model = FAILS[check.requirement]
                yield pytest.param(kind, fn, arg, check, model, id=f"{fn.__name__}-{arg}-{name}")


@pytest.mark.parametrize("kind,fn,arg,check,model", [
    *declared_model_rules(),
    # drew the whole gamma batch, then refused the tilt, whose tail has no inverse
    pytest.param("min_rule", montecarlo.experiment_min_rule, "m2", simulate.SAMPLABLE,
                 transforms.tilt(GAMMA11, 0.5), id="min_rule-gamma-tilt"),
])
def test_model_that_fails_a_declared_rule_is_refused_before_any_draw(
    monkeypatch, kind, fn, arg, check, model
):
    rng = simulate.substream(0, 0)
    monkeypatch.setattr(montecarlo, "substream", lambda seed, stream: rng)
    before = rng.bit_generator.state
    with pytest.raises(InvalidParameterError) as exc:
        valid_call(fn, rng, **{arg: model})
    assert str(exc.value) == f"{arg} must be {check.requirement}, got {model.describe()}"
    assert rng.bit_generator.state == before
    if kind is not None:
        # in the words --list prints for the kind's model key at the argument's position
        key = list(cli.KINDS[kind].models)[list(inspect.signature(fn).parameters).index(arg)]
        listed = cli.list_catalog()["experiment_kinds"][kind]["requires"]
        assert f"{key}: {check.requirement}" in listed


def test_null_model_of_a_later_entry_exits_two_before_any_entry_samples(
    tmp_path, capsys, sampler_calls
):
    # the s2 handler refused the null subordinator, after the entries before it had run
    gamma = {"name": "gamma", "params": {"gamma": 1.0, "lam": 1.0}}
    null = {"name": "gamma", "params": {"gamma": 1e-300, "lam": 1.0}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [
        {"kind": "pareto_limit", "model": gamma, "params": {"t_list": [0.1], "n": 10}},
        {"kind": "s2", "model": null},
    ]}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"config error at experiments[1].model: must be "
                                       f"{NOT_NULL.requirement}, got {NULL_GAMMA.describe()}\n")
    assert sampler_calls == []
