"""Config-driven experiment runner and report emitter.

A config is one JSON document::

    {
      "seed": 1,
      "experiments": [
        {"kind": "pareto_limit",
         "model": {"name": "gamma", "params": {"gamma": 1, "lam": 1}},
         "params": {"t_list": [0.2, 0.1, 0.05, 0.01], "n": 100000},
         "assertions": {"ks_max": 0.05},
         "csv": "gamma_curve.csv"},
        ...
      ]
    }

Model expressions nest transforms over catalog leaves::

    {"name": "gamma", "params": {...}}
    {"transform": "tilt", "theta": 0.5, "of": <expr>}
    {"transform": "add", "of": [<expr>, <expr>]}
    {"transform": "compose_outer", "outer": <expr>, "inner": <expr>}
    {"transform": "compose_inner", "outer": <expr>, "inner": <expr>}
    {"transform": "drift", "c": 1.0, "of": <expr>}

Each experiment kind is one entry of ``KINDS``: its fields with their
defaults and checks, its models and the rules they must pass (a library
function's as it declares them), its handler, and its gates,
from which an entry's ``pass`` is read.  Every entry of a config is
checked against that table before any entry runs; ``--list`` prints it.

Exit codes: 0 when every assertion passes, 1 when the config ran and at
least one gate failed, 2 on a config/schema error (with the offending
field named), 3 on a numerical failure (with the failing operation
named).  Only a run that exits 0 or 1 leaves a ``report.json`` in its output
directory: one that exits 2 or 3 leaves none, not even an earlier run's.
Reports rerun byte-identically for a fixed seed, except for the timestamp
field.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import inspect
import json
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, catalog, criteria, montecarlo, transforms
from .core import (
    COUNT, KNOWN_INDEX, NONNEGATIVE, OPEN_UNIT, POSITIVE, REQUIRED, SHAPE, STD_COUNT, Check, has,
    number_rule,
)
from .criteria import CRITERIA
from .dickman import (
    MAX_RECURSION_DEPTH, RHO_INTERVALS, dickman_density_norm, dickman_rho,
    recursion_depth, sample_dickman_recursion,
)
from .errors import InvalidParameterError, NumericalFailure, SubordlabError
from .simulate import CUTOFF, SAMPLABLE, sample_cutoff_cp, sample_marginal, substream

__all__ = ["main", "run", "list_catalog", "margins", "SchemaError", "KINDS"]

class SchemaError(Exception):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


# named slowly varying functions usable from configs, each a function of log x
L_FUNCTIONS = {
    "neg_log": np.negative,
    "neg_log_cubed": lambda ly: np.negative(ly) ** 3,
}


def _ramp(x):
    """min(1, max(0, 4 * (x - 1/2)))."""
    return np.clip(4.0 * (np.asarray(x, dtype=float) - 0.5), 0.0, 1.0)


# named ergodic functionals: name -> (f, delta0)
FUNCTIONALS = {
    "ramp": (_ramp, 0.5),
}

# transform -> the fields of its expression besides "transform"
TRANSFORMS = {
    "tilt": ("theta", "of"), "add": ("of",), "compose_outer": ("outer", "inner"),
    "compose_inner": ("outer", "inner"), "drift": ("c", "of"),
}
TRANSFORM_GRAMMAR = " | ".join(
    f"{name}({', '.join(fields)})" for name, fields in TRANSFORMS.items())

# transforms one model expression may nest: the build and the run recurse once per
# transform, so about 1000 pass Python's recursion limit; the bundled configs nest one
MAX_NESTING = 100

# the family_limit family when the entry names none
STABLE_NEF = {"name": "stable_nef", "params": {"a": 1.0, "theta": 1.0}}


@contextlib.contextmanager
def _exit_rule(path, op, *, what=""):
    """The one exit rule for a library error raised inside a build or a run.

    NumericalFailure and MemoryError exit 3: ``run`` names the failing
    operation, ``op`` when the failure names none or an allocation failed.
    Every other SubordlabError exits 2 as a SchemaError at ``path``, its
    message prefixed by ``what``.
    """
    try:
        yield
    except NumericalFailure as exc:
        exc.op = exc.op or op
        raise
    except MemoryError as exc:
        # e.g. an n whose batch the machine cannot hold
        raise NumericalFailure(f"out of memory: {exc}", op=op) from exc
    except SubordlabError as exc:
        raise SchemaError(path, f"{what}{exc}") from exc


def build_model_expr(expr, path="model", nesting=0):
    """Recursively build a model from a config expression tree, at ``nesting`` transforms deep."""
    if not isinstance(expr, dict):
        raise SchemaError(path, "model expression must be an object")
    if "name" in expr:
        return catalog.build_model(*_leaf(expr, path, catalog.CATALOG))
    if "transform" not in expr:
        raise SchemaError(path, "expected either 'name' or 'transform'")
    if nesting == MAX_NESTING:
        raise SchemaError(path, f"a model expression nests at most {MAX_NESTING} transforms")
    kind = expr["transform"]
    if not isinstance(kind, str) or kind not in TRANSFORMS:
        raise SchemaError(f"{path}.transform", f"unknown transform {kind!r}")
    _no_unknown(expr, ("transform", *TRANSFORMS[kind]), path)
    for field in TRANSFORMS[kind]:
        if field not in expr:
            raise SchemaError(path, f"transform {kind!r} missing field {field!r}")
    inner = partial(build_model_expr, nesting=nesting + 1)
    with _exit_rule(path, path, what=f"transform {kind!r}: "):
        if kind == "tilt":
            theta = _value(expr["theta"], transforms.tilt.fields["theta"][1], f"{path}.theta")
            return transforms.tilt(inner(expr["of"], f"{path}.of"), theta)
        if kind == "add":
            parts = expr["of"]
            if not isinstance(parts, list) or len(parts) != 2:
                raise SchemaError(f"{path}.of", "add takes a list of exactly two expressions")
            return transforms.add(inner(parts[0], f"{path}.of[0]"), inner(parts[1], f"{path}.of[1]"))
        if kind in ("compose_outer", "compose_inner"):
            return getattr(transforms, kind)(
                inner(expr["outer"], f"{path}.outer"), inner(expr["inner"], f"{path}.inner"))
        c = _value(expr["c"], transforms.add_drift.fields["c"][1], f"{path}.c")
        return transforms.add_drift(inner(expr["of"], f"{path}.of"), c)


def _build_family(expr, path):
    _, params = _leaf(STABLE_NEF if expr is None else expr, path, catalog.FAMILIES)
    return catalog.make_stable_nef(**params)


def _leaf(expr, path, factories):
    """(name, params) of a catalog leaf or family; params checked as its factory declares them."""
    name = _fields(expr, {"name": (REQUIRED, _one_of(factories))}, path, others=("params",))["name"]
    return name, _fields(expr.get("params", {}), factories[name].fields, f"{path}.params")


# Field checks, besides the number rules of core.

def _one_of(names, cast=None):
    return Check(lambda v: v in names, f"one of {list(names)}", cast)


SEED = number_rule(lambda v: int(v) == v >= 0, "an integer >= 0", int)
# JSON's Infinity reaches here as a float; the numbers a run reads are finite
NUMBER = number_rule(math.isfinite, "a finite number")
UNIT = number_rule(lambda v: 0 <= v <= 1, "a number in [0, 1]")
GRID = Check(lambda v: isinstance(v, list) and len(v) > 0 and all(NUMBER.valid(x) for x in v),
             "a non-empty list of finite numbers")
# written into --out, so no directory part, and no null byte, which no path holds
FILE_NAME = Check(lambda v: isinstance(v, str) and v not in ("", ".", "..") and "\0" not in v
                  and os.path.basename(v) == v, "a bare file name")
# recursion_depth raises on a theta below the shape floor or past the depth ceiling
RECURSION_GAMMA = Check(
    recursion_depth,
    f"{SHAPE.requirement} that needs at most {MAX_RECURSION_DEPTH} recursion terms")
# the default table of rho covers z in [0, RHO_INTERVALS]
Z = number_rule(lambda v: 0 <= v <= RHO_INTERVALS, f"a number in [0, {RHO_INTERVALS}]")


def _value(value, check, path):
    """value, cast by check; a SchemaError at path unless the check holds."""
    if refused := check.refusal(value):
        raise SchemaError(path, refused)
    return value if check.cast is None else check.cast(value)


def _no_unknown(given, known, path):
    """A SchemaError at the first key of the object given that is not in known."""
    for key in given:
        if key not in known:
            raise SchemaError(f"{path}.{key}", f"unknown field; known: {sorted(known)}")


def _fields(given, fields, path, others=()):
    """Checked and cast values of fields; a SchemaError names the first bad field.

    A field left out or null takes its default, which is checked and cast
    as a given value is: a REQUIRED one is refused, and a None stays None.
    A key of given that is neither a field nor one of others is an error.
    """
    if not isinstance(given, dict):
        raise SchemaError(path, "must be an object")
    _no_unknown(given, [*fields, *others], path)
    values = {}
    for field, (default, check) in fields.items():
        value = default if given.get(field) is None else given[field]
        if value is REQUIRED:
            raise SchemaError(f"{path}.{field}", f"must be {check.requirement}, got nothing")
        values[field] = None if value is None else _value(value, check, f"{path}.{field}")
    return values


# Requirements that relate a model to another field.  problem(models, values) is
# false when the need is met, else the message reported at experiments[i].<path>.

class Need(NamedTuple):
    path: str
    requirement: str
    problem: Callable


def _drawn(key, field):
    """The model at key can be drawn from at the times in params.<field>.

    The model's exact sampler, when it has one, is asked for 0 paths at each
    time on a throwaway generator: every ``log_sampler`` checks the shape of
    its draw before it draws (gamma's t*gamma and stable's a*t against
    ``SHAPE``, a Dickman recursion's depth against ``MAX_RECURSION_DEPTH``).
    """

    def refused(m, v):
        model = m[key]
        if model.log_sampler is None:
            return False
        for t in v[field] if field == "t_list" else (v[field],):
            try:
                model.log_sampler(t, 0, substream(0, 0))
            except InvalidParameterError as exc:
                return f"t = {t!r}: the draw of {model.describe()} refuses it: {exc}"
        return False

    shapes = (f"exact draws of {key} at shapes t*param that are {SHAPE.requirement}, a Dickman "
              f"recursion's needing at most {MAX_RECURSION_DEPTH} terms")
    return Need(f"params.{field}", shapes, refused)


_CRITERION_SURFACE = Need("model", "a model with the surface its criterion reads", lambda m, v: (
    has(CRITERIA[v["criterion"]][0]).refusal(m["model"], f"criterion {v['criterion']}: ")))


def _grid_problem(m, v):
    try:  # only GL reads L
        criteria.log_grid(v["criterion"], v["grid"], v["L"])
    except InvalidParameterError as exc:
        return f"criterion {v['criterion']}: {exc}"
    return False


_CRITERION_GRID = Need("params.grid", "a grid its criterion accepts", _grid_problem)
_GAMMA_OR_INDEX = Need("params.gamma", "given, or the model's known index", lambda m, v: (
    v["gamma"] is None and KNOWN_INDEX.refusal(m["model"], "not given, and model ")))
# the mean gamma of a recursion draw comes from its paths whose first uniform falls
# within about gamma of 1, some gamma * n of them; with few, the sample mean is a
# rare-event estimate and its 3-sigma gate failed 88 and 71 of 400 seeds at
# gamma * n = 1, 9 and 8 at 10, 3 and 1 at 31.6, and 0 and 1 at 100
_MEAN_PATHS = Need("params.gamma", "gamma * n >= 100", lambda m, v: (
    v["gamma"] * v["n"] < 100
    and f"gamma * n = {v['gamma'] * v['n']:g} is below 100: the batch expects fewer than "
        f"100 paths near the mean gamma, too few for the sigma_mult gate"))
_BELOW_DELTA0 = Need(
    "params.cutoff", "below the functional's delta0", lambda m, v: (
        v["cutoff"] >= v["functional"][1]
        and f"must lie below the functional's delta0 = {v['functional'][1]:g}, "
            f"got {v['cutoff']!r}"))


# Handlers.  handler(values, models, seed) returns the result's statistics;
# the runner adds "experiment", "params", "threshold" (the first gate's,
# unless the handler reports its own) and "pass".

def _call(name, v, m, seed, **given):
    """montecarlo.<name>, looked up at call time, on the models.

    Each other argument its signature names is the one given, else the
    seed, else the field of that name; it gets no argument it does not name.
    """
    experiment = getattr(montecarlo, name)
    args = {**v, "seed": seed, **given}
    return experiment(*m.values(), **{key: args[key] for key in
                                      inspect.signature(experiment).parameters if key in args})


def _criterion(v, m, seed):
    # only GL reads L
    est = criteria.estimate_gamma(m["model"], v["criterion"], v["grid"], v["L"])
    return {"model": m["model"].describe(), **est.to_dict()}


def _converged(model):
    ests = criteria.estimate_all(model)
    return {c: float(e.gamma_hat) for c, e in ests.items() if e.verdict == "converged"}


def _criteria_recovery(v, m, seed):
    found = _converged(m["model"])
    worst = max((abs(g - v["expected_gamma"]) for g in found.values()), default=None)
    return {"model": m["model"].describe(), "statistic": worst,
            "target": v["expected_gamma"], "estimates": dict(sorted(found.items()))}


def _equivalence(v, m, seed):
    found = _converged(m["model"])
    spread = max((abs(a - b) for a in found.values() for b in found.values()), default=0.0)
    return {"model": m["model"].describe(), "statistic": spread, "estimates": found}


def _sandwich(v, m, seed):
    # psi comes from phi when the model has it, else from quadrature of cdf1
    model = m["model"]
    check = getattr(criteria, f"check_sandwich_{v['which']}")
    return {"model": model.describe(), "statistic": len(check(model.cdf1, model.phi, tol=v["tol"]))}


def _s2(v, m, seed):
    model = m["model"]
    law = montecarlo.ParetoLaw(model.known_gamma if v["gamma"] is None else v["gamma"])
    return {"model": model.describe(),
            **criteria.check_s2(model, law.cdf, v["t_grid"], v["u_grid"])}


def _support(v, m, seed):
    model, t, n = m["model"], v["t"], v["n"]
    log_s = sample_marginal(model, t, n, substream(seed, 0), cutoff=v["cutoff"])
    fraction = montecarlo.support_check(montecarlo.neg_t_power_ecdf(t, log_s), v["delta"])
    return {"model": model.describe(), "statistic": fraction, "t": t, "n": n}


def _ergodic(v, m, seed):
    f, delta0 = v["functional"]
    return _call("estimate_ergodic_functional", v, m, seed, f=f, delta0=delta0)


def _dickman_rho(v, m, seed):
    return {"model": "dickman_rho", "statistic": float(dickman_rho(v["z"])),
            "target": v["expected"]}


def _dickman_density_norm(v, m, seed):
    return {"model": "dickman_density", "statistic": dickman_density_norm(v["z_max"]),
            "target": 1.0}


def _recursion_mean(v, m, seed):
    gamma, n = v["gamma"], v["n"]
    samples = sample_dickman_recursion(gamma, recursion_depth(gamma), substream(seed, 0), n)
    mean, std = montecarlo.mean_std_in_place(np.exp(samples, out=samples), n)
    return {"model": f"dickman_recursion(gamma={gamma:g})", "statistic": float(mean), "n": n,
            "stderr": float(std / np.sqrt(n)), "target": gamma}


def _two_sampler_ks(v, m, seed):
    gamma, n = v["gamma"], v["n"]
    model = catalog.build_model("dickman", {"gamma": gamma})
    rec = sample_dickman_recursion(gamma, recursion_depth(gamma), substream(seed, 0), n)
    # a path below the cutoff has no jump above it, so the cutoff draw reads
    # it as 0: censor the recursion there alike, at log 0 = -inf
    rec[rec < np.log(v["cutoff"])] = -np.inf
    cp = sample_cutoff_cp(model.tail, v["cutoff"], 1.0, substream(seed, 1), n, out=np.empty(n))
    # the recursion draws log values; KS is invariant under the monotone log
    with np.errstate(divide="ignore"):
        np.log(cp, out=cp)
    return {"model": f"dickman(gamma={gamma:g})", "statistic": montecarlo.two_sample_ks(rec, cp),
            "threshold": montecarlo.two_sample_ks_critical_value(n, n, v["level"]), "n": n}


# Gates.  A gate compares one statistic of the handler's result with a
# threshold.  Its margin is >= 0 when it holds, in the units of the compared
# quantity (0.0 or -inf for a categorical gate, -inf for a null statistic);
# an entry passes when every margin of its gates is.

class Side(NamedTuple):
    """How a gate compares: margin(statistic, threshold, values, result).

    ``text`` is what --list prints; ``fields`` are the fields it reads
    besides the threshold, and a null one skips the gate.
    """

    text: str
    margin: Callable
    fields: tuple = ()


AT_MOST = Side("<=", lambda s, b, v, r: b - s)
AT_LEAST = Side(">=", lambda s, b, v, r: s - b)


def _within(field):
    """|statistic - field| <= threshold."""
    return Side(f"|statistic - {field}| <=", lambda s, b, v, r: b - abs(s - v[field]), (field,))


def _holds(text, holds):
    """A categorical side: 0.0 when holds(statistic, threshold, values), else -inf."""
    return Side(text, lambda s, b, v, r: 0.0 if holds(s, b, v) else -math.inf)


def _trend(ks_by_t, slack, v):
    # the floor c(1%)/sqrt(n): values at the noise floor carry no evidence either way
    ks, floor = list(ks_by_t.values()), montecarlo.ks_critical_value(v["n"], 0.01)
    return all(b <= a * (1.0 + slack) + floor for a, b in zip(ks, ks[1:]))


class Gate(NamedTuple):
    """The result's ``statistic`` against ``threshold``, an assertion field or a number.

    A null threshold field, or a null field its side reads, skips the gate
    (a categorical gate's threshold field only switches it on).
    """

    name: str
    statistic: str
    side: Side
    threshold: object

    def bound(self, values):
        return values.get(self.threshold, self.threshold)


def _gate(field, side=AT_MOST):
    """The gate named after its threshold field, on the result's statistic."""
    return Gate(field, "statistic", side, field)


def margins(checked, result):
    """{name: margin} of each gate of a validate_config entry that applies, on its result."""
    _, kind, values, _ = checked
    out = {}
    for gate in kind.gates:
        bound, stat = gate.bound(values), result[gate.statistic]
        if bound is not None and all(values[f] is not None for f in gate.side.fields):
            out[gate.name] = (-math.inf if stat is None
                              else gate.side.margin(stat, bound, values, result))
    return out


# The experiment table.

class Kind(NamedTuple):
    """One experiment kind.

    ``params`` and ``assertions`` map each field to (default, Check), as a
    library experiment's ``fields`` do; the default is ``REQUIRED``, None
    (the field may be left out) or a value.
    ``models`` maps each entry key built into a model (``family`` defaults
    to ``STABLE_NEF``) to the rules its model must pass, and ``needs``
    relate the models to other fields.  ``gates`` decide
    ``pass``; the first gate's threshold is the result's ``threshold``
    unless the handler reports one.  A kind with ``csv`` accepts an entry
    field ``csv``, which the handler gets as an output path.
    """

    handler: Callable
    gates: tuple
    params: dict = {}
    assertions: dict = {}
    models: dict = {"model": ()}
    needs: tuple = ()
    csv: bool = False


def _library(name, keys=("model",), handler=None, needs=(), module=montecarlo, **params):
    """The Kind fields of a kind that runs <module>.<name>: by ``_call`` (montecarlo's
    experiments), or by ``handler``.

    The models go in positionally, so the i-th of the model ``keys`` takes
    the rules the function declares on its i-th parameter (none when it
    declares none).  Each model it must draw from (``SAMPLABLE``) is probed
    at the function's times (``_drawn``), before ``needs``; its other
    declared fields, and ``params``, are the kind's params.
    """
    fn = getattr(module, name)
    args = list(inspect.signature(fn).parameters)[:len(keys)]
    models = {key: fn.fields.get(arg, (None, ()))[1] for key, arg in zip(keys, args)}
    times = "t_list" if "t_list" in fn.fields else "t"
    return dict(handler=handler or partial(_call, name), models=models,
                needs=(*(_drawn(key, times) for key in models if SAMPLABLE in models[key]), *needs),
                params={**{f: fc for f, fc in fn.fields.items() if f not in args}, **params})


_KS_MAX = {"ks_max": (None, NONNEGATIVE)}
_KS_GATE = (_gate("ks_max"),)
_L = ("neg_log", _one_of(L_FUNCTIONS, L_FUNCTIONS.get))
# the model keys of min_rule and product_rule
_TWO = ("model", "model2")

KINDS = {
    "criterion": Kind(
        _criterion,
        (Gate("gamma", "gamma_hat", _within("expected_gamma"), "tol"),
         Gate("converged", "verdict", _holds("== 'converged'", lambda s, b, v: s == "converged"),
              "expected_gamma"),
         Gate("verdict", "verdict", _holds("== threshold", lambda s, b, v: s == b), "verdict")),
        params={"criterion": ("S5", _one_of(CRITERIA)), "L": _L, "grid": (None, GRID)},
        assertions={"expected_gamma": (None, POSITIVE), "tol": (0.02, NONNEGATIVE),
                    "verdict": (None, _one_of(criteria.VERDICTS))},
        needs=(_CRITERION_SURFACE, _CRITERION_GRID)),
    "criteria_recovery": Kind(
        # the statistic is the worst distance from expected_gamma
        _criteria_recovery, (_gate("tol", AT_MOST._replace(fields=("expected_gamma",))),),
        assertions={"expected_gamma": (REQUIRED, POSITIVE), "tol": (0.02, NONNEGATIVE)}),
    "equivalence": Kind(
        _equivalence, (_gate("pairwise_tol"),), assertions={"pairwise_tol": (0.05, NONNEGATIVE)}),
    "sandwich": Kind(
        _sandwich, (Gate("violations", "statistic", AT_MOST, 0),),
        params={"which": ("ol", _one_of(("ol", "ol2"))), **criteria.check_sandwich_ol.fields},
        models={"model": (has("cdf1"),)}),
    "s2": Kind(
        gates=(_gate("max_dev"),),
        **_library("check_s2", handler=_s2, needs=(_GAMMA_OR_INDEX,), module=criteria,
                   gamma=(None, POSITIVE)),
        assertions={"max_dev": (1e-2, NONNEGATIVE)}),
    "pareto_limit": Kind(
        gates=(*_KS_GATE, _gate("ks_min", AT_LEAST), Gate("trend", "ks_by_t", _holds(
            "each <= the one before * (1 + threshold) + c(1%)/sqrt(n)", _trend), "trend_slack")),
        **_library("experiment_pareto_limit", needs=(_GAMMA_OR_INDEX,)),
        assertions={**_KS_MAX, "ks_min": (None, NONNEGATIVE), "trend_slack": (None, NONNEGATIVE)},
        csv=True),
    "general_limit": Kind(gates=_KS_GATE, assertions=_KS_MAX,
                          **_library("experiment_general_limit", L=_L)),
    "min_rule": Kind(gates=_KS_GATE, assertions=_KS_MAX, **_library("experiment_min_rule", _TWO)),
    "product_rule": Kind(gates=_KS_GATE, assertions=_KS_MAX,
                         **_library("experiment_product_rule", _TWO)),
    "affine": Kind(gates=_KS_GATE, assertions=_KS_MAX, **_library("experiment_affine")),
    "mixture": Kind(
        gates=(*_KS_GATE, Gate("jump", "jump_at_one", Side(
            "|statistic - (1 - q)| <=", lambda s, b, v, r: b - abs(s - (1.0 - v["q"])), ("q",)),
            "jump_tol")),
        **_library("experiment_mixture"), assertions={**_KS_MAX, "jump_tol": (None, NONNEGATIVE)}),
    "drift": Kind(gates=(_gate("min_fraction", AT_LEAST),), **_library("experiment_drift"),
                  assertions={"min_fraction": (0.99, UNIT)}),
    "support": Kind(
        _support, (_gate("max_fraction"),),  # its draw is the CLI's own, not the library's
        params={"t": (0.01, POSITIVE), "n": (montecarlo.DEFAULT_N, COUNT),
                "cutoff": (CUTOFF, OPEN_UNIT), **montecarlo.support_check.fields},
        assertions={"max_fraction": (0.01, UNIT)}, models={"model": (SAMPLABLE,)},
        needs=(_drawn("model", "t"),)),
    # the estimate draws by cutoff compound Poisson, which has no depth ceiling
    "ergodic": Kind(
        gates=(_gate("rel_tol", Side(
            "|statistic - target| / |target| <=",
            lambda s, b, v, r: b - abs(s - r["target"]) / abs(r["target"]))),),
        **_library("estimate_ergodic_functional", handler=_ergodic, needs=(_BELOW_DELTA0,),
                   functional=("ramp", _one_of(FUNCTIONALS, FUNCTIONALS.get))),
        assertions={"rel_tol": (0.05, NONNEGATIVE)}),
    "family_limit": Kind(
        gates=(_gate("max_dev"),), **_library("check_family_limit", ("family",)),
        assertions={"max_dev": (1e-3, NONNEGATIVE)}),
    "dickman_rho": Kind(
        _dickman_rho, (_gate("tol", _within("expected")),), params={"z": (REQUIRED, Z)},
        assertions={"expected": (REQUIRED, NUMBER), "tol": (1e-8, NONNEGATIVE)}, models={}),
    "dickman_density_norm": Kind(
        _dickman_density_norm,
        (_gate("tol", Side("|statistic - target| <=", lambda s, b, v, r: b - abs(s - r["target"]))),),
        params=dickman_density_norm.fields,
        assertions={"tol": (1e-6, NONNEGATIVE)}, models={}),
    "recursion_mean": Kind(
        _recursion_mean,
        (_gate("sigma_mult", Side("|statistic - target| <= threshold * stderr",
                                  lambda s, b, v, r: b * r["stderr"] - abs(s - r["target"]))),),
        params={"gamma": (REQUIRED, RECURSION_GAMMA), "n": (1_000_000, STD_COUNT)},
        assertions={"sigma_mult": (3.0, POSITIVE)}, models={}, needs=(_MEAN_PATHS,)),
    "two_sampler_ks": Kind(
        _two_sampler_ks,
        (_gate("level", Side("<= the critical value at level threshold",
                             lambda s, b, v, r: r["threshold"] - s)),),
        params={"n": (montecarlo.DEFAULT_N, COUNT), "cutoff": (CUTOFF, OPEN_UNIT),
                "gamma": (1.0, RECURSION_GAMMA)},
        assertions={"level": (0.01, _one_of(montecarlo.KS_COEFFICIENTS))}, models={}),
}


def _checked(entry, index):
    """(entry, kind, checked values, built models); a SchemaError names the first bad field."""
    at = f"experiments[{index}]"
    if not isinstance(entry, dict) or "kind" not in entry:
        raise SchemaError(at, "each experiment needs a 'kind'")
    kind = KINDS.get(entry["kind"]) if isinstance(entry["kind"], str) else None
    if kind is None:
        raise SchemaError(f"{at}.kind", f"unknown experiment kind {entry['kind']!r}")
    top = {"seed": (None, SEED), **({"csv": (None, FILE_NAME)} if kind.csv else {})}
    values = _fields(entry, top, at, others=("kind", "params", "assertions", *kind.models))
    values.update(_fields(entry.get("params", {}), kind.params, f"{at}.params"))
    values.update(_fields(entry.get("assertions", {}), kind.assertions, f"{at}.assertions"))
    models = {
        key: (_build_family if key == "family" else build_model_expr)(entry.get(key), f"{at}.{key}")
        for key in kind.models
    }
    for key, rules in kind.models.items():
        for check in rules:
            _value(models[key], check, f"{at}.{key}")
    for need in kind.needs:
        problem = need.problem(models, values)
        if problem:
            raise SchemaError(f"{at}.{need.path}", problem)
    return entry, kind, values, models


def run_experiment(checked, seed, out_dir, index):
    """The result of entry index, checked by validate_config; its csv goes into out_dir."""
    entry, kind, values, models = checked
    if kind.csv and values["csv"] is not None:
        values = {**values, "csv": None if out_dir is None else os.path.join(out_dir, values["csv"])}
    exp_seed = seed * 1_000_003 + index if values["seed"] is None else values["seed"]
    at = f"experiments[{index}]"
    with _exit_rule(f"{at}.params", at):
        result = {"experiment": entry["kind"], "params": entry.get("params", {}),
                  "threshold": kind.gates[0].bound(values),
                  **kind.handler(values, models, exp_seed)}
    result["pass"] = all(margin >= 0 for margin in margins(checked, result).values())
    return result


def validate_config(config):
    """Every entry checked, fields and models alike, for run_experiment; nothing samples."""
    if not isinstance(config, dict):
        raise SchemaError("<root>", "config must be a JSON object")
    if "experiments" not in config or not isinstance(config["experiments"], list):
        raise SchemaError("experiments", "missing or not a list")
    return [_checked(entry, i) for i, entry in enumerate(config["experiments"])]


def _run_seed(seed, config):
    """The run's seed: the argument, else the config's, else 0."""
    for path, value in (("--seed", seed), ("seed", config.get("seed"))):
        if value is not None:
            return _value(value, SEED, path)
    return 0


def run(config_path, out_dir=".", seed=None, threads=1):
    """Execute a config; returns (exit_code, report dict)."""
    return _run(config_path, out_dir, seed, threads)[:2]


def _run(config_path, out_dir, seed, threads):
    """run's (exit_code, report), and the {name: margin} of each result's failed gates."""
    report_path = os.path.join(out_dir, "report.json")
    # first, so that a run that fails leaves no report, not even an earlier run's; a
    # path that cannot be removed (a directory, say) fails where the report is written
    with contextlib.suppress(OSError):
        os.remove(report_path)
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    # a JSONDecodeError and a file that is not UTF-8 are ValueErrors; nesting past
    # Python's recursion limit raises RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        print(f"config error at <file>: {exc}", file=sys.stderr)
        return 2, None, None
    try:
        threads = _value(threads, COUNT, "--threads")
        entries = validate_config(config)
        effective_seed = _run_seed(seed, config)
        os.makedirs(out_dir, exist_ok=True)
        if not os.access(out_dir, os.W_OK | os.X_OK):
            raise PermissionError(f"output directory {out_dir!r} is not writable")

        def job(pair):
            idx, entry = pair
            return run_experiment(entry, effective_seed, out_dir, idx)

        if threads > 1 and len(entries) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(job, enumerate(entries)))
        else:
            results = [job(pair) for pair in enumerate(entries)]
        report = {
            "version": __version__,
            "seed": effective_seed,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "results": results,
            "all_pass": all(r.get("pass", False) for r in results),
        }
        # written whole or not at all: a run cut short leaves no partial report
        partial = f"{report_path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(partial, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(partial, report_path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(partial)
    except SchemaError as exc:
        print(str(exc), file=sys.stderr)
        return 2, None, None
    except NumericalFailure as exc:
        op = exc.op or "unknown-op"
        print(f"numerical failure in {op}: {exc}", file=sys.stderr)
        return 3, None, None
    except OSError as exc:
        # the only files a run writes are in --out: the directory, the CSV curves, the report
        print(f"config error at --out: {exc}", file=sys.stderr)
        return 2, None, None
    failed = [{name: margin for name, margin in margins(entry, result).items() if not margin >= 0}
              for entry, result in zip(entries, results)]
    return (0 if report["all_pass"] else 1), report, failed


def _listed(fields):
    return {
        field: {"default": "required" if default is REQUIRED else default,
                "requirement": check.requirement}
        for field, (default, check) in fields.items()
    }


def _declared(factories):
    return {name: {"params": _listed(factory.fields)} for name, factory in factories.items()}


def list_catalog():
    """Inventory of models, transforms, criteria and experiment kinds."""
    return {
        "models": _declared(catalog.CATALOG),
        "families": _declared(catalog.FAMILIES),
        "transforms": TRANSFORM_GRAMMAR,
        "criteria": list(CRITERIA),
        "L_functions": sorted(L_FUNCTIONS),
        "functionals": sorted(FUNCTIONALS),
        "experiment_kinds": {
            name: {
                "params": _listed(kind.params),
                "assertions": _listed(kind.assertions),
                "models": list(kind.models),
                "requires": [*(f"{key}: {check.requirement}"
                               for key, rules in kind.models.items() for check in rules),
                             *(f"{need.path}: {need.requirement}" for need in kind.needs)],
                "csv": kind.csv,
                "gates": [{"name": gate.name, "statistic": gate.statistic, "side": gate.side.text,
                           "threshold": gate.threshold} for gate in kind.gates],
            }
            for name, kind in KINDS.items()
        },
    }


def default_acceptance_config():
    """Path of the bundled acceptance config."""
    return os.path.join(os.path.dirname(__file__), "configs", "acceptance.json")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="subordlab",
        description="Run small-time limit experiments for Levy subordinators from a JSON config.",
    )
    parser.add_argument("--config", help="path to the experiment config (JSON)")
    parser.add_argument("--out", default=".", help="output directory for report.json and CSV curves")
    parser.add_argument("--seed", type=int, default=None, help="seed override (else the config's, else 0)")
    parser.add_argument("--threads", type=int, default=1, help="run experiments concurrently")
    parser.add_argument("--list", action="store_true", help="print the model/transform/criterion inventory")
    args = parser.parse_args(argv)

    if args.list:
        print(json.dumps(list_catalog(), indent=2, sort_keys=True))
        return 0
    if not args.config:
        parser.print_usage(sys.stderr)
        print("error: --config or --list required", file=sys.stderr)
        return 2
    code, report, failed = _run(args.config, args.out, args.seed, args.threads)
    if report is not None:
        for result, gates in zip(report["results"], failed):
            status = "PASS" if result["pass"] else "FAIL"
            stat = result.get("statistic", result.get("gamma_hat"))
            line = f"{status} {result['experiment']:18s} {result['model']}  statistic={stat}"
            if gates:
                line += "  failed: " + ", ".join(f"{n} (margin {m:.4g})" for n, m in gates.items())
            print(line)
        print(f"report: {os.path.join(args.out, 'report.json')}  all_pass={report['all_pass']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
