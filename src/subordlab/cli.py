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
defaults and checks, its models and what they must offer, and its
handler.  Every entry of a config is checked against that table before
any entry runs; ``--list`` prints it.

Exit codes: 0 when every assertion passes, 2 on a config/schema error
(with the offending field named), 3 on a numerical failure (with the
failing operation named).  Reports rerun byte-identically for a fixed
seed, except for the timestamp field.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, catalog, criteria, montecarlo, transforms
from .core import integral
from .criteria import CRITERIA
from .dickman import (
    MAX_RECURSION_DEPTH, RHO_INTERVALS, dickman_density_norm, dickman_rho, recursion_depth,
    sample_dickman_recursion,
)
from .errors import InvalidParameterError, NumericalFailure, SubordlabError
from .simulate import can_sample, sample_cutoff_cp, sample_marginal, substream

__all__ = ["main", "run", "list_catalog", "SchemaError", "KINDS"]

ENV_SEED = "SUBORDLAB_SEED"


class SchemaError(Exception):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


# named slowly varying functions usable from configs, each a function of log x
L_FUNCTIONS = {
    "neg_log": lambda ly: -ly,
    "neg_log_cubed": lambda ly: (-ly) ** 3,
}


def _ramp(x):
    """min(1, max(0, 4 * (x - 1/2))), computed in one buffer."""
    x = np.asarray(x, dtype=float)
    out = np.subtract(x, 0.5, out=np.empty_like(x))
    out *= 4.0
    np.maximum(0.0, out, out=out)
    np.minimum(1.0, out, out=out)
    return out if out.ndim else out[()]


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
# the fields of a catalog leaf and of a family
LEAF_FIELDS = ("name", "params")

# the family_limit family when the entry names none
STABLE_NEF = {"name": "stable_nef", "params": {"a": 1.0, "theta": 1.0}}


@contextlib.contextmanager
def _exit_rule(path, op, *, model_path=None, also=(), what=""):
    """The one exit rule for a library error raised inside a build or a run.

    NumericalFailure and MemoryError exit 3: ``run`` names the failing
    operation, ``op`` when the failure names none or an allocation failed.
    Every other SubordlabError, and ``also``, exits 2 as a SchemaError at
    ``path``, its message prefixed by ``what``; at ``model_path`` instead,
    when given, unless it is an InvalidParameterError (a parameter's fault).
    """
    try:
        yield
    except NumericalFailure as exc:
        exc.op = exc.op or op
        raise
    except MemoryError as exc:
        # e.g. an n whose batch the machine cannot hold
        raise NumericalFailure(f"out of memory: {exc}", op=op) from exc
    except (SubordlabError, *also) as exc:
        at = path if model_path is None or isinstance(exc, InvalidParameterError) else model_path
        raise SchemaError(at, f"{what}{exc}") from exc


def build_model_expr(expr, path="model"):
    """Recursively build a model from a config expression tree."""
    if not isinstance(expr, dict):
        raise SchemaError(path, "model expression must be an object")
    if "name" in expr:
        _no_unknown(expr, LEAF_FIELDS, path)
        name = expr["name"]
        if name not in catalog.CATALOG:
            raise SchemaError(f"{path}.name", f"unknown model {name!r}")
        with _exit_rule(f"{path}.params", path, also=(TypeError,)):
            return catalog.build_model(name, expr.get("params", {}))
    if "transform" not in expr:
        raise SchemaError(path, "expected either 'name' or 'transform'")
    kind = expr["transform"]
    if not isinstance(kind, str) or kind not in TRANSFORMS:
        raise SchemaError(f"{path}.transform", f"unknown transform {kind!r}")
    _no_unknown(expr, ("transform", *TRANSFORMS[kind]), path)
    for field in TRANSFORMS[kind]:
        if field not in expr:
            raise SchemaError(path, f"transform {kind!r} missing field {field!r}")
    with _exit_rule(path, path, also=(TypeError,), what=f"transform {kind!r}: "):
        if kind == "tilt":
            return transforms.tilt(build_model_expr(expr["of"], f"{path}.of"), expr["theta"])
        if kind == "add":
            parts = expr["of"]
            if not isinstance(parts, list) or len(parts) != 2:
                raise SchemaError(f"{path}.of", "add takes a list of exactly two expressions")
            return transforms.add(
                build_model_expr(parts[0], f"{path}.of[0]"),
                build_model_expr(parts[1], f"{path}.of[1]"),
            )
        if kind in ("compose_outer", "compose_inner"):
            return getattr(transforms, kind)(
                build_model_expr(expr["outer"], f"{path}.outer"),
                build_model_expr(expr["inner"], f"{path}.inner"),
            )
        return transforms.add_drift(build_model_expr(expr["of"], f"{path}.of"), expr["c"])


def _build_family(expr, path):
    expr = STABLE_NEF if expr is None else expr
    if not isinstance(expr, dict) or expr.get("name") != "stable_nef":
        raise SchemaError(f"{path}.name", "only stable_nef is available")
    _no_unknown(expr, LEAF_FIELDS, path)
    with _exit_rule(f"{path}.params", path, also=(TypeError,)):
        return catalog.make_stable_nef(**expr.get("params", {}))


# Field checks.  A value passes when valid(value) holds without raising; cast,
# when set, makes the value the handler gets.

class Check(NamedTuple):
    valid: Callable
    requirement: str
    cast: Callable = None


def _one_of(names):
    return Check(lambda v: v in names, f"one of {list(names)}")


COUNT = Check(lambda v: int(v) == v >= 1, "an integer >= 1", int)
SEED = Check(lambda v: int(v) == v >= 0, "an integer >= 0", int)
# JSON's Infinity reaches here as a float; the numbers a run reads are finite
NUMBER = Check(math.isfinite, "a finite number")
POSITIVE = Check(lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
NONNEGATIVE = Check(lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
ABOVE_ONE = Check(lambda v: math.isfinite(v) and v > 1, "a finite number > 1")
OPEN_UNIT = Check(lambda v: 0 < v < 1, "a number in (0, 1)")
UNIT = Check(lambda v: 0 <= v <= 1, "a number in [0, 1]")
TIMES = Check(lambda v: isinstance(v, list) and len(v) > 0 and all(POSITIVE.valid(t) for t in v),
              "a non-empty list of finite numbers > 0", tuple)
GRID = Check(lambda v: isinstance(v, list) and len(v) > 0 and all(NUMBER.valid(x) for x in v),
             "a non-empty list of finite numbers")
FILE_NAME = Check(lambda v: isinstance(v, str) and v != "", "a file name")
# recursion_depth raises on a theta past the depth ceiling
RECURSION_GAMMA = Check(
    recursion_depth, f"a number > 0 that needs at most {MAX_RECURSION_DEPTH} recursion terms")
DEPTH = Check(lambda v: int(v) == v and 1 <= v <= MAX_RECURSION_DEPTH,
              f"an integer in [1, {MAX_RECURSION_DEPTH}]", int)
# the default table of rho covers z in [0, RHO_INTERVALS]
Z = Check(lambda v: 0 <= v <= RHO_INTERVALS, f"a number in [0, {RHO_INTERVALS}]")
Z_MAX = Check(lambda v: int(v) == v and 1 <= v <= RHO_INTERVALS,
              f"an integer in [1, {RHO_INTERVALS}]", int)

# the default of a field that must be given; a field whose default is None
# may be left out, and the handler then gets None
REQUIRED = object()


def _passes(check, value):
    try:
        return bool(check.valid(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _value(value, check, path):
    """value, cast by check; a SchemaError at path unless the check holds."""
    if not _passes(check, value):
        raise SchemaError(path, f"must be {check.requirement}, got {value!r}")
    return value if check.cast is None else check.cast(value)


def _no_unknown(given, known, path):
    """A SchemaError at the first key of the object given that is not in known."""
    for key in given:
        if key not in known:
            raise SchemaError(f"{path}.{key}", f"unknown field; known: {sorted(known)}")


def _fields(given, fields, path, others=()):
    """Checked values of fields, defaults filled in; a SchemaError names the first bad field.

    A field left out or null takes its default.  A key of given that is
    neither a field nor one of others is an error.
    """
    if not isinstance(given, dict):
        raise SchemaError(path, "must be an object")
    _no_unknown(given, [*fields, *others], path)
    values = {}
    for field, (default, check) in fields.items():
        value = given.get(field)
        if value is None and default is REQUIRED:
            raise SchemaError(f"{path}.{field}", f"must be {check.requirement}, got nothing")
        values[field] = default if value is None else _value(value, check, f"{path}.{field}")
    return values


# Model requirements.  problem(models, values, entry) is false when the need
# is met, else the message reported at experiments[i].<path>.

class Need(NamedTuple):
    path: str
    requirement: str
    problem: Callable


def _has(surface, key="model"):
    return Need(key, f"a model with {surface}", lambda m, v, e: getattr(m[key], surface) is None
                and f"needs a model with {surface}; {m[key].describe()} has none")


def _known_index(key="model"):
    return Need(key, "a model with a known index", lambda m, v, e: m[key].known_gamma is None
                and f"model {m[key].describe()} has no known index")


def _samplable(key="model"):
    return Need(key, "an exact sampler or an invertible jump tail", lambda m, v, e: (
        not can_sample(m[key])
        and f"{m[key].describe()} has neither an exact sampler nor an invertible jump tail"))


_INVERTIBLE_TAIL = Need("model", "an invertible jump tail", lambda m, v, e: (
    (m["model"].tail is None or m["model"].tail.inverse_tail is None)
    and f"{m['model'].describe()} has no invertible jump tail"))


def _drawn(key, field):
    """The model at key can be drawn from at the times in params.<field>.

    A draw at time t runs the recursion of each ``dickman`` leaf reached
    through ``add`` and ``drift`` (exact samplers survive only those) to
    ``recursion_depth(t * gamma)`` terms, at most ``MAX_RECURSION_DEPTH``.
    """

    def too_deep(m, v, entry):
        times = v[field] if field == "t_list" else (v[field],)
        nodes = [entry[key]]
        while nodes:
            node = nodes.pop()
            if node.get("name") == "dickman":
                gamma = node["params"]["gamma"]
                for t in times:
                    if not _passes(RECURSION_GAMMA, t * gamma):
                        return (f"t = {t!r} puts the Dickman recursion of {m[key].describe()} at "
                                f"theta = t*gamma = {t * gamma:g}, past its "
                                f"{MAX_RECURSION_DEPTH}-term ceiling")
            elif node.get("transform") == "add":
                nodes.extend(node["of"])
            elif node.get("transform") == "drift":
                nodes.append(node["of"])

    ceiling = f"no Dickman recursion of {key} past {MAX_RECURSION_DEPTH} terms"
    return _samplable(key), Need(f"params.{field}", ceiling, too_deep)


_CRITERION_SURFACE = Need(
    "model", "a model with the surface its criterion reads", lambda m, v, e: (
        getattr(m["model"], CRITERIA[v["criterion"]][0]) is None
        and f"criterion {v['criterion']} needs a model with {CRITERIA[v['criterion']][0]}; "
            f"{m['model'].describe()} has none"))


def _grid_problem(m, v, entry):
    L = L_FUNCTIONS[v["L"]] if v["criterion"] == "GL" else None
    try:
        criteria.log_grid(v["criterion"], v["grid"], L)
    except InvalidParameterError as exc:
        return f"criterion {v['criterion']}: {exc}"
    return False


_CRITERION_GRID = Need("params.grid", "a grid its criterion accepts", _grid_problem)
_GAMMA_OR_INDEX = Need(
    "params.gamma", "given, or the model's known index", lambda m, v, e: (
        v["gamma"] is None and m["model"].known_gamma is None
        and f"model {m['model'].describe()} has no known index"))
_BELOW_DELTA0 = Need(
    "params.cutoff", "below the functional's delta0", lambda m, v, e: (
        v["cutoff"] >= FUNCTIONALS[v["functional"]][1]
        and f"must lie below the functional's delta0 = {FUNCTIONALS[v['functional']][1]:g}, "
            f"got {v['cutoff']!r}"))


# Handlers.  handler(values, models, seed) returns the result's fields; the
# runner adds "experiment" and "params".

def _result(model, statistic, threshold, ok, **more):
    return {"model": model, "statistic": statistic, "threshold": threshold, "pass": bool(ok), **more}


def _ks_result(report, threshold, ok=True, **more):
    """The result of a KS report, gated by threshold (when given) and ok."""
    ks = report.ks_statistic
    return _result(report.model, ks, threshold, ok and (threshold is None or ks <= threshold),
                   t=report.t, n=report.n, target=report.target, **more)


def _deviation_result(model, report, threshold):
    return _result(model.describe(), report.final, threshold, report.final <= threshold,
                   deviations=[float(d) for d in report.deviations])


def _criterion(v, m, seed):
    model, which = m["model"], v["criterion"]
    surface, name = CRITERIA[which]
    L = (L_FUNCTIONS[v["L"]],) if which == "GL" else ()
    est = getattr(criteria, name)(getattr(model, surface), *L, v["grid"])
    ok = True
    if v["expected_gamma"] is not None:
        tol = 0.02 if v["tol"] is None else v["tol"]
        ok = est.verdict == "converged" and abs(est.gamma_hat - v["expected_gamma"]) <= tol
    if v["verdict"] is not None:
        ok = ok and est.verdict == v["verdict"]
    return {"model": model.describe(), "threshold": v["tol"], "pass": bool(ok), **est.to_dict()}


def _converged(model):
    ests = criteria.estimate_all(model)
    return {c: e.gamma_hat for c, e in ests.items() if e.verdict == "converged"}


def _criteria_recovery(v, m, seed):
    expected, tol = v["expected_gamma"], v["tol"]
    found = _converged(m["model"])
    worst = max((abs(g - expected) for g in found.values()), default=np.inf)
    return _result(m["model"].describe(), worst if np.isfinite(worst) else None, tol,
                   bool(found) and worst <= tol, target=expected,
                   estimates={c: float(g) for c, g in sorted(found.items())})


def _equivalence(v, m, seed):
    found = _converged(m["model"])
    spread = max((abs(a - b) for a in found.values() for b in found.values()), default=0.0)
    return _result(m["model"].describe(), spread, v["pairwise_tol"], spread <= v["pairwise_tol"],
                   estimates={c: float(g) for c, g in found.items()})


def _sandwich(v, m, seed):
    # psi comes from phi when the model has it, else from quadrature of cdf1
    model = m["model"]
    check = getattr(criteria, f"check_sandwich_{v['which']}")
    violations = check(model.cdf1, model.phi, tol=v["tol"])
    return _result(model.describe(), len(violations), 0, not violations)


def _s2(v, m, seed):
    model = m["model"]
    law = montecarlo.ParetoLaw(model.known_gamma if v["gamma"] is None else v["gamma"])
    report = criteria.check_s2(model.phi, law.cdf, v["t_grid"], v["u_grid"])
    return _deviation_result(model, report, v["max_dev"])


def _pareto_limit(v, m, seed):
    reports = montecarlo.experiment_pareto_limit(
        m["model"], v["t_list"], v["n"], seed, cutoff=v["cutoff"], gamma=v["gamma"], csv=v["csv"])
    final = reports[-1]
    ok = v["ks_min"] is None or final.ks_statistic >= v["ks_min"]
    if v["trend_slack"] is not None:
        # trend is checked above the sampling resolution: values at the
        # 1/sqrt(n) noise floor carry no evidence either way
        floor = montecarlo.ks_critical_value(v["n"], 0.01)
        ks = [r.ks_statistic for r in reports]
        ok = ok and all(
            ks[i + 1] <= ks[i] * (1.0 + v["trend_slack"]) + floor for i in range(len(ks) - 1)
        )
    return _ks_result(final, v["ks_max"], ok, ks_by_t={str(r.t): r.ks_statistic for r in reports})


def _general_limit(v, m, seed):
    reports = montecarlo.experiment_general_limit(
        m["model"], L_FUNCTIONS[v["L"]], v["gamma"], v["t_list"], v["n"], seed, cutoff=v["cutoff"])
    return _ks_result(reports[-1], v["ks_max"])


def _ks_experiment(name, *fields):
    """Handler of montecarlo.<name>(models..., fields..., t, n, seed, cutoff=...)."""

    def handler(v, m, seed):
        experiment = getattr(montecarlo, name)
        args = (*m.values(), *(v[field] for field in fields), v["t"], v["n"], seed)
        return _ks_result(experiment(*args, cutoff=v["cutoff"]), v["ks_max"])

    return handler


def _mixture(v, m, seed):
    report, jump = montecarlo.experiment_mixture(
        m["model"], v["q"], v["t"], v["n"], seed, cutoff=v["cutoff"])
    ok = v["jump_tol"] is None or abs(jump - (1.0 - v["q"])) <= v["jump_tol"]
    return _ks_result(report, v["ks_max"], ok, jump_at_one=jump)


def _drift(v, m, seed):
    report = montecarlo.experiment_drift(
        m["model"], v["c"], v["t"], v["n"], seed, cutoff=v["cutoff"], window=v["window"])
    fraction, threshold = report.fraction_within, v["min_fraction"]
    return _result(report.model, fraction, threshold, fraction >= threshold, t=report.t, n=report.n)


def _support(v, m, seed):
    model, t, n = m["model"], v["t"], v["n"]
    log_s = sample_marginal(model, t, n, substream(seed, 0), cutoff=v["cutoff"])
    fraction = montecarlo.support_check(montecarlo.neg_t_power_ecdf(model, t, log_s), v["delta"])
    return _result(model.describe(), fraction, v["max_fraction"], fraction <= v["max_fraction"],
                   t=t, n=n)


def _ergodic(v, m, seed):
    model = m["model"]
    f, delta0 = FUNCTIONALS[v["functional"]]
    est = montecarlo.estimate_ergodic_functional(
        model, f, delta0, v["t"], v["n"], seed, cutoff=v["cutoff"])
    upper = model.tail.support_upper if model.tail is not None else np.inf
    # over the whole support; QAGI's map of [delta0, inf) alone is coarser near
    # delta0 (it moved gamma(1, 1)'s target by 2.4e-12 relative), so it only
    # takes the part past 100
    target = integral(
        lambda x: float(f(x)) * float(model.levy_density(x)),
        [delta0, upper] if np.isfinite(upper) else [delta0, 100.0, np.inf], op="ergodic_target",
    )
    rel_err = abs(est.value - target) / abs(target)
    return _result(model.describe(), est.value, v["rel_tol"], rel_err <= v["rel_tol"],
                   t=est.t, n=est.n, stderr=est.stderr, target=target)


def _family_limit(v, m, seed):
    report = montecarlo.check_family_limit(m["family"], v["t_grid"], v["u_grid"])
    return _deviation_result(m["family"], report, v["max_dev"])


def _dickman_rho(v, m, seed):
    value, expected, tol = float(dickman_rho(v["z"])), v["expected"], v["tol"]
    return _result("dickman_rho", value, tol, abs(value - expected) <= tol, target=expected)


def _dickman_density_norm(v, m, seed):
    total = dickman_density_norm(v["z_max"])
    return _result("dickman_density", total, v["tol"], abs(total - 1.0) <= v["tol"], target=1.0)


def _recursion_mean(v, m, seed):
    gamma, n, mult = v["gamma"], v["n"], v["sigma_mult"]
    depth = recursion_depth(gamma) if v["depth"] is None else v["depth"]
    samples = sample_dickman_recursion(gamma, depth, substream(seed, 0), n)
    mean, std = montecarlo.mean_std_in_place(np.exp(samples, out=samples))
    mean, stderr = float(mean), float(std / np.sqrt(n))
    return _result(f"dickman_recursion(gamma={gamma:g})", mean, mult,
                   abs(mean - gamma) <= mult * stderr, n=n, stderr=stderr, target=gamma)


def _two_sampler_ks(v, m, seed):
    gamma, n = v["gamma"], v["n"]
    model = catalog.build_model("dickman", {"gamma": gamma})
    rec = sample_dickman_recursion(gamma, recursion_depth(gamma), substream(seed, 0), n)
    cp = sample_cutoff_cp(model.tail, v["cutoff"], 1.0, substream(seed, 1), n, out=np.empty(n))
    # the recursion draws log values; KS is invariant under the monotone log
    with np.errstate(divide="ignore"):
        np.log(cp, out=cp)
    stat = montecarlo.two_sample_ks(rec, cp)
    crit = montecarlo.two_sample_ks_critical_value(n, n, v["level"])
    return _result(f"dickman(gamma={gamma:g})", stat, crit, stat <= crit, n=n)


# The experiment table.

class Kind(NamedTuple):
    """One experiment kind.

    ``params`` and ``assertions`` map each field to (default, Check); the
    default is ``REQUIRED``, None (the field may be left out) or a value.
    ``models`` are the entry keys built into models (``family`` defaults to
    ``STABLE_NEF``); ``needs`` are checked on them.  A kind with ``csv``
    accepts an entry field ``csv``, which the handler gets as an output path.
    """

    handler: Callable
    params: dict = {}
    assertions: dict = {}
    models: tuple = ("model",)
    needs: tuple = ()
    csv: bool = False


def _draw(t, n=montecarlo.DEFAULT_N, **more):
    """The fields of a draw of n paths at time t, plus more."""
    return {"t": (t, POSITIVE), "n": (n, COUNT), "cutoff": (1e-6, OPEN_UNIT), **more}


def _draws(t_list, **more):
    """The fields of draws of n paths at each time of t_list, plus more."""
    return {"t_list": (t_list, TIMES), "n": (montecarlo.DEFAULT_N, COUNT),
            "cutoff": (1e-6, OPEN_UNIT), **more}


_KS_MAX = {"ks_max": (None, NONNEGATIVE)}
_GRIDS = {"t_grid": (None, GRID), "u_grid": (None, GRID)}
_L = ("neg_log", _one_of(L_FUNCTIONS))
_TWO_DRAWN = (*_drawn("model", "t"), *_drawn("model2", "t"), _known_index(), _known_index("model2"))

KINDS = {
    "criterion": Kind(
        _criterion, params={"criterion": ("S5", _one_of(CRITERIA)), "L": _L, "grid": (None, GRID)},
        assertions={"expected_gamma": (None, POSITIVE), "tol": (None, NONNEGATIVE),
                    "verdict": (None, _one_of(criteria.VERDICTS))},
        needs=(_CRITERION_SURFACE, _CRITERION_GRID)),
    "criteria_recovery": Kind(
        _criteria_recovery,
        assertions={"expected_gamma": (REQUIRED, POSITIVE), "tol": (0.02, NONNEGATIVE)}),
    "equivalence": Kind(_equivalence, assertions={"pairwise_tol": (0.05, NONNEGATIVE)}),
    "sandwich": Kind(
        _sandwich, params={"which": ("ol", _one_of(("ol", "ol2"))), "tol": (1e-9, NONNEGATIVE)},
        needs=(_has("cdf1"),)),
    "s2": Kind(
        _s2, params={"gamma": (None, POSITIVE), **_GRIDS},
        assertions={"max_dev": (1e-2, NONNEGATIVE)}, needs=(_has("phi"), _GAMMA_OR_INDEX)),
    "pareto_limit": Kind(
        _pareto_limit, params=_draws(montecarlo.DEFAULT_T_LIST, gamma=(None, POSITIVE)),
        assertions={**_KS_MAX, "ks_min": (None, NONNEGATIVE), "trend_slack": (None, NONNEGATIVE)},
        needs=(*_drawn("model", "t_list"), _GAMMA_OR_INDEX), csv=True),
    "general_limit": Kind(
        _general_limit, params=_draws((0.01,), gamma=(REQUIRED, POSITIVE), L=_L),
        assertions=_KS_MAX, needs=_drawn("model", "t_list")),
    "min_rule": Kind(
        _ks_experiment("experiment_min_rule"), params=_draw(0.01), assertions=_KS_MAX,
        models=("model", "model2"), needs=_TWO_DRAWN),
    "product_rule": Kind(
        _ks_experiment("experiment_product_rule"), params=_draw(0.01), assertions=_KS_MAX,
        models=("model", "model2"), needs=_TWO_DRAWN),
    "affine": Kind(
        _ks_experiment("experiment_affine", "a", "b"),
        params=_draw(0.05, a=(REQUIRED, ABOVE_ONE), b=(REQUIRED, ABOVE_ONE)),
        assertions=_KS_MAX, needs=(*_drawn("model", "t"), _known_index())),
    "mixture": Kind(
        _mixture, params=_draw(1e-3, q=(REQUIRED, OPEN_UNIT)),
        assertions={**_KS_MAX, "jump_tol": (None, NONNEGATIVE)},
        needs=(*_drawn("model", "t"), _known_index())),
    "drift": Kind(
        _drift, params=_draw(1e-3, c=(1.0, POSITIVE), window=(0.05, POSITIVE)),
        assertions={"min_fraction": (0.99, UNIT)}, needs=_drawn("model", "t")),
    "support": Kind(
        _support, params=_draw(0.01, delta=(0.1, OPEN_UNIT)),
        assertions={"max_fraction": (0.01, UNIT)}, needs=_drawn("model", "t")),
    # the estimate draws by cutoff compound Poisson, which has no depth ceiling
    "ergodic": Kind(
        _ergodic, params=_draw(1e-3, 10_000_000, functional=("ramp", _one_of(FUNCTIONALS))),
        assertions={"rel_tol": (0.05, NONNEGATIVE)},
        needs=(_has("levy_density"), _INVERTIBLE_TAIL, _BELOW_DELTA0)),
    "family_limit": Kind(
        _family_limit, params=_GRIDS, assertions={"max_dev": (1e-3, NONNEGATIVE)},
        models=("family",)),
    "dickman_rho": Kind(
        _dickman_rho, params={"z": (REQUIRED, Z)},
        assertions={"expected": (REQUIRED, NUMBER), "tol": (1e-8, NONNEGATIVE)}, models=()),
    "dickman_density_norm": Kind(
        _dickman_density_norm, params={"z_max": (RHO_INTERVALS, Z_MAX)},
        assertions={"tol": (1e-6, NONNEGATIVE)}, models=()),
    "recursion_mean": Kind(
        _recursion_mean, params={"n": (1_000_000, COUNT), "gamma": (REQUIRED, RECURSION_GAMMA),
                                 "depth": (None, DEPTH)},
        assertions={"sigma_mult": (3.0, POSITIVE)}, models=()),
    "two_sampler_ks": Kind(
        _two_sampler_ks, params={"n": (100_000, COUNT), "cutoff": (1e-6, OPEN_UNIT),
                                 "gamma": (1.0, RECURSION_GAMMA)},
        assertions={"level": (0.01, _one_of(montecarlo.KS_COEFFICIENTS))}, models=()),
}


def _checked(entry, index):
    """(kind, checked values, built models) of an entry; a SchemaError names the first bad field."""
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
    for need in kind.needs:
        problem = need.problem(models, values, entry)
        if problem:
            raise SchemaError(f"{at}.{need.path}", problem)
    return kind, values, models


def run_experiment(entry, seed, out_dir, index):
    kind, values, models = _checked(entry, index)
    if kind.csv and values["csv"] is not None:
        values["csv"] = os.path.join(out_dir, values["csv"]) if out_dir is not None else None
    exp_seed = seed * 1_000_003 + index if values["seed"] is None else values["seed"]
    at = f"experiments[{index}]"
    model_at = f"{at}.{kind.models[0]}" if kind.models else None
    with _exit_rule(f"{at}.params", at, model_path=model_at):
        result = kind.handler(values, models, exp_seed)
    return {"experiment": entry["kind"], "params": entry.get("params", {}), **result}


def validate_config(config):
    """Check every entry, fields and models alike; nothing samples."""
    if not isinstance(config, dict):
        raise SchemaError("<root>", "config must be a JSON object")
    if "experiments" not in config or not isinstance(config["experiments"], list):
        raise SchemaError("experiments", "missing or not a list")
    for i, entry in enumerate(config["experiments"]):
        _checked(entry, i)


def _run_seed(seed, config):
    """The run's seed: the argument, else the config's, else $SUBORDLAB_SEED, else 0."""
    env = os.environ.get(ENV_SEED)
    if env is not None and env.strip().isdigit():
        env = int(env)
    for path, value in (("--seed", seed), ("seed", config.get("seed")), (ENV_SEED, env)):
        if value is not None:
            return _value(value, SEED, path)
    return 0


def run(config_path, out_dir=".", seed=None, threads=1):
    """Execute a config; returns (exit_code, report dict)."""
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error at <file>: {exc}", file=sys.stderr)
        return 2, None
    try:
        validate_config(config)
        effective_seed = _run_seed(seed, config)
        entries = config["experiments"]
        os.makedirs(out_dir, exist_ok=True)

        def job(pair):
            idx, entry = pair
            return run_experiment(entry, effective_seed, out_dir, idx)

        if threads > 1 and len(entries) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(job, enumerate(entries)))
        else:
            results = [job(pair) for pair in enumerate(entries)]
    except SchemaError as exc:
        print(str(exc), file=sys.stderr)
        return 2, None
    except NumericalFailure as exc:
        op = exc.op or "unknown-op"
        print(f"numerical failure in {op}: {exc}", file=sys.stderr)
        return 3, None

    report = {
        "version": __version__,
        "seed": effective_seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "results": results,
        "all_pass": all(r.get("pass", False) for r in results),
    }
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (0 if report["all_pass"] else 1), report


def _listed(fields):
    return {
        field: {"default": "required" if default is REQUIRED else default,
                "requirement": check.requirement}
        for field, (default, check) in fields.items()
    }


def list_catalog():
    """Inventory of models, transforms, criteria and experiment kinds."""
    return {
        "models": {
            name: {"params": schema} for name, (_, schema) in sorted(catalog.CATALOG.items())
        },
        "families": {"stable_nef": {"params": {"a": "float > 0", "theta": "float > 0"}}},
        "transforms": TRANSFORM_GRAMMAR,
        "criteria": list(CRITERIA),
        "L_functions": sorted(L_FUNCTIONS),
        "functionals": sorted(FUNCTIONALS),
        "experiment_kinds": {
            name: {
                "params": _listed(kind.params),
                "assertions": _listed(kind.assertions),
                "models": list(kind.models),
                "requires": [f"{need.path}: {need.requirement}" for need in kind.needs],
                "csv": kind.csv,
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
    parser.add_argument("--seed", type=int, default=None, help="seed override (also: env SUBORDLAB_SEED)")
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
    code, report = run(args.config, out_dir=args.out, seed=args.seed, threads=args.threads)
    if report is not None:
        for result in report["results"]:
            status = "PASS" if result.get("pass") else "FAIL"
            label = result.get("model", "")
            stat = result.get("statistic", result.get("gamma_hat"))
            print(f"{status} {result['experiment']:18s} {label}  statistic={stat}")
        print(f"report: {os.path.join(args.out, 'report.json')}  all_pass={report['all_pass']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
