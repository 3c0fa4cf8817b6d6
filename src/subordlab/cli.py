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

Exit codes: 0 when every assertion passes, 2 on a config/schema error
(with the offending field named), 3 on a numerical failure (with the
failing operation named).  Reports rerun byte-identically for a fixed
seed, except for the timestamp field.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import integrate

from . import __version__, catalog, criteria, montecarlo, transforms
from .dickman import (
    MAX_RECURSION_DEPTH,
    dickman_density,
    dickman_rho,
    recursion_depth,
    sample_dickman_recursion,
)
from .errors import (
    InvalidParameterError,
    NumericalFailure,
    SubordlabError,
    UnsupportedModelError,
)
from .simulate import can_sample, sample_cutoff_cp, sample_marginal, substream

__all__ = ["main", "run", "list_catalog", "SchemaError"]

ENV_SEED = "SUBORDLAB_SEED"


class SchemaError(Exception):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


# named slowly varying functions usable from configs
L_FUNCTIONS = {
    "neg_log": (lambda x: -np.log(x), lambda ly: -ly),
    "neg_log_cubed": (lambda x: (-np.log(x)) ** 3, lambda ly: (-ly) ** 3),
}


def _ramp(x):
    """min(1, max(0, 4 * (x - 1/2))), computed in one buffer."""
    x = np.asarray(x, dtype=float)
    out = np.subtract(x, 0.5, out=np.empty_like(x))
    out *= 4.0
    np.maximum(0.0, out, out=out)
    np.minimum(1.0, out, out=out)
    return out if out.ndim else out[()]


# criterion -> the model surface its estimator reads
_CRITERION_SURFACES = {"S5": "phi", "S6": "cdf1", "S7": "tail", "S8": "density1", "GL": "phi"}

# named ergodic functionals: name -> (f, delta0)
FUNCTIONALS = {
    "ramp": (_ramp, 0.5),
}

TRANSFORM_GRAMMAR = (
    "tilt(theta, of) | add(of=[left, right]) | "
    "compose_outer(outer, inner) | compose_inner(outer, inner) | drift(c, of)"
)


def build_model_expr(expr, path="model"):
    """Recursively build a model from a config expression tree."""
    if not isinstance(expr, dict):
        raise SchemaError(path, "model expression must be an object")
    if "name" in expr:
        name = expr["name"]
        if name not in catalog.CATALOG:
            raise SchemaError(f"{path}.name", f"unknown model {name!r}")
        try:
            return catalog.build_model(name, expr.get("params", {}))
        except (TypeError, SubordlabError) as exc:
            raise SchemaError(f"{path}.params", str(exc)) from exc
    if "transform" not in expr:
        raise SchemaError(path, "expected either 'name' or 'transform'")
    kind = expr["transform"]
    try:
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
        if kind == "compose_outer":
            return transforms.compose_outer(
                build_model_expr(expr["outer"], f"{path}.outer"),
                build_model_expr(expr["inner"], f"{path}.inner"),
            )
        if kind == "compose_inner":
            return transforms.compose_inner(
                build_model_expr(expr["outer"], f"{path}.outer"),
                build_model_expr(expr["inner"], f"{path}.inner"),
            )
        if kind == "drift":
            return transforms.add_drift(build_model_expr(expr["of"], f"{path}.of"), expr["c"])
    except KeyError as exc:
        raise SchemaError(path, f"transform {kind!r} missing field {exc}") from exc
    except (InvalidParameterError, UnsupportedModelError) as exc:
        raise SchemaError(path, f"transform {kind!r}: {exc}") from exc
    raise SchemaError(f"{path}.transform", f"unknown transform {kind!r}")


def _resolve_L(name, path):
    if name not in L_FUNCTIONS:
        raise SchemaError(path, f"unknown L function {name!r}; known: {sorted(L_FUNCTIONS)}")
    return L_FUNCTIONS[name]


def _param(params, field, index, default, valid, requirement):
    """Return params[field] (or default); raise a SchemaError naming the field unless valid(value)."""
    value = params.get(field, default)
    try:
        ok = value is not None and bool(valid(value))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise SchemaError(
            f"experiments[{index}].params.{field}", f"must be {requirement}, got {value!r}"
        )
    return value


def _positive(value):
    return value > 0


def _above_one(value):
    return value > 1


def _count(value):
    return int(value) == value >= 1


def _time_list(value):
    return isinstance(value, (list, tuple)) and len(value) > 0 and all(_positive(t) for t in value)


def _open_unit(value):
    return 0 < value < 1


def _recursion_gamma(value):
    try:
        recursion_depth(value)
    except InvalidParameterError:
        return False
    return True


def _depth(value):
    return _count(value) and value <= MAX_RECURSION_DEPTH


# field -> (check, requirement)
_CHECKS = {
    "n": (_count, "an integer >= 1"),
    "t": (_positive, "a number > 0"),
    "t_list": (_time_list, "a non-empty list of numbers > 0"),
    "cutoff": (_open_unit, "a number in (0, 1)"),
    "a": (_above_one, "a number > 1"),
    "b": (_above_one, "a number > 1"),
    "gamma": (_positive, "a number > 0"),
    "q": (_open_unit, "a number in (0, 1)"),
    "c": (_positive, "a number > 0"),
    "delta": (_open_unit, "a number in (0, 1)"),
    "depth": (_depth, f"an integer in [1, {MAX_RECURSION_DEPTH}]"),
}
# the recursion kinds run recursion_depth(gamma) terms, which has a ceiling
_RECURSION_GAMMA = (
    _recursion_gamma, f"a number > 0 that needs at most {MAX_RECURSION_DEPTH} recursion terms"
)
_KIND_CHECKS = {
    "recursion_mean": {"gamma": _RECURSION_GAMMA},
    "two_sampler_ks": {"gamma": _RECURSION_GAMMA},
}

# a field with this default may be left out (its value is then None); a field
# with the default None is required
_OPTIONAL = object()
# checked fields of each kind, with their defaults
_N = montecarlo.DEFAULT_N
_PARAM_DEFAULTS = {
    "pareto_limit": {
        "t_list": montecarlo.DEFAULT_T_LIST, "n": _N, "cutoff": 1e-6, "gamma": _OPTIONAL,
    },
    "general_limit": {"t_list": (0.01,), "n": _N, "cutoff": 1e-6, "gamma": None},
    "min_rule": {"t": 0.01, "n": _N, "cutoff": 1e-6},
    "product_rule": {"t": 0.01, "n": _N, "cutoff": 1e-6},
    "affine": {"t": 0.05, "n": _N, "cutoff": 1e-6, "a": None, "b": None},
    "mixture": {"t": 1e-3, "n": _N, "cutoff": 1e-6, "q": None},
    "drift": {"t": 1e-3, "n": _N, "cutoff": 1e-6, "c": 1.0},
    "support": {"t": 0.01, "n": _N, "cutoff": 1e-6, "delta": 0.1},
    "ergodic": {"t": 1e-3, "n": 10_000_000, "cutoff": 1e-6},
    "recursion_mean": {"n": 1_000_000, "gamma": None, "depth": _OPTIONAL},
    "two_sampler_ks": {"n": 100_000, "cutoff": 1e-6, "gamma": 1.0},
    "s2": {"gamma": _OPTIONAL},
}


def _checked_params(entry, index):
    """The entry's checked fields, defaults filled in; a SchemaError names the first bad one."""
    params = entry.get("params", {})
    kind = entry["kind"]
    overrides = _KIND_CHECKS.get(kind, {})
    values = {}
    for field, default in _PARAM_DEFAULTS[kind].items():
        if default is _OPTIONAL and field not in params:
            values[field] = None
            continue
        valid, requirement = overrides.get(field, _CHECKS[field])
        values[field] = _param(params, field, index, default, valid, requirement)
    if "n" in values:
        values["n"] = int(values["n"])
    if "t_list" in values:
        values["t_list"] = tuple(values["t_list"])
    return values


def _known_index(model, path):
    """The model's known Pareto index; a SchemaError at path when it has none."""
    if model.known_gamma is None:
        raise SchemaError(path, f"model {model.describe()} has no known index")
    return model.known_gamma


def _require_surface(model, path, what, surface):
    """A SchemaError at path unless the model has the surface."""
    if getattr(model, surface) is None:
        raise SchemaError(path, f"{what} needs a model with {surface}; {model.describe()} has none")


def _sampled_model(entry, index, sp, key="model"):
    """Build entry[key] for a draw at the entry's times; a SchemaError names the bad field.

    The model must be one that ``sample_marginal`` can draw from.
    A draw at time t runs each Dickman recursion to ``recursion_depth(t * gamma)``
    terms, which may not exceed ``MAX_RECURSION_DEPTH``.  Exact samplers survive
    only ``add`` and ``drift``, so the recursions a draw runs are those of the
    ``dickman`` leaves reached through them.
    """
    model = build_model_expr(entry[key], f"experiments[{index}].{key}")
    if not can_sample(model):
        raise SchemaError(
            f"experiments[{index}].{key}",
            f"{model.describe()} has neither an exact sampler nor an invertible jump tail",
        )
    field = "t_list" if "t_list" in sp else "t"
    times = sp["t_list"] if field == "t_list" else (sp["t"],)
    nodes = [entry[key]]
    while nodes:
        node = nodes.pop()
        if node.get("name") == "dickman":
            gamma = node["params"]["gamma"]
            for t in times:
                if not _recursion_gamma(t * gamma):
                    raise SchemaError(
                        f"experiments[{index}].params.{field}",
                        f"t = {t!r} puts the Dickman recursion of {model.describe()} at "
                        f"theta = t*gamma = {t * gamma:g}, past its {MAX_RECURSION_DEPTH}-term ceiling",
                    )
        elif node.get("transform") == "add":
            nodes.extend(node["of"])
        elif node.get("transform") == "drift":
            nodes.append(node["of"])
    return model


def _ks_result(entry, report, threshold, extra=None):
    result = {
        "experiment": entry["kind"],
        "model": report.model,
        "params": entry.get("params", {}),
        "t": report.t,
        "n": report.n,
        "statistic": report.ks_statistic,
        "target": report.target,
        "threshold": threshold,
        "pass": bool(report.ks_statistic <= threshold) if threshold is not None else True,
    }
    if extra:
        result.update(extra)
    return result


def _maybe_csv(entry, out_dir, emp, cdf):
    csv_name = entry.get("csv")
    if csv_name and out_dir is not None:
        montecarlo.export_curve(emp, cdf, os.path.join(out_dir, csv_name))


def _empirical_for_pareto(model, t, n, seed, cutoff, stream=0):
    from .simulate import to_neg_t_power

    log_s = sample_marginal(model, t, n, substream(seed, stream), cutoff=cutoff, log=True)
    values, n_inf = to_neg_t_power(log_s, t, log=True, out=log_s)
    return montecarlo.EmpiricalDistribution.from_values(values, n_inf, in_place=True)


def run_experiment(entry, seed, out_dir, index):
    kind = entry.get("kind")
    params = entry.get("params", {})
    asserts = entry.get("assertions", {})
    exp_seed = int(entry.get("seed", seed * 1_000_003 + index))

    if kind == "criterion":
        model = build_model_expr(entry["model"], f"experiments[{index}].model")
        which = params.get("criterion", "S5")
        grid = params.get("grid")
        if which not in _CRITERION_SURFACES:
            raise SchemaError(f"experiments[{index}].params.criterion", f"unknown criterion {which!r}")
        _require_surface(
            model, f"experiments[{index}].model", f"criterion {which}", _CRITERION_SURFACES[which]
        )
        if which == "S5":
            est = criteria.estimate_gamma_s5(model.phi, grid)
        elif which == "S6":
            est = criteria.estimate_gamma_s6(model.cdf1, grid)
        elif which == "S7":
            est = criteria.estimate_gamma_s7(model.tail, grid)
        elif which == "S8":
            est = criteria.estimate_gamma_s8(model.density1, grid)
        else:
            L, _ = _resolve_L(params.get("L", "neg_log"), f"experiments[{index}].params.L")
            est = criteria.estimate_gamma_general(model.phi, L, grid)
        ok = True
        if "expected_gamma" in asserts:
            tol = asserts.get("tol", 0.02)
            ok = est.verdict == "converged" and abs(est.gamma_hat - asserts["expected_gamma"]) <= tol
        if "verdict" in asserts:
            ok = ok and est.verdict == asserts["verdict"]
        result = {"experiment": kind, "model": model.describe(), "params": params,
                  "threshold": asserts.get("tol"), "pass": bool(ok)}
        result.update(est.to_dict())
        return result

    if kind == "criteria_recovery":
        model = build_model_expr(entry["model"], f"experiments[{index}].model")
        expected = asserts["expected_gamma"]
        tol = asserts.get("tol", 0.02)
        ests = criteria.estimate_all(model)
        converged = {c: e.gamma_hat for c, e in ests.items() if e.verdict == "converged"}
        worst = max((abs(v - expected) for v in converged.values()), default=np.inf)
        ok = bool(converged) and worst <= tol
        return {
            "experiment": kind, "model": model.describe(), "params": params,
            "estimates": {c: float(v) for c, v in sorted(converged.items())},
            "statistic": worst if np.isfinite(worst) else None,
            "target": expected, "threshold": tol, "pass": bool(ok),
        }

    if kind == "equivalence":
        model = build_model_expr(entry["model"], f"experiments[{index}].model")
        ests = criteria.estimate_all(model)
        values = {c: e.gamma_hat for c, e in ests.items() if e.verdict == "converged"}
        tol = asserts.get("pairwise_tol", 0.05)
        names = sorted(values)
        spread = max((abs(values[a] - values[b]) for a in names for b in names), default=0.0)
        return {
            "experiment": kind, "model": model.describe(), "params": params,
            "estimates": {c: float(v) for c, v in values.items()},
            "statistic": spread, "threshold": tol, "pass": bool(spread <= tol),
        }

    if kind == "sandwich":
        model = build_model_expr(entry["model"], f"experiments[{index}].model")
        # psi comes from phi when the model has it, else from quadrature of cdf1
        _require_surface(model, f"experiments[{index}].model", "sandwich", "cdf1")
        which = params.get("which", "ol")
        tol = params.get("tol", 1e-9)
        if which == "ol":
            violations = criteria.check_sandwich_ol(model.cdf1, model.phi, tol=tol)
        elif which == "ol2":
            violations = criteria.check_sandwich_ol2(model.cdf1, model.phi, tol=tol)
        else:
            raise SchemaError(f"experiments[{index}].params.which", f"unknown side {which!r}")
        return {
            "experiment": kind, "model": model.describe(), "params": params,
            "statistic": len(violations), "threshold": 0, "pass": not violations,
        }

    if kind == "s2":
        model = build_model_expr(entry["model"], f"experiments[{index}].model")
        _require_surface(model, f"experiments[{index}].model", "s2", "phi")
        gamma = _checked_params(entry, index)["gamma"]
        if gamma is None:
            gamma = _known_index(model, f"experiments[{index}].params.gamma")
        law = montecarlo.ParetoLaw(gamma)
        report = criteria.check_s2(model.phi, law.cdf, params.get("t_grid"), params.get("u_grid"))
        threshold = asserts.get("max_dev", 1e-2)
        return {
            "experiment": kind, "model": model.describe(), "params": params,
            "deviations": [float(d) for d in report.deviations],
            "statistic": report.final, "threshold": threshold,
            "pass": bool(report.final <= threshold),
        }

    if kind == "pareto_limit":
        sp = _checked_params(entry, index)
        model = _sampled_model(entry, index, sp)
        t_list, n, cutoff = sp["t_list"], sp["n"], sp["cutoff"]
        gamma = sp["gamma"]
        if gamma is None:
            gamma = _known_index(model, f"experiments[{index}].params.gamma")
        reports = montecarlo.experiment_pareto_limit(
            model, t_list, n, exp_seed, cutoff=cutoff, gamma=gamma
        )
        final = reports[-1]
        threshold = asserts.get("ks_max")
        ok = threshold is None or final.ks_statistic <= threshold
        if "ks_min" in asserts:
            ok = ok and final.ks_statistic >= asserts["ks_min"]
        slack = asserts.get("trend_slack")
        if slack is not None:
            # trend is checked above the sampling resolution: values at the
            # 1/sqrt(n) noise floor carry no evidence either way
            floor = montecarlo.ks_critical_value(n, 0.01)
            ks = [r.ks_statistic for r in reports]
            ok = ok and all(
                ks[i + 1] <= ks[i] * (1.0 + slack) + floor for i in range(len(ks) - 1)
            )
        if entry.get("csv"):
            # replay the final-t substream so the curve matches the statistic
            emp = _empirical_for_pareto(model, final.t, n, exp_seed, cutoff, stream=len(t_list) - 1)
            _maybe_csv(entry, out_dir, emp, montecarlo.ParetoLaw(gamma).cdf)
        return _ks_result(
            entry, final, threshold,
            extra={"ks_by_t": {str(r.t): r.ks_statistic for r in reports}, "pass": bool(ok)},
        )

    if kind == "general_limit":
        sp = _checked_params(entry, index)
        model = _sampled_model(entry, index, sp)
        L, L_log = _resolve_L(params.get("L", "neg_log"), f"experiments[{index}].params.L")
        reports = montecarlo.experiment_general_limit(
            model, L, sp["gamma"], sp["t_list"], sp["n"], exp_seed, cutoff=sp["cutoff"], L_log=L_log,
        )
        final = reports[-1]
        threshold = asserts.get("ks_max")
        return _ks_result(entry, final, threshold)

    if kind in ("min_rule", "product_rule"):
        sp = _checked_params(entry, index)
        m1 = _sampled_model(entry, index, sp)
        m2 = _sampled_model(entry, index, sp, "model2")
        fn = montecarlo.experiment_min_rule if kind == "min_rule" else montecarlo.experiment_product_rule
        _known_index(m1, f"experiments[{index}].model")
        _known_index(m2, f"experiments[{index}].model2")
        report = fn(m1, m2, sp["t"], sp["n"], exp_seed, cutoff=sp["cutoff"])
        return _ks_result(entry, report, asserts.get("ks_max"))

    if kind == "affine":
        sp = _checked_params(entry, index)
        model = _sampled_model(entry, index, sp)
        _known_index(model, f"experiments[{index}].model")
        report = montecarlo.experiment_affine(
            model, sp["a"], sp["b"], sp["t"], sp["n"], exp_seed, cutoff=sp["cutoff"],
        )
        return _ks_result(entry, report, asserts.get("ks_max"))

    if kind == "mixture":
        sp = _checked_params(entry, index)
        model = _sampled_model(entry, index, sp)
        _known_index(model, f"experiments[{index}].model")
        report, jump = montecarlo.experiment_mixture(
            model, sp["q"], sp["t"], sp["n"], exp_seed, cutoff=sp["cutoff"],
        )
        threshold = asserts.get("ks_max")
        ok = threshold is None or report.ks_statistic <= threshold
        jump_tol = asserts.get("jump_tol")
        if jump_tol is not None:
            ok = ok and abs(jump - (1.0 - sp["q"])) <= jump_tol
        return _ks_result(entry, report, threshold, extra={"jump_at_one": jump, "pass": bool(ok)})

    if kind == "drift":
        sp = _checked_params(entry, index)
        model = _sampled_model(entry, index, sp)
        report = montecarlo.experiment_drift(
            model, sp["c"], sp["t"], sp["n"], exp_seed,
            cutoff=sp["cutoff"], window=params.get("window", 0.05),
        )
        threshold = asserts.get("min_fraction", 0.99)
        return {
            "experiment": kind, "model": report.model, "params": params,
            "t": report.t, "n": report.n, "statistic": report.fraction_within,
            "threshold": threshold, "pass": bool(report.fraction_within >= threshold),
        }

    if kind == "support":
        sp = _checked_params(entry, index)
        model = _sampled_model(entry, index, sp)
        t, n = sp["t"], sp["n"]
        emp = _empirical_for_pareto(model, t, n, exp_seed, sp["cutoff"])
        fraction = montecarlo.support_check(emp, sp["delta"])
        threshold = asserts.get("max_fraction", 0.01)
        return {
            "experiment": kind, "model": model.describe(), "params": params,
            "t": t, "n": n, "statistic": fraction, "threshold": threshold,
            "pass": bool(fraction <= threshold),
        }

    if kind == "ergodic":
        model = build_model_expr(entry["model"], f"experiments[{index}].model")
        fname = params.get("functional", "ramp")
        if fname not in FUNCTIONALS:
            raise SchemaError(f"experiments[{index}].params.functional", f"unknown functional {fname!r}")
        f, delta0 = FUNCTIONALS[fname]
        if model.levy_density is None:
            raise SchemaError(f"experiments[{index}].model", "ergodic target needs a jump density")
        if not can_sample(model):
            raise SchemaError(
                f"experiments[{index}].model",
                "ergodic estimate needs an exact sampler or an invertible jump tail",
            )
        sp = _checked_params(entry, index)
        if sp["cutoff"] >= delta0:
            raise SchemaError(
                f"experiments[{index}].params.cutoff",
                f"must lie below the functional's delta0 = {delta0:g}, got {sp['cutoff']!r}",
            )
        est = montecarlo.estimate_ergodic_functional(
            model, f, delta0, sp["t"], sp["n"], exp_seed, cutoff=sp["cutoff"],
        )
        upper = model.tail.support_upper if model.tail is not None else np.inf
        target, _ = integrate.quad(
            lambda x: float(f(x)) * float(model.levy_density(x)), delta0,
            upper if np.isfinite(upper) else 100.0, limit=200,
        )
        rel_tol = asserts.get("rel_tol", 0.05)
        rel_err = abs(est.value - target) / abs(target)
        return {
            "experiment": kind, "model": model.describe(), "params": params,
            "t": est.t, "n": est.n, "statistic": est.value, "stderr": est.stderr,
            "target": target, "threshold": rel_tol, "pass": bool(rel_err <= rel_tol),
        }

    if kind == "family_limit":
        fparams = entry.get("family", {"name": "stable_nef", "params": {"a": 1.0, "theta": 1.0}})
        if fparams.get("name") != "stable_nef":
            raise SchemaError(f"experiments[{index}].family", "only stable_nef is available")
        family = catalog.make_stable_nef(**fparams.get("params", {}))
        report = montecarlo.check_family_limit(family, params.get("t_grid"), params.get("u_grid"))
        threshold = asserts.get("max_dev", 1e-3)
        return {
            "experiment": kind, "model": family.describe(), "params": params,
            "deviations": [float(d) for d in report.deviations],
            "statistic": report.final, "threshold": threshold,
            "pass": bool(report.final <= threshold),
        }

    if kind == "dickman_rho":
        # the default table covers z in [0, 40]
        z = _param(params, "z", index, None, lambda v: 0 <= v <= 40, "a number in [0, 40]")
        value = float(dickman_rho(z))
        expected = asserts["expected"]
        tol = asserts.get("tol", 1e-8)
        return {
            "experiment": kind, "model": "dickman_rho", "params": params,
            "statistic": value, "target": expected, "threshold": tol,
            "pass": bool(abs(value - expected) <= tol),
        }

    if kind == "dickman_density_norm":
        z_max = params.get("z_max", 40)
        total = sum(
            integrate.quad(dickman_density, a, a + 1, limit=200)[0] for a in range(int(z_max))
        )
        tol = asserts.get("tol", 1e-6)
        return {
            "experiment": kind, "model": "dickman_density", "params": params,
            "statistic": total, "target": 1.0, "threshold": tol,
            "pass": bool(abs(total - 1.0) <= tol),
        }

    if kind == "recursion_mean":
        sp = _checked_params(entry, index)
        gamma, n = sp["gamma"], sp["n"]
        depth = recursion_depth(gamma) if sp["depth"] is None else int(sp["depth"])
        rng = substream(exp_seed, 0)
        samples = sample_dickman_recursion(gamma, depth, rng, n)
        mean = float(samples.mean())
        stderr = float(samples.std(ddof=1) / np.sqrt(n))
        mult = asserts.get("sigma_mult", 3.0)
        return {
            "experiment": kind, "model": f"dickman_recursion(gamma={gamma:g})", "params": params,
            "n": n, "statistic": mean, "stderr": stderr, "target": gamma,
            "threshold": mult, "pass": bool(abs(mean - gamma) <= mult * stderr),
        }

    if kind == "two_sampler_ks":
        sp = _checked_params(entry, index)
        gamma, n, cutoff = sp["gamma"], sp["n"], sp["cutoff"]
        model = catalog.build_model("dickman", {"gamma": gamma})
        rec = sample_dickman_recursion(gamma, recursion_depth(gamma), substream(exp_seed, 0), n)
        idx, sums = sample_cutoff_cp(model.tail, cutoff, 1.0, substream(exp_seed, 1), n)
        cp = np.zeros(n)
        cp[idx] = sums
        stat = montecarlo.two_sample_ks(rec, cp)
        crit = montecarlo.two_sample_ks_critical_value(n, n, asserts.get("level", 0.01))
        return {
            "experiment": kind, "model": f"dickman(gamma={gamma:g})", "params": params,
            "n": n, "statistic": stat, "threshold": crit, "pass": bool(stat <= crit),
        }

    raise SchemaError(f"experiments[{index}].kind", f"unknown experiment kind {kind!r}")


def validate_config(config):
    if not isinstance(config, dict):
        raise SchemaError("<root>", "config must be a JSON object")
    if "experiments" not in config or not isinstance(config["experiments"], list):
        raise SchemaError("experiments", "missing or not a list")
    for i, entry in enumerate(config["experiments"]):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise SchemaError(f"experiments[{i}]", "each experiment needs a 'kind'")
        if not isinstance(entry.get("params", {}), dict):
            raise SchemaError(f"experiments[{i}].params", "must be an object")
        # the fields of every entry are checked before any entry samples
        if isinstance(entry["kind"], str) and entry["kind"] in _PARAM_DEFAULTS:
            _checked_params(entry, i)


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
        effective_seed = seed
        if effective_seed is None:
            effective_seed = config.get("seed")
        if effective_seed is None:
            effective_seed = int(os.environ.get(ENV_SEED, "0"))
        effective_seed = int(effective_seed)
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


def list_catalog():
    """Inventory of models, transforms, criteria and experiment kinds."""
    return {
        "models": {
            name: {"params": schema, "exposes": list(exposes)}
            for name, (_, schema, exposes) in sorted(catalog.CATALOG.items())
        },
        "families": {"stable_nef": {"params": {"a": "float > 0", "theta": "float > 0"}}},
        "transforms": TRANSFORM_GRAMMAR,
        "criteria": ["S5", "S6", "S7", "S8", "GL"],
        "L_functions": sorted(L_FUNCTIONS),
        "functionals": sorted(FUNCTIONALS),
        "experiment_kinds": [
            "criterion", "criteria_recovery", "equivalence", "sandwich", "s2", "pareto_limit",
            "general_limit", "min_rule", "product_rule", "affine", "mixture",
            "drift", "support", "ergodic", "family_limit", "dickman_rho",
            "dickman_density_norm", "recursion_mean", "two_sampler_ks",
        ],
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
