"""Traced in-process run of ``subordlab.cli.run`` and the per-layer figures read from it.

Run as a script, this module imports ``subordlab.cli``, wraps the public
functions of each layer, runs one config at ``--threads 1`` and writes the
spans it recorded as JSON::

    PYTHONPATH=src python perfbench/tracer.py CONFIG OUT_DIR SEED SPANS_JSON

A span is (name, binding site, start, end, parent, experiment index,
counts).  Spans are kept in memory and written once, after the run.
``layer_metrics`` turns the spans into the ``per_layer`` metrics of
BENCHMARK.json; ``run.py`` calls it in the parent process.

Several modules bind names with ``from .x import y``, so patching the
defining module alone would miss calls.  Every layer function is
therefore replaced at each binding site: every attribute of every loaded
``subordlab`` module (and ``scipy.integrate`` for ``quad``) that is the
original function object gets its own wrapper, tagged with the site.
Classmethods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time


def _n(bound):
    return int(bound["n"])


# span name -> (owner path, attribute, meter).  A meter maps the bound call
# arguments and the result to the counts recorded on the span.
LAYERS = {
    "cli.experiment": [("subordlab.cli", "run_experiment", None)],
    "cli.build": [("subordlab.cli", "build_model_expr", None)],
    "catalog.build": [
        ("subordlab.catalog", "build_model", None),
        ("subordlab.catalog", "make_stable_nef", None),
    ],
    "transforms.build": [
        ("subordlab.transforms", name, None)
        for name in ("tilt", "add", "compose_outer", "compose_inner", "add_drift")
    ],
    "simulate.sample_marginal": [
        ("subordlab.simulate", "sample_marginal", lambda b, r: {"samples": _n(b)}),
    ],
    "simulate.cutoff_cp": [
        ("subordlab.simulate", "sample_cutoff_cp",
         lambda b, r: {"samples": _n(b),
                       "jumps": _n(b) * float(b["t"]) * float(b["tail"].tail(b["eps"]))}),
    ],
    "simulate.transform": [
        ("subordlab.simulate", "to_neg_t_power", lambda b, r: {"at_inf": int(r[1])}),
        ("subordlab.simulate", "to_tl", lambda b, r: {"at_inf": int(r[1])}),
    ],
    "dickman.recursion": [
        ("subordlab.dickman", "sample_dickman_recursion",
         lambda b, r: {"samples": _n(b), "uniforms": _n(b) * int(b["depth"])}),
    ],
    "dickman.table_build": [("subordlab.dickman:DickmanFunction", "build", None)],
    "montecarlo.sort": [
        ("subordlab.montecarlo:EmpiricalDistribution", "from_values",
         lambda b, r: {"points": int(r.values.size)}),
    ],
    "montecarlo.ks": [
        ("subordlab.montecarlo", "ks_distance", lambda b, r: {"points": int(b["emp"].values.size)}),
        ("subordlab.montecarlo", "two_sample_ks",
         lambda b, r: {"points": len(b["x"]) + len(b["y"])}),
    ],
    "montecarlo.export": [
        ("subordlab.montecarlo", "export_curve", lambda b, r: {"rows": int(b["emp"].values.size)}),
    ],
    "montecarlo.experiment": [
        ("subordlab.montecarlo", name, None)
        for name in ("experiment_pareto_limit", "experiment_general_limit", "experiment_min_rule",
                     "experiment_product_rule", "experiment_affine", "experiment_mixture",
                     "experiment_drift", "estimate_ergodic_functional", "check_family_limit")
    ],
    "criteria.estimate": [
        ("subordlab.criteria", name, lambda b, r: {"converged": int(r.verdict == "converged")})
        for name in ("estimate_gamma_s5", "estimate_gamma_s6", "estimate_gamma_s7",
                     "estimate_gamma_s8", "estimate_gamma_general")
    ],
    "criteria.check": [
        ("subordlab.criteria", name, None)
        for name in ("check_s2", "check_sandwich_ol", "check_sandwich_ol2")
    ],
    "core.lst": [("subordlab.core", "lst_from_cdf", None)],
    "quad": [("scipy.integrate", "quad", None)],
}

# Binding sites that must have been replaced.  Each one copies a name with
# ``from .x import y``; a site left unwrapped would read as zero calls.
REQUIRED_SITES = (
    "subordlab.cli.sample_dickman_recursion",
    "subordlab.cli.sample_marginal",
    "subordlab.cli.sample_cutoff_cp",
    "subordlab.montecarlo.sample_marginal",
    "subordlab.montecarlo.to_neg_t_power",
    "subordlab.montecarlo.to_tl",
    "subordlab.criteria.lst_from_cdf",
    "subordlab.montecarlo.EmpiricalDistribution.from_values",
    "subordlab.dickman.DickmanFunction.build",
    "scipy.integrate.quad",
)

# Spans (and single binding sites) that must record calls on the workload
# meant to exercise them.
EXPECTED_CALLS = {
    "acceptance": (
        "cli.experiment", "cli.build", "catalog.build", "transforms.build",
        "simulate.sample_marginal", "simulate.cutoff_cp", "simulate.transform",
        "dickman.recursion", "dickman.table_build", "montecarlo.sort", "montecarlo.ks",
        "criteria.estimate", "criteria.check", "core.lst", "quad",
        "subordlab.cli.sample_dickman_recursion", "subordlab.cli.sample_cutoff_cp",
        "subordlab.dickman.sample_dickman_recursion", "subordlab.criteria.lst_from_cdf",
    ),
    "mc-sweep": (
        "cli.experiment", "cli.build", "catalog.build", "transforms.build",
        "simulate.sample_marginal", "simulate.cutoff_cp", "simulate.transform",
        "montecarlo.sort", "montecarlo.ks", "montecarlo.export", "quad",
        "subordlab.cli.sample_marginal", "subordlab.montecarlo.sample_marginal",
        "subordlab.montecarlo.to_neg_t_power", "subordlab.montecarlo.to_tl",
        "subordlab.simulate.sample_cutoff_cp", "subordlab.simulate.to_neg_t_power",
    ),
}

# Counts that must repeat exactly between two traced runs of one config.
EXACT_COUNTS = (
    "cli.experiments", "catalog.builds", "simulate.samples", "simulate.cp_jumps",
    "simulate.at_inf", "dickman.recursion_uniforms", "dickman.table_builds",
    "montecarlo.ks_points", "montecarlo.export_rows", "criteria.estimates",
    "core.lst_calls", "quad.calls",
)


class Tracer:
    """Records one span per wrapped call; spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans = []
        self.sites = {}
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, site, fn, meter):
        sig = inspect.signature(fn)
        experiment = name == "cli.experiment"
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if experiment:
                exp = int(sig.bind(*args, **kwargs).arguments["index"])
            else:
                exp = parent[5] if parent is not None else None
            span = [name, site, time.perf_counter(), None, parent, exp, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = time.perf_counter()
            if meter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = meter(bound.arguments, result)
            return result

        return wrapper

    def install(self):
        """Replace every binding site of every layer function with a wrapper."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "subordlab" or k.startswith("subordlab.")]
        modules.append(importlib.import_module("scipy.integrate"))
        for name, entries in LAYERS.items():
            for owner_path, attr, meter in entries:
                mod_name, _, cls_name = owner_path.partition(":")
                owner = importlib.import_module(mod_name)
                if cls_name:
                    cls = getattr(owner, cls_name)
                    fn = cls.__dict__[attr].__func__
                    site = f"{mod_name}.{cls_name}.{attr}"
                    setattr(cls, attr, classmethod(self.wrap(name, site, fn, meter)))
                    self.sites[site] = name
                    continue
                original = getattr(owner, attr)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            site = f"{mod.__name__}.{key}"
                            setattr(mod, key, self.wrap(name, site, original, meter))
                            self.sites[site] = name

    def dump(self, path):
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, site, start, end, index[id(parent)] if parent is not None else None, exp, counts]
            for name, site, start, end, parent, exp, counts in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"sites": self.sites, "spans": rows}, fh)


def layer_metrics(spans):
    """Per-layer metrics from the span rows written by ``Tracer.dump``."""
    n = len(spans)
    dur = [end - start for _, _, start, end, _, _, _ in spans]
    child = [0.0] * n
    for i, row in enumerate(spans):
        if row[4] is not None:
            child[row[4]] += dur[i]

    def ancestors(i):
        p = spans[i][4]
        while p is not None:
            yield p
            p = spans[p][4]

    def select(name):
        return [i for i in range(n) if spans[i][0] == name]

    def inclusive(name):
        # outermost spans only, so recursive calls are not counted twice
        return sum(dur[i] for i in select(name)
                   if all(spans[a][0] != name for a in ancestors(i)))

    def self_time(name):
        return sum(dur[i] - child[i] for i in select(name))

    def total(name, key):
        return sum((spans[i][6] or {}).get(key, 0) for i in select(name))

    # a draw is counted at the outermost sampler only (an add model samples
    # its two parts inside one sample_marginal call)
    samplers = ("simulate.sample_marginal", "simulate.cutoff_cp", "dickman.recursion")
    samples = sum(
        spans[i][6]["samples"] for i in range(n)
        if spans[i][0] in samplers and spans[i][6] is not None
        and not any(spans[a][0] in samplers for a in ancestors(i))
    )
    experiments = select("cli.experiment")
    estimates = len(select("criteria.estimate"))
    return {
        "cli.experiments": len(experiments),
        "cli.self_s": self_time("cli.experiment"),
        "cli.build_s": inclusive("cli.build"),
        "cli.exp_max_s": max((dur[i] for i in experiments), default=0.0),
        "catalog.build_s": inclusive("catalog.build"),
        "catalog.builds": len(select("catalog.build")),
        "transforms.build_s": inclusive("transforms.build"),
        "simulate.sample_s": self_time("simulate.sample_marginal"),
        "simulate.samples": samples,
        "simulate.cp_s": inclusive("simulate.cutoff_cp"),
        "simulate.cp_jumps": total("simulate.cutoff_cp", "jumps"),
        "simulate.transform_s": inclusive("simulate.transform"),
        "simulate.at_inf": total("simulate.transform", "at_inf"),
        "dickman.recursion_s": inclusive("dickman.recursion"),
        "dickman.recursion_uniforms": total("dickman.recursion", "uniforms"),
        "dickman.table_build_s": inclusive("dickman.table_build"),
        "dickman.table_builds": len(select("dickman.table_build")),
        "montecarlo.self_s": self_time("montecarlo.experiment"),
        "montecarlo.sort_s": inclusive("montecarlo.sort"),
        "montecarlo.ks_s": inclusive("montecarlo.ks"),
        "montecarlo.ks_points": total("montecarlo.ks", "points"),
        "montecarlo.export_s": inclusive("montecarlo.export"),
        "montecarlo.export_rows": total("montecarlo.export", "rows"),
        "criteria.estimate_s": inclusive("criteria.estimate"),
        "criteria.estimates": estimates,
        "criteria.converged_frac": (total("criteria.estimate", "converged") / estimates
                                    if estimates else 0.0),
        "criteria.check_s": inclusive("criteria.check"),
        "core.lst_s": inclusive("core.lst"),
        "core.lst_calls": len(select("core.lst")),
        "quad.calls": len(select("quad")),
        "quad.s": inclusive("quad"),
    }


def missing_calls(workload, trace):
    """Required sites left unwrapped, and expected spans or sites with no calls."""
    problems = [f"binding site {s} was not wrapped"
                for s in REQUIRED_SITES if s not in trace["sites"]]
    called = {row[0] for row in trace["spans"]} | {row[1] for row in trace["spans"]}
    problems += [f"{key} recorded no calls on {workload}"
                 for key in EXPECTED_CALLS[workload] if key not in called]
    return problems


def main(argv):
    config, out_dir, seed, spans_path = argv
    from subordlab import cli

    tracer = Tracer()
    tracer.install()
    try:
        code, _ = cli.run(config, out_dir=out_dir, seed=int(seed), threads=1)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
