"""Benchmark of the ``subordlab`` CLI: cold end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 55 --trace 0

Run from anywhere; the repository root is the parent of this directory and
nothing is installed (children get ``PYTHONPATH=src``).  Workloads are
JSON configs, each run closed-loop by one CLI process; ``--seed`` is passed
to the CLI as ``--seed``, and without it the config's own seed is used.

``--trace 0`` runs cold CLI processes for at most ``--seconds`` seconds,
one at a time, at ``--threads 1`` and ``--threads $(nproc)`` in the order
1, n, n, 1, 1, n, ..., and never fewer than ``MIN_RUNS`` at each.  Each CLI
process starts the way the ``subordlab`` console script does and stamps the
moment its ``import subordlab.cli`` is done, which gives ``setup_s``.
``setup_s`` is the median over every run; the wall times are the mean and
the peak RSS the largest over the runs at their thread count.  The samples
are printed beside the result.

``--trace 1`` does a fixed amount of work: one ``python -X importtime``
import, one untraced cold CLI run at ``--threads 1`` and two traced runs
(``tracer.py``) in fresh processes.  It reports the per-layer metrics of the
first traced run, checks that every count repeats exactly in the second,
and that every layer recorded calls on the workload meant for it.

An experiment fails (``failed``) when it reports ``pass: false``, when its
run exits with code 2 or 3 (or without a report), or when it differs
between the two thread counts (the i-th run at one is compared with the
i-th at the other).  ``correct`` is false when a run wrote no report, when
the reports (``timestamp`` removed) of the runs of a workload differ, or
when a trace check fails.  The report's sha256 is
printed beside the metrics, on the line before the result, which is the
last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "acceptance": os.path.join(SRC, "subordlab", "configs", "acceptance.json"),
    "mc-sweep": os.path.join(HERE, "configs", "mc-sweep.json"),
}

MIN_RUNS = 3  # at each thread count
# what the ``subordlab`` console script runs, plus a stamp when the import is done
BOOT = ("import sys, time, subordlab.cli; "
        "print('perfbench-imported', repr(time.monotonic()), file=sys.stderr, flush=True); "
        "sys.exit(subordlab.cli.main())")
IMPORT_PREFIXES = {
    "import.numpy_s": "numpy",
    "import.scipy_special_s": "scipy.special",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.subordlab_s": "subordlab",
}


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SUBORDLAB_SEED", None)
    return env


def spawn(cmd, log_path):
    """Run one child to its end; returns (exit code, start, wall seconds, own rusage).

    ``start`` is ``time.monotonic()`` just before the child was started.
    """
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would give
            # the running maximum over every child of this process
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage


def report_digest(path):
    """(report without timestamp, sha256 of it as the CLI writes it), or (None, None)."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None, None
    report.pop("timestamp", None)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return report, hashlib.sha256(text.encode()).hexdigest()


def cli_run(config, seed, threads, out_dir):
    """One cold CLI process, started the way the ``subordlab`` console script starts.

    Besides its wall time and peak RSS, the run yields ``setup``: seconds from
    the process start until ``import subordlab.cli`` completed, stamped by
    the child on its log.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, "-c", BOOT, "--config", config, "--out", out_dir,
           "--threads", str(threads)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    log = out_dir + ".log"
    code, start, wall, usage = spawn(cmd, log)
    with open(log) as fh:
        stamp = re.search(r"^perfbench-imported (\S+)$", fh.read(), re.M)
    report, digest = report_digest(os.path.join(out_dir, "report.json"))
    return {"code": code, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "setup": float(stamp.group(1)) - start if stamp else None,
            "report": report, "sha256": digest}


def failed_experiments(run, n_experiments, other=None):
    """Indices of the experiments of ``run`` that count as failed."""
    if run["code"] in (2, 3) or run["report"] is None:
        return set(range(n_experiments))
    results = run["report"]["results"]
    bad = {i for i, r in enumerate(results) if not r.get("pass", False)}
    if other is not None:
        theirs = other["report"]["results"] if other["report"] is not None else []
        bad |= {i for i, r in enumerate(results) if i >= len(theirs) or theirs[i] != r}
    return bad


def import_times(out_dir):
    """Cumulative import seconds per package, from ``python -X importtime``.

    The time of a package is the sum over its outermost entries (the
    package or any of its submodules, not nested in another of them):
    scipy's lazy loader imports ``scipy.integrate`` without an entry of its
    own, so only its submodules appear.
    """
    log = os.path.join(out_dir, "importtime.log")
    code, _, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import subordlab.cli"], log)
    if code != 0:
        raise RuntimeError(f"import subordlab.cli failed, see {log}")
    entries = []
    with open(log) as fh:
        for line in fh:
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                entries.append((int(m.group(1)), len(m.group(2)), m.group(3)))
    out = {}
    for metric, prefix in IMPORT_PREFIXES.items():
        total = 0
        ancestors = []  # (depth, in the package) of the entries enclosing the current one
        for cum, depth, name in reversed(entries):
            # children are printed before their parent: walking backwards,
            # the entries still on the stack are the ancestors
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            inside = name == prefix or name.startswith(prefix + ".")
            if inside and not any(outer for _, outer in ancestors):
                total += cum
            ancestors.append((depth, inside))
        out[metric] = total / 1e6
    return out


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    # expected jumps n*t*nu_bar(eps) summed over calls: computed, not counted
    return "count-computed" if name == "simulate.cp_jumps" else "count"


def environment():
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "git_sha": None}
    for package in ("numpy", "scipy"):
        try:
            env[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            env[package] = None
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                env[f"l{level}_cache"] = size
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            env["git_sha"] = git.stdout.strip() or None
        except OSError:
            pass
    return env


def measure(config, seed, seconds, out_dir, n_experiments):
    nproc = len(os.sched_getaffinity(0))
    one, par = [], []
    start = time.monotonic()
    for k in itertools.count():
        # order 1, n, n, 1, 1, n, ...: each thread count runs first as often
        runs = par if (k + 1) // 2 % 2 else one
        if min(len(one), len(par)) >= MIN_RUNS:
            # no run is started that would end after ``seconds``, judged by
            # the mean wall time of the runs at its thread count so far
            pace = statistics.mean(run["wall"] for run in runs)
            if time.monotonic() - start + pace > seconds:
                break
        threads = nproc if runs is par else 1
        runs.append(cli_run(config, seed, threads, os.path.join(out_dir, f"r{k}-t{threads}")))
    attempted = failed = 0
    # the i-th run at one thread count is compared with the i-th at the other
    for mine, theirs in ((one, par), (par, one)):
        for i, run in enumerate(mine):
            attempted += n_experiments
            failed += len(failed_experiments(run, n_experiments, theirs[min(i, len(theirs) - 1)]))
    samples = {
        "setup_s": [run["setup"] for run in one + par if run["setup"] is not None],
        "wall_s": [run["wall"] for run in one],
        "wall_par_s": [run["wall"] for run in par],
        "rss_peak_mb": [run["rss_mb"] for run in one],
        "rss_peak_par_mb": [run["rss_mb"] for run in par],
    }
    # Wall times are means, not medians: on a shared host a single-threaded
    # run is fast or slow by up to 1.7x for seconds at a time, and the median
    # of a few such runs jumps between the two modes while the mean moves
    # with their mix (see NOTES.md).  ``setup_s`` has a sample in every run,
    # enough for a median.  Peak RSS is the largest over the runs: at
    # ``--threads nproc`` it depends on which experiments happen to overlap.
    summary = {"setup_s": statistics.median, "wall_s": statistics.mean,
               "wall_par_s": statistics.mean, "rss_peak_mb": max, "rss_peak_par_mb": max}
    metrics = {name: {"value": summary[name](v), "unit": "s" if name.endswith("_s") else "MB"}
               for name, v in samples.items()}
    detail = {"threads_par": nproc, "runs": [len(one), len(par)], "samples": samples}
    return one + par, attempted, failed, metrics, detail


def traced_run(config, seed, out_dir, k):
    spans_path = os.path.join(out_dir, f"spans{k}.json")
    run_dir = os.path.join(out_dir, f"traced{k}")
    cmd = [sys.executable, os.path.join(HERE, "tracer.py"), config, run_dir,
           str(seed), spans_path]
    code, _, wall, _ = spawn(cmd, run_dir + ".log")
    with open(spans_path) as fh:
        trace = json.load(fh)
    report, digest = report_digest(os.path.join(run_dir, "report.json"))
    return {"code": code, "wall": wall, "report": report, "sha256": digest, "trace": trace}


def measure_layers(workload, config, seed, out_dir, n_experiments):
    metrics = import_times(out_dir)
    plain = cli_run(config, seed, 1, os.path.join(out_dir, "plain"))
    traced = [traced_run(config, seed, out_dir, k) for k in range(2)]
    layers = [tracer.layer_metrics(t["trace"]["spans"]) for t in traced]
    metrics.update(layers[0])
    traced_wall = statistics.median(t["wall"] for t in traced)
    metrics["trace.overhead_frac"] = traced_wall / plain["wall"] - 1.0
    problems = tracer.missing_calls(workload, traced[0]["trace"])
    problems += [f"{name} differs between traced runs: {layers[0][name]} vs {layers[1][name]}"
                 for name in tracer.EXACT_COUNTS if layers[0][name] != layers[1][name]]
    runs = [plain] + traced
    attempted = failed = 0
    for run in traced:
        attempted += n_experiments
        failed += len(failed_experiments(run, n_experiments, plain))
    attempted += n_experiments
    failed += len(failed_experiments(plain, n_experiments))
    detail = {"traced_walls": [t["wall"] for t in traced], "plain_wall": plain["wall"]}
    return runs, attempted, failed, metrics, detail, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to the CLI as --seed (default: the config's own seed)")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "subordlab", "cli.py")):
        print(f"error: no subordlab sources under {SRC}", file=sys.stderr)
        return 2
    config = WORKLOADS[args.workload]
    with open(config) as fh:
        spec = json.load(fh)
    n_experiments, default_seed = len(spec["experiments"]), spec["seed"]

    out_dir = os.path.join(ROOT, ".perfbench_out", str(os.getpid()))
    os.makedirs(out_dir)
    try:
        # compiles the bytecode caches, which a user's repeated runs would find in place
        spawn([sys.executable, "-c", "import subordlab.cli"], os.path.join(out_dir, "warm.log"))
        if args.trace:
            seed = args.seed if args.seed is not None else default_seed
            runs, attempted, failed, metrics, detail, problems = measure_layers(
                args.workload, config, seed, out_dir, n_experiments)
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in metrics.items()}
        else:
            runs, attempted, failed, metrics, detail = measure(
                config, args.seed, args.seconds, out_dir, n_experiments)
            problems = []
        # A failed assertion is a failed experiment, not an incorrect output:
        # the statistical gates fail at their own rate on some seeds.
        digests = sorted({run["sha256"] for run in runs if run["sha256"] is not None})
        problems += [f"a run exited with code {run['code']} and wrote no report"
                     for run in runs if run["report"] is None]
        if len(digests) != 1:
            problems.append(f"reports differ between runs: {digests}")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        failing = sorted({f"{i}:{r['experiment']}" for run in runs if run["report"]
                          for i, r in enumerate(run["report"]["results"]) if not r.get("pass")})
        if failed:
            print(f"{failed} of {attempted} experiments failed: {failing}", file=sys.stderr)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "report_sha256": digests, "failing": failing,
                          "environment": environment(), **detail}))
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
