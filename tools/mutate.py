"""Mutation score of the Tier-1 suite, one module at a time: which small breaks the tests catch.

Run from the root of a checkout (``--tree`` names another)::

    python3 tools/mutate.py simulate montecarlo --jobs 2

A mutant applies one operator of a fixed set at one site of
``src/subordlab/<module>.py``:

- ``comparison``: < <-> <=, > <-> >=, == <-> !=;
- ``arithmetic``: + <-> -, * <-> /, ** -> *, binary or augmented;
- ``number``: an int constant + 1, a float constant * 1.01.

The sites are found with ``ast`` and each mutant is spliced into the
source text, so comments and layout stay; a site inside an f-string, a
gap between operands that holds a comment, and a mutant that does not
compile or does not change the constant are not candidates.  A sample of
at most ``PER_MODULE`` candidates per module, drawn by
``random.Random(SEED)`` from the candidates in source order, runs: the
sample is fixed, so scores compare across changes.  Each runs in a copy of the
tree made in a temporary directory, one copy per job: the module there is
overwritten by the mutant, ``pytest -x`` runs with the module's own test
file first, and the original is written back.  The tree given is never
written, and the copies are removed at the end.

A mutant is killed when pytest exits non-zero, or runs past ``TIMEOUT``
seconds; pytest runs in a session of its own, whose processes are killed
when it ends either way.  The unmutated suite runs once first, and no
score is given unless it passes.

Prints one JSON line per mutant, then the table per module as Markdown,
then the wall time.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

COMPARISONS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
               ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
              ast.Div: ("/", "*"), ast.Pow: ("**", "*")}
CLASSES = ("comparison", "arithmetic", "number")
SEED = 0
PER_MODULE = 50
# a passing Tier-1 run takes under a minute; a mutant can make a loop endless
TIMEOUT = 300.0
# copied with the tree but never needed by a test run
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_out")


class Mutant(NamedTuple):
    """``source[start:end]`` (byte offsets) replaced by ``text``, at ``line`` of ``where``."""

    kind: str
    start: int
    end: int
    text: bytes
    line: int
    where: str

    def apply(self, source):
        return source[: self.start] + self.text + source[self.end :]

    def describe(self, source):
        return (f"{self.where}:{self.line} {self.kind} "
                f"{source[self.start : self.end].decode()} -> {self.text.decode()}")


class _Sites(ast.NodeVisitor):
    """Every mutant of a module's source, in source order."""

    def __init__(self, source):
        self.source = source
        # byte offset of each line's start: ast's columns count UTF-8 bytes
        self.starts = [0]
        for line in source.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))
        self.scope = ["<module>"]
        self.found = []

    def offset(self, line, col):
        return self.starts[line - 1] + col

    def add(self, kind, start, end, text, line):
        self.found.append(Mutant(kind, start, end, text, line, ".".join(self.scope)))

    def operator(self, kind, left, right, symbols, augmented=False):
        """The operator between the nodes left and right, swapped for its mutant."""
        lo = self.offset(left.end_lineno, left.end_col_offset)
        hi = self.offset(right.lineno, right.col_offset)
        gap = self.source[lo:hi]
        old, new = (s.encode() + (b"=" if augmented else b"") for s in symbols)
        if b"#" in gap or gap.count(old) != 1:
            return
        at = lo + gap.index(old)
        self.add(kind, at, at + len(old), new, left.end_lineno)

    def scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = scoped

    def visit_JoinedStr(self, node):
        pass  # f-string parts carry no reliable positions

    def visit_Compare(self, node):
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            if type(op) in COMPARISONS:
                self.operator("comparison", left, right, COMPARISONS[type(op)])
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if type(node.op) in ARITHMETIC:
            self.operator("arithmetic", node.left, node.right, ARITHMETIC[type(node.op)])
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if type(node.op) in ARITHMETIC:
            self.operator("arithmetic", node.target, node.value, ARITHMETIC[type(node.op)], True)
        self.generic_visit(node)

    def visit_Constant(self, node):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        nudged = value + 1 if isinstance(value, int) else value * 1.01
        if nudged != value:
            self.add("number", self.offset(node.lineno, node.col_offset),
                     self.offset(node.end_lineno, node.end_col_offset), repr(nudged).encode(),
                     node.lineno)


def candidates(source, filename):
    """The module's mutants that compile, in source order."""
    sites = _Sites(source)
    sites.visit(ast.parse(source, filename))
    found = []
    for mutant in sorted(sites.found, key=lambda m: (m.start, m.kind)):
        try:
            compile(mutant.apply(source), filename, "exec", dont_inherit=True)
        except SyntaxError:
            continue
        found.append(mutant)
    return found


def pytest_passes(copy, module):
    """Whether ``pytest -x`` passes in the copy (its module's test file first); None on timeout."""
    # each file named: pytest runs a directory argument in its own order
    files = sorted(os.path.join("tests", name) for name in os.listdir(os.path.join(copy, "tests"))
                   if name.startswith("test_") and name.endswith(".py"))
    own = os.path.join("tests", f"test_{module}.py")
    files.sort(key=lambda name: name != own)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    # no bytecode: a mutant of the original's size, written within its second, must not
    # be read from a stale cache
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:  # pytest's session, and whatever it left running
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return None if code is None else code == 0


def run_mutant(copies, module, mutant):
    """(survived, timed out) of the mutant, run in a free copy of the tree."""
    copy = copies.get()
    path = os.path.join(copy, "src", "subordlab", f"{module}.py")
    with open(path, "rb") as fh:
        original = fh.read()
    try:
        with open(path, "wb") as fh:
            fh.write(mutant.apply(original))
        passed = pytest_passes(copy, module)
    finally:
        with open(path, "wb") as fh:
            fh.write(original)
        copies.put(copy)
    return passed is True, passed is None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="modules of src/subordlab, e.g. simulate")
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--tree", default=here, help="the checkout to score (default: this one)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="mutants run at once, one tree copy each")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    began = time.perf_counter()
    scratch = tempfile.mkdtemp(prefix="mutate-")
    try:
        copies = queue.Queue()
        for k in range(args.jobs):
            copies.put(shutil.copytree(args.tree, os.path.join(scratch, str(k)), ignore=IGNORED))
        if not pytest_passes(os.path.join(scratch, "0"), args.modules[0]):
            print("the unmutated suite fails: no score", file=sys.stderr)
            return 1
        rows = []
        for module in args.modules:
            path = os.path.join(args.tree, "src", "subordlab", f"{module}.py")
            with open(path, "rb") as fh:
                source = fh.read()
            found = candidates(source, path)
            picked = random.Random(SEED).sample(range(len(found)), min(PER_MODULE, len(found)))
            sample = [found[i] for i in sorted(picked)]
            with ThreadPoolExecutor(args.jobs) as pool:
                outcomes = list(pool.map(lambda m: run_mutant(copies, module, m), sample))
            survivors = {kind: 0 for kind in CLASSES}
            for mutant, (survived, timed_out) in zip(sample, outcomes):
                survivors[mutant.kind] += survived
                print(json.dumps({"module": module, "mutant": mutant.describe(source),
                                  "survived": survived, "timed_out": timed_out}), flush=True)
            rows.append((module, len(found), len(sample), len(sample) - sum(survivors.values()),
                         survivors))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("\n| module | candidates | run | killed | survived: comparison / arithmetic / number |")
    print("|---|---|---|---|---|")
    for module, n_found, n_run, killed, survivors in rows:
        print(f"| `{module}.py` | {n_found} | {n_run} | {killed} | "
              f"{' / '.join(str(survivors[kind]) for kind in CLASSES)} |")
    print(f"\nwall time: {time.perf_counter() - began:.0f} s ({args.jobs} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
