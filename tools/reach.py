"""Reach of a set of runs: the functions and lambdas of ``src/subordlab`` that no run calls.

Run from the root of a checkout::

    python3 tools/reach.py src/subordlab/configs/acceptance.json \\
        perfbench/configs/mc-sweep.json --seed config --seed 1

Each config runs in this process through ``cli.run`` at ``--threads 1``, once
per ``--seed`` (``config``, the default, is the config's own seed), into a
temporary directory; then ``cli.list_catalog()`` runs once.  Everything runs
under ``sys.setprofile`` and ``threading.setprofile``, so the calls made on
the threads a run starts count too, and so does the package's import, when
the package was not imported before.  A function or lambda is a code object
compiled from a module of the package: comprehensions and class bodies are
not counted.  It is reached when a call of it was seen.

Prints, per module, the functions and lambdas that no run called, with their
line spans, then the totals.  Standard library only.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import tempfile
import threading
import types

HERE = os.path.dirname(os.path.abspath(__file__))


def functions(path):
    """The code objects of the functions and lambdas in the module at path."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec", dont_inherit=True)]
    found = []
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and (
                        const.co_name == "<lambda>" or not const.co_name.startswith("<")):
                    found.append(const)
    return sorted(found, key=lambda code: (code.co_firstlineno, code.co_qualname))


def span(code):
    """(first line, last line) of a code object."""
    return code.co_firstlineno, max(line for *_, line in code.co_lines() if line is not None)


def uncalled(configs, seeds=(None,)):
    """({module file: [code objects no run called]}, count of all) over the package's modules.

    Each config runs once per seed (None: the config's own), then ``list_catalog``.
    """
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        from subordlab import cli

        with tempfile.TemporaryDirectory(prefix="reach-") as out:
            for config in configs:
                for seed in seeds:
                    code, _ = cli.run(config, out_dir=out, seed=seed, threads=1)
                    if code not in (0, 1):
                        print(f"{config} at seed {seed} exited {code}", file=sys.stderr)
            cli.list_catalog()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    package = os.path.dirname(cli.__file__)
    modules = {name: functions(os.path.join(package, name))
               for name in sorted(os.listdir(package)) if name.endswith(".py")}
    # a code object compiled here equals the imported one compiled from the same source
    missed = {name: [code for code in found if code not in called]
              for name, found in modules.items()}
    return missed, sum(len(found) for found in modules.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", help="experiment configs (JSON)")
    parser.add_argument("--seed", action="append", default=None,
                        help="a run seed, or 'config' for the config's own; repeatable")
    args = parser.parse_args(argv)
    seeds = [None if seed == "config" else int(seed) for seed in args.seed or ["config"]]
    missed, total = uncalled(args.configs, seeds)
    lines = 0
    for name, codes in missed.items():
        if codes:
            print(f"{name}: {len(codes)} not called")
        for code in codes:
            first, last = span(code)
            lines += last - first + 1
            print(f"  {first}-{last} {code.co_qualname}")
    count = sum(len(codes) for codes in missed.values())
    print(f"total: {total - count} of {total} functions and lambdas called; "
          f"{count} not called, {lines} lines")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(main())
