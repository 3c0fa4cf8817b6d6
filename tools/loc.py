"""Code lines of Python modules, the size a refactor is measured in.

Run from the root of a checkout::

    python3 tools/loc.py src/subordlab

A code line holds a token of code: it is not blank, not a comment alone,
and not part of a module, class or function docstring.  A string that is
no docstring counts on every line it spans.  Prints each ``.py`` file under
the paths given, in sorted order, with its code lines, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

# tokens that are no code: layout, comments and the stream's ends
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree):
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source):
    """The number of code lines of the source text."""
    docs = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _modules(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
        for root, dirs, files in os.walk(path):
            dirs.sort()
            yield from (os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files, or directories to walk")
    total = 0
    for path in _modules(parser.parse_args(argv).paths):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
