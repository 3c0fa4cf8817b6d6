"""The repository's tools, on synthetic inputs."""

import ast
import importlib.util
import json
import math
import os

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# each line's comment says whether it is a code line
SYNTHETIC = '''"""A module docstring
over two lines."""

import os  # code


# a comment alone
class A:
    """A class docstring."""

    def f(self):
        """A function docstring,
        over two lines."""
        text = """a string that is no docstring
        spans two code lines"""
        return text

    def g(self): """a docstring beside code: the line is code"""


def h():
    return ("implicit"
            "concatenation")
'''


@pytest.fixture(scope="module")
def loc():
    return load_tool("loc")


def test_code_lines_of_a_synthetic_module(loc):
    # import, class, def f, the string's two lines, return, def g, def h, and h's two lines
    assert loc.code_lines(SYNTHETIC) == 10


def test_main_prints_each_module_and_the_total(loc, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SYNTHETIC)
    (tmp_path / "pkg" / "b.py").write_text("# a comment alone\n\nx = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    loc.main([str(tmp_path / "pkg")])
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["10", str(tmp_path / "pkg" / "a.py")], ["1", str(tmp_path / "pkg" / "b.py")],
        ["11", "total"]]


def test_every_relative_approx_states_its_absolute_bound():
    # approx's default absolute tolerance, 1e-12, outweighs rel wherever |expected| * rel
    # is below it, so a relative bound holds only with abs= given beside it
    here, loose = os.path.dirname(__file__), []
    for name in sorted(os.listdir(here)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(here, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr",
                                                      getattr(node.func, "id", None)) == "approx":
                keywords = {keyword.arg for keyword in node.keywords}
                if "rel" in keywords and "abs" not in keywords:
                    loose.append(f"{name}:{node.lineno}")
    assert loose == []


def test_reach_of_a_one_entry_config(tmp_path):
    reach = load_tool("reach")
    entry = {"kind": "dickman_rho", "params": {"z": 2.0},
             "assertions": {"expected": 1.0 - math.log(2.0)}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [entry]}))
    missed, total = reach.uncalled([str(config)])
    names = {code.co_qualname for code in missed["cli.py"]}
    # the entry's handler runs, another kind's does not
    assert "_dickman_rho" not in names and "_recursion_mean" in names
    assert "dickman_rho" not in {code.co_qualname for code in missed["dickman.py"]}
    assert 0 < sum(len(codes) for codes in missed.values()) < total
    first, last = reach.span(next(code for code in missed["cli.py"]
                                  if code.co_qualname == "_recursion_mean"))
    assert 0 < first < last


def test_mutate_names_the_failing_test_of_a_failing_baseline(tmp_path, capsys):
    (tmp_path / "src" / "subordlab").mkdir(parents=True)
    (tmp_path / "src" / "subordlab" / "mod.py").write_text("def f():\n    return 1 + 2\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from subordlab.mod import f\n\n\ndef test_f_is_four():\n    assert f() == 4\n")
    assert load_tool("mutate").main(["mod", "--tree", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    failed, verdict = captured.err.splitlines()
    assert failed.startswith("FAILED tests/test_mod.py::test_f_is_four")
    assert verdict == "the unmutated suite fails: no score"
