"""The repository's tools, on synthetic inputs."""

import importlib.util
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
