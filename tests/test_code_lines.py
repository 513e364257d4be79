"""`tools/code_lines.py`: the code-line count that simplicity claims quote."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a whole-line comment
class A:
    """Class docstring."""

    def f(self):
        """Function docstring,

        with a blank line."""
        return 1
        # an indented comment


async def g():
    """Async function docstring."""
    x = """a string that is no docstring
    counts"""
    return x
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    # import, class, def f, return 1, async def g, the string's two lines, return x
    assert code_lines.code_lines(SOURCE) == 8


def test_a_module_without_a_docstring_counts_every_code_line():
    assert code_lines.code_lines("x = 1\n\ny = '''a\nb'''\n") == 3
    assert code_lines.code_lines("") == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\nx = 1  # and a trailing one\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    8 a.py", "    1 pkg/b.py", "    9 total"]
