"""Print the code lines of `src/anomkit`, per module and in total.

    python3 tools/code_lines.py [ROOT]

A code line is a non-blank line outside module, class and function
docstrings and outside whole-line comments; a line that ends in a comment
still counts. ROOT defaults to `src/anomkit` beside this script. Lines are
`<count> <module path relative to ROOT>`, sorted by path, then
`<count> total`.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "anomkit"


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of one module's source text."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT)
    root = parser.parse_args(argv).root
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.relative_to(root).as_posix()}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
