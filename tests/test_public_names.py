"""Every public name of anomkit has a reader in the package or the benchmark.

A module-level function, class or assignment without a leading underscore
counts as reached when some file of `src/anomkit` or `perfbench` loads it,
as a bare name or as an attribute. Imports are not loads, and tests do not
count: code that only tests call is not on any run path. An attribute of one
of the benchmark's own modules (`checks.flat_labels`) is not a load of an
anomkit name that happens to share it.

The same rule holds for the public methods, properties and classmethods of
the package's classes: each name is loaded somewhere in `src/anomkit` or
`perfbench` outside the member's own class, usually as an attribute. A load
inside that class does not count: a member that only its class reads is
reached only when a reader outside reaches what reads it. Dunders are
called by Python itself and are exempt, as are names with a leading
underscore.

The numcore package is held to the same rule for what it re-exports: each
name its `__init__` imports is loaded through the package by a run path, so
an op has one public name, in `numcore.ops`.

The package runs on numpy alone: importing every module loads no scipy
module. Only the tests and the benchmark's environment record import scipy.

The package's docstrings and comments state what the code computes and why,
not what it measured on some machine: a figure with a time or memory unit,
or a machine's name, goes to CHANGES.md with the change that measured it.
"""

import ast
import collections
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anomkit"
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
READERS = sorted(PACKAGE.rglob("*.py")) + BENCH
BENCH_MODULES = {path.stem for path in BENCH}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (n for n in names if not n.startswith("_"))


def _loads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in BENCH_MODULES):
                yield node.attr


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in READERS}
    used = {name for tree in trees.values() for name in _loads(tree)}
    unreached = [
        f"{path.relative_to(PACKAGE.parent)}: {name}"
        for path, tree in trees.items() if PACKAGE in path.parents
        for name in _public_definitions(tree) if name not in used
    ]
    assert not unreached, "public names that no run path reaches:\n" + "\n".join(unreached)


def _numcore_loads(tree):
    """Names a file takes from the numcore package: `from ...numcore import X`,
    or the attribute X of a name bound to the package (`nc.X`)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "numcore":
                yield from (alias.name for alias in node.names)
            elif node.module in (None, "anomkit"):
                bound |= {alias.asname or alias.name for alias in node.names
                          if alias.name == "numcore"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in bound):
            yield node.attr


def _public_members(tree):
    """(class node, name) of each public function defined in the body of a
    module-level class: methods, properties and classmethods alike."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    yield node, member.name


def test_every_public_member_is_reached():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in READERS}
    used = collections.Counter(name for tree in trees.values() for name in _loads(tree))
    unreached = [
        f"{path.relative_to(PACKAGE.parent)}: {cls.name}.{name}"
        for path, tree in trees.items() if PACKAGE in path.parents
        for cls, name in _public_members(tree)
        if used[name] == collections.Counter(_loads(cls))[name]  # every load is the class's own
    ]
    assert not unreached, "public members that no run path reaches:\n" + "\n".join(unreached)


def test_numcore_exports_only_what_runs_through_it():
    init = ast.parse((PACKAGE / "numcore" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = {name for path in READERS if PACKAGE / "numcore" not in path.parents
            for name in _numcore_loads(ast.parse(path.read_text(), filename=str(path)))}
    unused = sorted(set(imported) - used)
    assert not unused, f"numcore exports that no run path loads: {', '.join(unused)}"


IMPORT_EVERY_MODULE = """
import importlib, json, pkgutil, sys
import anomkit
for m in pkgutil.walk_packages(anomkit.__path__, "anomkit."):
    importlib.import_module(m.name)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_package_loads_no_scipy():
    # what importing scipy.ndimage cost each process: CHANGES.md, the entry
    # "A numpy-only package" (276c7f0)
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", IMPORT_EVERY_MODULE],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    loaded = json.loads(run.stdout)
    assert not loaded, f"importing anomkit loads scipy: {', '.join(loaded)}"


# a number with a time or memory unit, a decimal number of seconds, or a machine's name
MEASUREMENT = re.compile(r"\d(?:[\d,]*\d)?(?:\.\d+)?\s?(?:ms|us|µs|μs|ns|[KMG]i?B)\b"
                         r"|\d\.\d+\s?s\b"
                         r"|\b(?:Xeon|EPYC|Ryzen|Threadripper|Graviton|Core i[3579])\b"
                         r"|\b\d+-core\b")


def _package_text(path):
    """(line, text) of each docstring and comment of a source file."""
    source = path.read_text()
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if doc := ast.get_docstring(node, clean=False):
                yield node.body[0].lineno, doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def test_package_text_holds_no_measurements():
    for figure in ("took 12-17 ms", "19 MB of RSS", "0.51-0.56 s", "48 MiB", "78 us", "a 2-core Xeon"):
        assert MEASUREMENT.search(figure), figure
    for invariant in ("1e-12", "0.5 and 1.0", "128x128 slices", "rho is the median of g",
                      "9 * 8 * SLIC_PIXELS bytes", "numpy 2.4", "in 3 steps"):
        assert not MEASUREMENT.search(invariant), invariant
    found = [f"{path.relative_to(PACKAGE.parent)}:{line}: {match.group()!r}"
             for path in sorted(PACKAGE.rglob("*.py")) for line, text in _package_text(path)
             for match in MEASUREMENT.finditer(" ".join(text.split()))]
    assert not found, "measured figures in the package's text:\n" + "\n".join(found)
