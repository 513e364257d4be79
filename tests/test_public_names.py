"""Every public name of anomkit has a reader in the package or the benchmark.

A module-level function, class or assignment without a leading underscore
counts as reached when some file of `src/anomkit` or `perfbench` loads it,
as a bare name or as an attribute. Imports and `__all__` strings are not
loads, and tests do not count: code that only tests call is not on any run
path. An attribute of one of the benchmark's own modules (`checks.flat_labels`)
is not a load of an anomkit name that happens to share it.

The same rule holds for the public methods, properties and classmethods of
the package's classes: each name is loaded somewhere in `src/anomkit` or
`perfbench`, usually as an attribute. Dunders are called by Python itself
and are exempt, as are names with a leading underscore.

The numcore package is held to the same rule for what it re-exports: each
name in its `__all__` is imported by its `__init__` and loaded through the
package by a run path, so an op has one public name, in `numcore.ops`.

The package runs on numpy alone: importing every module loads no scipy
module. Only the tests and the benchmark's environment record import scipy.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from anomkit import numcore as nc

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
    """(class, name) of each public function defined in the body of a
    module-level class: methods, properties and classmethods alike."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_")):
                    yield node.name, member.name


def test_every_public_member_is_reached():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in READERS}
    used = {name for tree in trees.values() for name in _loads(tree)}
    unreached = [
        f"{path.relative_to(PACKAGE.parent)}: {cls}.{name}"
        for path, tree in trees.items() if PACKAGE in path.parents
        for cls, name in _public_members(tree) if name not in used
    ]
    assert not unreached, "public members that no run path reaches:\n" + "\n".join(unreached)


def test_numcore_exports_only_what_runs_through_it():
    init = ast.parse((PACKAGE / "numcore" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(nc.__all__) == sorted(imported)
    used = {name for path in READERS if PACKAGE / "numcore" not in path.parents
            for name in _numcore_loads(ast.parse(path.read_text(), filename=str(path)))}
    unused = sorted(set(nc.__all__) - used)
    assert not unused, f"numcore exports that no run path loads: {', '.join(unused)}"


IMPORT_EVERY_MODULE = """
import importlib, json, pkgutil, sys
import anomkit
for m in pkgutil.walk_packages(anomkit.__path__, "anomkit."):
    importlib.import_module(m.name)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_package_loads_no_scipy():
    # importing scipy.ndimage cost every process 19 MB of RSS and about 0.3 s
    # (the preprocess module docstring)
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", IMPORT_EVERY_MODULE],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    loaded = json.loads(run.stdout)
    assert not loaded, f"importing anomkit loads scipy: {', '.join(loaded)}"
