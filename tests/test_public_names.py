"""Every public name of anomkit has a reader in the package or the benchmark.

A module-level function, class or assignment without a leading underscore
counts as reached when some file of `src/anomkit` or `perfbench` loads it,
as a bare name or as an attribute. Imports and `__all__` strings are not
loads, and tests do not count: code that only tests call is not on any run
path. An attribute of one of the benchmark's own modules (`checks.flat_labels`)
is not a load of an anomkit name that happens to share it.
"""

import ast
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
