"""The trust base and the depth search import only what they may, and no
computation on a table takes an arity cap beside it.

``check`` re-derives every reported witness from the definitions, so it
must not reach the kernels whose output it checks: it imports only
``core``, ``trees`` (the tree type, its reader and ``verify_tree``) and
the standard library, and memoizes nothing.  ``trees`` imports only
``core`` at module level, and ``depth`` only ``core`` and ``trees``.
The import statements are parsed rather than read off ``sys.modules``,
as importing the package imports every module.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uquery"


def _imports(module: str, top_level_only: bool) -> set[str]:
    """Every name the module imports, as an absolute dotted name: a
    package module as ``uquery.<module>``, and each name taken from a
    module after the module's name."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = set()
    for node in tree.body if top_level_only else ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                base = node.module
            else:
                base = "uquery" if node.module is None else f"uquery.{node.module}"
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _package_modules(names: set[str]) -> set[str]:
    return {name.split(".")[1] for name in names if name.startswith("uquery.")}


def test_check_imports_only_core_trees_and_the_standard_library():
    names = _imports("check", top_level_only=False)
    assert _package_modules(names) == {"core", "trees"}, names
    outside = {name.split(".")[0] for name in names} - {"uquery"}
    assert outside <= sys.stdlib_module_names, outside
    assert not names & {"functools.cache", "functools.lru_cache"}, names


def test_trees_imports_only_core_at_module_level():
    assert _package_modules(_imports("trees", top_level_only=True)) == {"core"}


def test_depth_imports_only_core_and_trees():
    assert _package_modules(_imports("depth", top_level_only=False)) == {"core", "trees"}


def test_no_computation_on_a_table_takes_a_cap():
    """A table carries the arity cap it was built under, so no function
    of the modules computing on tables takes one beside it."""
    for module in ("measures", "depth", "algorithms"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                names = {p.arg for p in params if p is not None}
                assert "cap" not in names, (module, getattr(node, "name", "lambda"))
