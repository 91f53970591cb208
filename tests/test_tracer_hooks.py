"""The benchmark tracer's hooks name functions the package still has.

``perfbench/tracer.py`` wraps package functions by module and attribute
name, and its own tests are not part of this suite, so a rename in the
package would silently stop a layer from being timed.  The tracer is
read as source, not imported, so that this check leaves its directory
untouched.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "ENTRY_POINTS"
                        for t in node.targets)):
            return [(call.args[0].value, call.args[1].value)
                    for call in node.value.elts]
    raise AssertionError("tracer defines no ENTRY_POINTS")


def test_every_entry_point_resolves():
    entries = _entry_points()
    assert ("uquery.algorithms", "_run_algorithm1") in entries
    for module, attr in entries:
        assert module.split(".")[0] == "uquery", module
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"
