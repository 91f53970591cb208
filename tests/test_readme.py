"""The README's library block runs, and each value it shows in a comment
is the one the block gives."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    return text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]


# Per expression of the block: the literal its comment starts with, and
# a check of the value against it.
SHOWN = {
    'table.evaluate("0u1")': ("2", lambda v: v == 2),
    'table.evaluate("u01")': ("2", lambda v: v == 2),
    'table.evaluate("u11")': ("1", lambda v: v == 1),
    "table.grid[0, 2, 1]": ("2", lambda v: v == 2),
    "table.least_input((3, 1, 3), 0)": ("010", lambda v: str(v) == "010"),
    "report.s_u, report.bs_u, report.C_u, report.D_u": ("3, 3, 2, 3", lambda v: v == (3, 3, 2, 3)),
    "verify_tree(tree, table)": ("(True, None)", lambda v: v == (True, None)),
    "len(tree.var), tree.var[:4]": (
        "31 nodes; array([1, 2, 2, 2]), read-only",
        lambda v: v[0] == 31 and repr(v[1]) == "array([1, 2, 2, 2])" and not v[1].flags.writeable),
    "serialize_tree(tree)": ("'{\"query\":1,\"on0\":{\"query\":2,...'",
                             lambda v: v.startswith('{"query":1,"on0":{"query":2,')),
    "verify_tree(solver, table)": ("(True, None)", lambda v: v == (True, None)),
    "tree_depth(solver)": ("3", lambda v: v == 3),
}


def test_readme_library_block_gives_the_values_it_shows():
    block = _library_block()
    lines = block.splitlines()
    namespace: dict = {}
    seen = []
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[statement.lineno - 1].split("#", 1)[1].strip()
        literal, check = SHOWN[code]
        assert comment.startswith(literal), code
        value = eval(code, namespace)
        assert check(value), (code, value)
        seen.append(code)
    assert seen == list(SHOWN)
