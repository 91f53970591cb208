"""Decision trees for the u-query and classical query models.

A u-model tree branches three ways on the answer to a variable query
(0, 1 or u); it computes the hazard-free extension when its leaf agrees
with the extension on every ternary input.  A classical tree branches
two ways and is evaluated on resolved inputs only (``onU`` is absent).

``query_complexity_u``/``query_complexity`` run an exact minimax game
search over partial assignments: the solver picks the variable, the
adversary picks the worst answer.  States are memoized by the packed
base-4 code of the assignment in a flat array; ties break toward the
lowest variable index, making results and extracted trees canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Union

from .core import (
    DEFAULT_SEARCH_CAP,
    UNKNOWN,
    BooleanFunction,
    HazardFreeTable,
    TernaryString,
    as_ternary,
    check_cap,
    hazard_free_table,
)

TRIT_KEYS = ("on0", "on1", "onU")


class TreeFormatError(ValueError):
    """Raised for malformed serialized trees."""


@dataclass(frozen=True)
class Leaf:
    value: int  # a trit


@dataclass(frozen=True)
class Node:
    var: int  # variable index, 1-based
    on0: "DecisionTree"
    on1: "DecisionTree"
    onU: "DecisionTree | None" = None  # None only in classical trees


DecisionTree = Union[Leaf, Node]


def tree_depth(tree: DecisionTree) -> int:
    if isinstance(tree, Leaf):
        return 0
    children = [tree.on0, tree.on1] + ([tree.onU] if tree.onU is not None else [])
    return 1 + max(tree_depth(c) for c in children)


def evaluate_tree(tree: DecisionTree, y: TernaryString | str) -> int:
    """Walk the tree reading answers off y; returns the leaf trit."""
    y = as_ternary(y)
    node = tree
    seen: set[int] = set()
    while isinstance(node, Node):
        if not 1 <= node.var <= len(y):
            raise ValueError(f"tree queries variable {node.var} outside 1..{len(y)}")
        if node.var in seen:
            raise ValueError(f"tree queries variable {node.var} twice on one path")
        seen.add(node.var)
        answer = y[node.var - 1]
        if answer == UNKNOWN:
            if node.onU is None:
                raise ValueError("classical tree evaluated on an unresolved input")
            node = node.onU
        else:
            node = (node.on0, node.on1)[answer]
    return node.value


def verify_tree(
    tree: DecisionTree, table: HazardFreeTable
) -> tuple[bool, TernaryString | None]:
    """Check the tree against every ternary input.

    Returns (True, None) or (False, c) with the lexicographically least
    counterexample under the position-wise order 0 < 1 < u.
    """
    n = table.arity
    for code in range(3 ** n):
        y = TernaryString.from_code(code, n)
        if evaluate_tree(tree, y) != table.values[code]:
            return False, y
    return True, None


# ---------------------------------------------------------------------------
# Exact depth search, u-query model.

_NO_VALUE = 0xFF
_LEAF = 0xFE


def query_complexity_u(
    table: HazardFreeTable, cap: int | None = None
) -> tuple[int, DecisionTree]:
    """Exact optimal depth for computing the extension, with a witness tree."""
    n = table.arity
    check_cap(n, cap, DEFAULT_SEARCH_CAP, "u-model depth search")
    vals = table.values
    pw4 = tuple(4 ** (n - 1 - p) for p in range(n))
    pw3 = tuple(3 ** (n - 1 - p) for p in range(n))
    value = bytearray([_NO_VALUE]) * (4 ** n)
    choice = bytearray([_NO_VALUE]) * (4 ** n)

    def leaf_value(cells: list[int]) -> int:
        """The forced constant over all completions, or _NO_VALUE.

        The completion with u at every unassigned cell is the coarsest,
        so a 0/1 there settles it; a u there is constant only if every
        binary setting of the unassigned cells stays u.
        """
        coarse = 0
        for p in range(n):
            c = cells[p]
            coarse += (UNKNOWN if c == 3 else c) * pw3[p]
        forced = vals[coarse]
        if forced != UNKNOWN:
            return forced
        stars = [p for p in range(n) if cells[p] == 3]
        fixed = coarse - sum(UNKNOWN * pw3[p] for p in stars)
        for w in product((0, 1), repeat=len(stars)):
            code = fixed
            for k, p in enumerate(stars):
                code += w[k] * pw3[p]
            if vals[code] != UNKNOWN:
                return _NO_VALUE
        return UNKNOWN

    def solve(cells: list[int], key: int) -> int:
        cached = value[key]
        if cached != _NO_VALUE:
            return cached
        if leaf_value(cells) != _NO_VALUE:
            value[key], choice[key] = 0, _LEAF
            return 0
        best, best_p = _NO_VALUE, _NO_VALUE
        for p in range(n):
            if cells[p] != 3:
                continue
            worst = 0
            for a in (0, 1, 2):
                cells[p] = a
                d = solve(cells, key + (a - 3) * pw4[p])
                cells[p] = 3
                if d > worst:
                    worst = d
                if worst + 1 >= best:
                    break
            if worst + 1 < best:
                best, best_p = worst + 1, p
        value[key], choice[key] = best, best_p
        return best

    def extract(cells: list[int], key: int) -> DecisionTree:
        p = choice[key]
        if p == _LEAF:
            return Leaf(leaf_value(cells))
        kids = []
        for a in (0, 1, 2):
            cells[p] = a
            kids.append(extract(cells, key + (a - 3) * pw4[p]))
            cells[p] = 3
        return Node(p + 1, kids[0], kids[1], kids[2])

    start = [3] * n
    depth = solve(start, 4 ** n - 1)
    return depth, extract(start, 4 ** n - 1)


# ---------------------------------------------------------------------------
# Exact depth search, classical model.


def query_complexity(
    f: BooleanFunction,
    table: HazardFreeTable | None = None,
    cap: int | None = None,
) -> tuple[int, DecisionTree]:
    """Exact optimal classical decision-tree depth, with a witness tree."""
    n = f.arity
    check_cap(n, cap, DEFAULT_SEARCH_CAP, "classical depth search")
    if table is None:
        table = hazard_free_table(f)
    vals = table.values
    pw3 = tuple(3 ** (n - 1 - p) for p in range(n))
    value = bytearray([_NO_VALUE]) * (3 ** n)
    choice = bytearray([_NO_VALUE]) * (3 ** n)

    # Cells are 0, 1 or 2 = unset here; the extension's value on the
    # string with u at every unset cell decides subcube constancy.
    def leaf_value(key: int) -> int:
        forced = vals[key]
        return forced if forced != UNKNOWN else _NO_VALUE

    def solve(cells: list[int], key: int) -> int:
        cached = value[key]
        if cached != _NO_VALUE:
            return cached
        if leaf_value(key) != _NO_VALUE:
            value[key], choice[key] = 0, _LEAF
            return 0
        best, best_p = _NO_VALUE, _NO_VALUE
        for p in range(n):
            if cells[p] != 2:
                continue
            worst = 0
            for a in (0, 1):
                cells[p] = a
                d = solve(cells, key + (a - 2) * pw3[p])
                cells[p] = 2
                if d > worst:
                    worst = d
                if worst + 1 >= best:
                    break
            if worst + 1 < best:
                best, best_p = worst + 1, p
        value[key], choice[key] = best, best_p
        return best

    def extract(cells: list[int], key: int) -> DecisionTree:
        p = choice[key]
        if p == _LEAF:
            return Leaf(leaf_value(key))
        kids = []
        for a in (0, 1):
            cells[p] = a
            kids.append(extract(cells, key + (a - 2) * pw3[p]))
            cells[p] = 2
        return Node(p + 1, kids[0], kids[1], None)

    start = [2] * n
    depth = solve(start, 3 ** n - 1)
    return depth, extract(start, 3 ** n - 1)


# ---------------------------------------------------------------------------
# Serialization: {"leaf": "0"|"1"|"u"} | {"query": i, "on0": T, "on1": T, "onU": T}
# with "onU" omitted in classical trees.


def tree_to_json_dict(tree: DecisionTree) -> dict:
    if isinstance(tree, Leaf):
        return {"leaf": "01u"[tree.value]}
    out = {
        "query": tree.var,
        "on0": tree_to_json_dict(tree.on0),
        "on1": tree_to_json_dict(tree.on1),
    }
    if tree.onU is not None:
        out["onU"] = tree_to_json_dict(tree.onU)
    return out


def serialize_tree(tree: DecisionTree) -> str:
    return json.dumps(tree_to_json_dict(tree), separators=(",", ":"))


def tree_from_json_dict(obj, path: str = "$") -> DecisionTree:
    """Build a tree from its JSON form; error messages carry the JSON path.

    No variable may repeat along a path, so no path is longer than the
    tree's number of distinct variables; a deeper tree is rejected at
    its first repeat.  Nodes are validated in pre-order with an explicit
    stack and built bottom-up, so any nesting depth ends in a tree or a
    ``TreeFormatError``, never in a ``RecursionError``.
    """
    entries: list = []  # pre-order: a Leaf, or (var, {child key: entry index})
    todo = [(obj, path, frozenset(), None, None)]
    while todo:
        obj, path, seen, parent, key = todo.pop()
        if parent is not None:
            entries[parent][1][key] = len(entries)
        if not isinstance(obj, dict):
            raise TreeFormatError(f"{path}: expected an object, got {type(obj).__name__}")
        if "leaf" in obj:
            if set(obj) != {"leaf"}:
                raise TreeFormatError(f"{path}: leaf object has extra keys {sorted(set(obj) - {'leaf'})}")
            if obj["leaf"] not in ("0", "1", "u"):
                raise TreeFormatError(f"{path}: leaf value must be '0', '1' or 'u'")
            entries.append(Leaf("01u".index(obj["leaf"])))
            continue
        if "query" not in obj:
            raise TreeFormatError(f"{path}: object is neither a leaf nor a query node")
        extra = set(obj) - {"query", "on0", "on1", "onU"}
        if extra:
            raise TreeFormatError(f"{path}: unexpected keys {sorted(extra)}")
        var = obj["query"]
        if not isinstance(var, int) or isinstance(var, bool) or var < 1:
            raise TreeFormatError(f"{path}: query must be a positive variable index")
        if var in seen:
            raise TreeFormatError(f"{path}: variable {var} repeats along the path")
        for key in ("on0", "on1"):
            if key not in obj:
                raise TreeFormatError(f"{path}: missing child {key!r}")
        index, seen = len(entries), seen | {var}
        entries.append((var, {}))
        # Pushed in reverse so that on0 is checked first, then on1, then onU.
        for key in reversed(TRIT_KEYS):
            if key in obj:
                todo.append((obj[key], f"{path}.{key}", seen, index, key))
    built: list = [None] * len(entries)
    for i in range(len(entries) - 1, -1, -1):
        entry = entries[i]
        if isinstance(entry, Leaf):
            built[i] = entry
            continue
        var, kids = entry
        onU = built[kids["onU"]] if "onU" in kids else None
        built[i] = Node(var, built[kids["on0"]], built[kids["on1"]], onU)
    return built[0]


def parse_tree(text: str) -> DecisionTree:
    """Parse a serialized tree; error messages carry position or JSON path."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    except RecursionError:
        raise TreeFormatError("JSON nested too deeply to parse") from None
    return tree_from_json_dict(obj)
