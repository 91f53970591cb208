"""Decision trees for the u-query and classical query models.

A u-model tree branches three ways on the answer to a variable query
(0, 1 or u); it computes the hazard-free extension when its leaf agrees
with the extension on every ternary input.  A classical tree branches
two ways and is evaluated on resolved inputs only (``onU`` is absent).

``query_complexity_u``/``query_complexity`` solve the same minimax game,
the solver picking the variable and the adversary the worst answer,
with one array kernel over the partial assignments: {0, 1, u, *}^n for
the u-model and {0, 1, *}^n classically.  Depth 0 marks the cells whose
value is forced: for the u-model these are read off
``core.forced_value_table``, the same table the certificate sizes of
``measures`` come from, and classically off the hazard-free table with
u read as *.  Every other cell starts at its number of *s, an upper
bound, as querying all of them leaves a forced cell.  Sweeps along every
* axis relax the cells down to exact depths, stopping once the root is
known exact or a sweep changes nothing, and the tree is read off the
array, taking at each node the lowest variable that attains the optimum,
so results are canonical.

``verify_tree`` checks a tree without replaying it input by input: one
walk writes each leaf's value into its block of a prediction array (the
inputs that follow the leaf's path), and one comparison with the table
finds the least counterexample.  A malformed node raises the error that
``evaluate_tree`` gives the least input reaching it, unless a mismatch
comes first in code order; on a tie the error wins.  The check reads
only the tree and the table, never the depth arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Union

import numpy as np

from .core import (
    DEFAULT_SEARCH_CAP,
    STAR,
    UNKNOWN,
    BooleanFunction,
    HazardFreeTable,
    TernaryString,
    as_ternary,
    check_cap,
    forced_value_table,
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


def _children(node: Node) -> list[tuple[str, DecisionTree]]:
    """(key, child) pairs of a node in serialization order."""
    kids = [("on0", node.on0), ("on1", node.on1)]
    if node.onU is not None:
        kids.append(("onU", node.onU))
    return kids


def tree_depth(tree: DecisionTree) -> int:
    """Length of the longest root-to-leaf path; any depth, no recursion."""
    deepest, todo = 0, [(tree, 0)]
    while todo:
        node, depth = todo.pop()
        if isinstance(node, Node):
            todo.extend((child, depth + 1) for _, child in _children(node))
        elif depth > deepest:
            deepest = depth
    return deepest


_UNRESOLVED = "classical tree evaluated on an unresolved input"


def _query_error(var: int, n: int, seen) -> str | None:
    """Why a node querying ``var`` fails on inputs of length n that reach
    it after querying the variables in ``seen``; None when it does not."""
    if not 1 <= var <= n:
        return f"tree queries variable {var} outside 1..{n}"
    if var in seen:
        return f"tree queries variable {var} twice on one path"
    return None


def evaluate_tree(tree: DecisionTree, y: TernaryString | str) -> int:
    """Walk the tree reading answers off y; returns the leaf trit."""
    y = as_ternary(y)
    node = tree
    seen: set[int] = set()
    while isinstance(node, Node):
        error = _query_error(node.var, len(y), seen)
        if error is not None:
            raise ValueError(error)
        seen.add(node.var)
        answer = y[node.var - 1]
        if answer == UNKNOWN:
            if node.onU is None:
                raise ValueError(_UNRESOLVED)
            node = node.onU
        else:
            node = (node.on0, node.on1)[answer]
    return node.value


_NO_LEAF = 3  # a cell no leaf predicts; never a table value


def _least_input(block: tuple) -> tuple[int, ...]:
    """The least input in a block: its fixed answers, 0 on every slice."""
    return tuple(0 if isinstance(b, slice) else b for b in block)


def verify_tree(
    tree: DecisionTree, table: HazardFreeTable
) -> tuple[bool, TernaryString | None]:
    """Check the tree against every input of its model, in code order.

    A classical tree (a root ``Node`` without ``onU``) is checked on the
    2**n binary inputs against f, any other tree on all 3**n ternary
    inputs against the extension.  Returns (True, None) or (False, c)
    with the lexicographically least counterexample under the
    position-wise order 0 < 1 < u.

    The tree is walked once.  Each leaf writes its value into its block
    of a prediction array with one axis per variable: the block is the
    leaf's path answer on each queried axis and a full slice on every
    other.  The array is compared with the table in one step, and as
    0 < 1 < u is code order, its first mismatch in C order is the least
    counterexample.  A malformed node raises the ``ValueError`` that
    ``evaluate_tree`` raises on the least input reaching it (path
    answers, 0 elsewhere; u at its variable for a missing ``onU``), and
    nothing below it is walked.  Its block predicts nothing, so it
    mismatches from that input on: the earlier of the least such input
    and the first mismatch decides, the error on a tie.
    """
    n = table.arity
    expected = np.frombuffer(table.values, dtype=np.uint8).reshape((3,) * n)
    classical = isinstance(tree, Node) and tree.onU is None
    if classical:
        expected = expected[(slice(0, 2),) * n]
    predicted = np.full(expected.shape, _NO_LEAF, dtype=np.uint8)
    faults = []  # (least input reaching a malformed node, its error)
    todo = [(tree, (slice(None),) * n, ())]
    while todo:
        node, block, seen = todo.pop()
        if not isinstance(node, Node):
            predicted[block] = node.value if node.value in (0, 1, UNKNOWN) else _NO_LEAF
            continue
        error = _query_error(node.var, n, seen)
        if error is not None:
            faults.append((_least_input(block), error))
            continue
        p, seen = node.var - 1, seen + (node.var,)
        kids = (node.on0, node.on1) if classical else (node.on0, node.on1, node.onU)
        for answer, kid in enumerate(kids):
            below = block[:p] + (answer,) + block[p + 1:]
            if kid is None:
                faults.append((_least_input(below), _UNRESOLVED))
            else:
                todo.append((kid, below, seen))

    mismatch = predicted != expected
    if not mismatch.any():  # so no malformed node either: its block mismatches
        return True, None
    first = tuple(int(d) for d in np.unravel_index(int(mismatch.argmax()), mismatch.shape))
    fault = min(faults, default=None)
    if fault is not None and fault[0] <= first:
        raise ValueError(fault[1])
    return False, TernaryString(first)


# ---------------------------------------------------------------------------
# Exact depth: one layered kernel for both answer alphabets.

@cache
def _star_counts(base: int, k: int) -> np.ndarray:
    """The number of digits ``base - 1`` (the *) in each k-digit code in
    base ``base``, one byte per code; shared, so read-only."""
    counts = np.zeros(1, dtype=np.uint8)
    for _ in range(k):
        counts = (counts[:, None] + (np.arange(base) == base - 1)).reshape(-1)
    counts.flags.writeable = False
    return counts


def _optimal_tree(
    depth: np.ndarray, star: int, answers: tuple[int, ...], values: bytes
) -> tuple[int, DecisionTree]:
    """Relax ``depth`` in place into exact depths and extract the tree.

    ``depth`` has one axis per variable, indexed by ``answers`` and then
    ``star`` (the largest index); it holds 0 where the value is forced
    and 1 elsewhere.  Each cell that is not forced starts at its number
    of *s: querying every * leaves a cell without one, which is always
    forced, so no cell starts below its true depth.  Each sweep sets,
    axis by axis, the cells with a * on that axis to
    min(depth, 1 + max over the children), so cells only fall, and never
    below their true depth.  After sweep k every cell of true depth <= k
    is exact (the children of its optimal query were, after sweep
    k - 1), and every other reads more than k.  Two exits follow:

    - once the all-* root reads at most k + 1 it is exact, every cell
      below it on an optimal tree is too, and each threshold test of the
      extraction tells true depths apart;
    - once a sweep leaves the sum of the array unchanged, it changed no
      cell, and every cell is exact: by induction on the number of *s,
      a cell reads at most 1 + the max over the exact children on any of
      its * axes, so at most its true depth, and never less.

    The update is monotone, so no cell reads more than it would after a
    start at the top of the byte, and the root test fires no later than
    it would there.  It is taken before the sum, which a root already
    known exact never pays for.
    """
    n, base = depth.ndim, star + 1
    flat = depth.reshape(-1)
    # Forced cells to 0x80 and the rest to 0, plus the star count of the
    # high and low halves of each code, then forced cells (0x80 + count,
    # negative as int8) clamped to 0.
    depth ^= 1
    depth <<= 7
    high = n // 2
    halves = flat.reshape(base ** high, base ** (n - high))
    halves += _star_counts(base, high)[:, None]
    halves += _star_counts(base, n - high)
    signed = flat.view(np.int8)
    np.maximum(signed, 0, out=signed)

    worst = np.empty(base ** (n - 1), dtype=np.uint8)
    axes = []
    for axis in range(n):
        view = depth.reshape(base ** axis, base, base ** (n - 1 - axis))
        kids = [view[:, a] for a in answers]
        axes.append((kids, view[:, star], worst.reshape(kids[0].shape)))
    sweep, total = 0, None
    while flat[-1] > sweep + 1:
        last, total = total, int(flat.sum(dtype=np.uint64))
        if total == last:
            break
        sweep += 1
        for kids, top, w in axes:
            np.maximum(kids[0], kids[1], out=w)
            for kid in kids[2:]:
                np.maximum(w, kid, out=w)
            w += 1
            np.minimum(top, w, out=top)

    reach = memoryview(flat).__getitem__
    steps = [[(a - star) * base ** (n - 1 - p) for a in answers] for p in range(n)]
    coarse_steps = [[(a - UNKNOWN) * 3 ** (n - 1 - p) for a in answers] for p in range(n)]
    root = _read_tree(reach, steps, coarse_steps, values,
                      flat.size - 1, 3 ** n - 1, list(range(n)))
    return int(flat[-1]), root


def _read_tree(reach, steps, coarse_steps, values: bytes,
               key: int, coarse: int, free: list[int]) -> DecisionTree:
    """The optimal tree below the cell ``key`` of exact relaxed depth.

    Each node queries the lowest * axis whose children all sit below its
    depth: the first variable attaining the minimax value.  ``steps[p]``
    moves a cell to its children on axis p and ``coarse_steps[p]`` moves
    its coarsest completion (u at every *) alongside, whose value a leaf
    reads.  A module function, not a closure, so that the depth array is
    freed as soon as the tree is built.
    """
    d = reach(key)
    if not d:
        return Leaf(values[coarse])
    for p in free:
        kids = [key + step for step in steps[p]]
        if max(map(reach, kids)) < d:
            rest = [q for q in free if q != p]
            return Node(p + 1, *[
                _read_tree(reach, steps, coarse_steps, values, kid, coarse + step, rest)
                for kid, step in zip(kids, coarse_steps[p])])
    raise AssertionError("relaxed depth has no optimal query")


def query_complexity_u(
    table: HazardFreeTable, cap: int | None = None
) -> tuple[int, DecisionTree]:
    """Exact optimal depth for computing the extension, with a witness tree."""
    n = table.arity
    check_cap(n, cap, DEFAULT_SEARCH_CAP, "u-model depth search")
    depth = forced_value_table(table)
    depth >>= 7  # forced 0, 1, u -> 0; NOT_FORCED -> 1
    return _optimal_tree(depth, STAR, (0, 1, UNKNOWN), table.values)


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
    # Over {0, 1, *}^n with u read as *, the extension is resolved
    # exactly at the subcubes on which f is constant.
    depth = np.frombuffer(table.values, dtype=np.uint8).reshape((3,) * n).copy()
    depth >>= 1  # 0, 1 -> 0; u -> 1
    return _optimal_tree(depth, UNKNOWN, (0, 1), table.values)


# ---------------------------------------------------------------------------
# Serialization: {"leaf": "0"|"1"|"u"} | {"query": i, "on0": T, "on1": T, "onU": T}
# with "onU" omitted in classical trees.


def tree_to_json_dict(tree: DecisionTree) -> dict:
    """The JSON form of a tree, built top-down with an explicit stack."""
    holder: dict = {}
    todo = [(tree, holder, "tree")]
    while todo:
        node, parent, key = todo.pop()
        if isinstance(node, Leaf):
            parent[key] = {"leaf": "01u"[node.value]}
            continue
        kids = _children(node)
        # Every key is placed before any child is filled in, so the key
        # order is query, on0, on1, onU as serialize_tree writes it.
        out = parent[key] = {"query": node.var, **{k: None for k, _ in kids}}
        todo.extend((child, out, k) for k, child in kids)
    return holder["tree"]


def serialize_tree(tree: DecisionTree) -> str:
    """Compact JSON text of a tree; as in ``parse_tree``, a tree nested
    deeper than ``json`` recurses raises ``TreeFormatError``."""
    obj = tree_to_json_dict(tree)
    try:
        return json.dumps(obj, separators=(",", ":"))
    except RecursionError:
        raise TreeFormatError("tree nested too deeply to serialize") from None


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
