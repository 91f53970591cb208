"""Decision trees for the u-query and classical query models.

A u-model tree branches three ways on the answer to a variable query
(0, 1 or u); it computes the hazard-free extension when its leaf agrees
with the extension on every ternary input.  A classical tree branches
two ways and is evaluated on resolved inputs only (``onU`` is absent).

A ``DecisionTree`` is three flat node arrays laid out layer by layer:
the variable each node queries (0 at a leaf), the trit each leaf
outputs, and the index of each node's first child, its two or three
children being consecutive.  The depth search builds them directly,
parsing builds them from the JSON form, and serialization, evaluation
and checking read them; no per-node object exists.

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
known exact or a sweep changes nothing.  The tree is then read off the
array one layer of cells at a time, taking at each node the lowest
variable that attains the optimum, so results are canonical.

``serialize_tree`` and ``tree_to_json_dict`` build the JSON form bottom
up, layer by layer, each node from its children's text or dicts, so any
depth serializes without recursion.  ``verify_tree`` checks a tree
without replaying it input by input: one walk over the node indices
writes each leaf's value into its block of a prediction array (the
inputs that follow the leaf's path), and one comparison with the table
finds the least counterexample.  A malformed node raises the error that
``evaluate_tree`` gives the least input reaching it, unless a mismatch
comes first in code order; on a tie the error wins.  The check reads
only the tree and the table, never the depth arrays.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cache
from typing import Callable

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


@dataclass(frozen=True, slots=True)
class DecisionTree:
    """A decision tree as flat node arrays, one entry per node.

    Node 0 is the root and the nodes come layer by layer.  ``var[i]`` is
    the variable node i queries, 1-based, or 0 at a leaf; ``leaf[i]`` is
    the trit a leaf outputs, 0 at a query node.  The children of node i
    are nodes ``first[i]`` to ``first[i + 1] - 1``, answering 0, 1 and,
    when there are three, u; a leaf has none.  ``first`` has one entry
    more than there are nodes, the node count, so that ``first[i + 1]``
    always exists.  Children are laid out in the order of their parents,
    which is what makes the nodes come in layers.  The constructor
    refuses arrays that do not make such a tree with ``TreeFormatError``.
    """

    var: tuple[int, ...]
    leaf: tuple[int, ...]
    first: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("var", "leaf", "first"):
            object.__setattr__(self, name, tuple(map(operator.index, getattr(self, name))))
        error = _layout_error(self.var, self.leaf, self.first)
        if error is not None:
            raise TreeFormatError(error)

    @classmethod
    def _of(cls, var: tuple, leaf: tuple, first: tuple) -> "DecisionTree":
        """Wrap node arrays that are well formed by construction, without
        the constructor's check, which visits every node in Python."""
        tree = object.__new__(cls)
        for name, array in zip(("var", "leaf", "first"), (var, leaf, first)):
            object.__setattr__(tree, name, array)
        return tree


def _layout_error(var, leaf, first) -> str | None:
    """Why the node arrays do not make a tree; None when they do.  With
    ``first[0] == 1`` and every query node's children after it, each node
    but the root is the child of exactly one earlier node."""
    size = len(var)
    if not size or len(leaf) != size or len(first) != size + 1:
        return "a tree needs one var and leaf entry per node, at least one node, and one first entry more"
    if first[0] != 1 or first[size] != size:
        return f"first must run from 1 to the node count {size}"
    for i, (v, trit, start, stop) in enumerate(zip(var, leaf, first, first[1:])):
        if v < 0:
            return f"node {i}: variable {v} is below 1"
        if v == 0 and stop != start:
            return f"node {i}: variable 0 marks a leaf, which has no children"
        if v == 0 and trit not in (0, 1, UNKNOWN):
            return f"node {i}: leaf value {trit} is not a trit (0, 1 or 2)"
        if v and (stop - start not in (2, 3) or start <= i or trit != 0):
            return f"node {i}: a query node needs 2 or 3 children after it, and leaf value 0"
    return None


def _layer_starts(first: tuple[int, ...]) -> list[int]:
    """The first node of each layer, then the node count.  The children
    of one layer make up the next, so each layer starts at the first
    child of the layer before it."""
    starts = [0]
    while starts[-1] < len(first) - 1:
        starts.append(first[starts[-1]])
    return starts


def tree_depth(tree: DecisionTree) -> int:
    """Length of the longest root-to-leaf path: the number of layers - 1."""
    return len(_layer_starts(tree.first)) - 2


def _bottom_up(tree: DecisionTree, leaf_of: Callable, node_of: Callable):
    """Fold the tree from its deepest layer up: a leaf becomes
    ``leaf_of(trit)``, a query node ``node_of(var, children's results)``.
    Only the results of the layer below are held while a layer is built.
    """
    var, leaf, first = tree.var, tree.leaf, tree.first
    starts = _layer_starts(first)
    below: list = []
    for start, stop in zip(starts[-2::-1], starts[:0:-1]):
        below = [node_of(var[i], below[first[i] - stop:first[i + 1] - stop])
                 if var[i] else leaf_of(leaf[i]) for i in range(start, stop)]
    return below[0]


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
    var, first = tree.var, tree.first
    i, seen = 0, set()
    while var[i]:
        error = _query_error(var[i], len(y), seen)
        if error is not None:
            raise ValueError(error)
        seen.add(var[i])
        kid = first[i] + y[var[i] - 1]
        if kid >= first[i + 1]:
            raise ValueError(_UNRESOLVED)
        i = kid
    return tree.leaf[i]


_NO_LEAF = 3  # a cell no leaf predicts; never a table value


def _least_input(block: tuple) -> tuple[int, ...]:
    """The least input in a block: its fixed answers, 0 on every slice."""
    return tuple(0 if isinstance(b, slice) else b for b in block)


def verify_tree(
    tree: DecisionTree, table: HazardFreeTable
) -> tuple[bool, TernaryString | None]:
    """Check the tree against every input of its model, in code order.

    A classical tree (a root with two children) is checked on the 2**n
    binary inputs against f, any other tree on all 3**n ternary inputs
    against the extension.  Returns (True, None) or (False, c) with the
    lexicographically least counterexample under the position-wise order
    0 < 1 < u.

    The tree is walked once, node index by node index.  Each leaf writes
    its value into its block of a prediction array with one axis per
    variable: the block is the leaf's path answer on each queried axis
    and a full slice on every other.  The array is compared with the
    table in one step, and as 0 < 1 < u is code order, its first
    mismatch in C order is the least counterexample.  A malformed node
    raises the ``ValueError`` that ``evaluate_tree`` raises on the least
    input reaching it (path answers, 0 elsewhere; u at its variable for a
    missing ``onU``), and nothing below it is walked.  Its block predicts
    nothing, so it mismatches from that input on: the earlier of the
    least such input and the first mismatch decides, the error on a tie.
    """
    n = table.arity
    var, leaf, first = tree.var, tree.leaf, tree.first
    expected = np.frombuffer(table.values, dtype=np.uint8).reshape((3,) * n)
    answers = range(first[1] - first[0] if var[0] else 3)
    if len(answers) == 2:
        expected = expected[(slice(0, 2),) * n]
    predicted = np.full(expected.shape, _NO_LEAF, dtype=np.uint8)
    faults = []  # (least input reaching a malformed node, its error)
    todo = [(0, (slice(None),) * n, ())]
    while todo:
        i, block, seen = todo.pop()
        v = var[i]
        if not v:
            predicted[block] = leaf[i]
            continue
        if v > n or v in seen:
            faults.append((_least_input(block), _query_error(v, n, seen)))
            continue
        head, tail, seen = block[:v - 1], block[v:], seen + (v,)
        kid, end = first[i], first[i + 1]
        for answer in answers:
            below = head + (answer,) + tail
            if kid + answer < end:
                todo.append((kid + answer, below, seen))
            else:
                faults.append((_least_input(below), _UNRESOLVED))

    mismatch = predicted != expected
    if not mismatch.any():  # so no malformed node either: its block mismatches
        return True, None
    first_bad = tuple(int(d) for d in np.unravel_index(int(mismatch.argmax()), mismatch.shape))
    fault = min(faults, default=None)
    if fault is not None and fault[0] <= first_bad:
        raise ValueError(fault[1])
    return False, TernaryString(first_bad)


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

    return int(flat[-1]), _read_tree(flat, n, star, answers, values)


@cache
def _moves(n: int, star: int, answers: tuple[int, ...]):
    """Per axis p of an n-digit code in base ``star + 1``: the (span, top)
    with ``key % span >= top`` exactly when digit p of key is the star,
    and the steps from a cell to its children on the axis, stacked over
    the steps of its coarsest completion (a ternary code) alongside."""
    base = star + 1
    strides = [base ** (n - 1 - p) for p in range(n)]
    steps = np.outer(strides, np.subtract(answers, star))
    coarse_steps = np.outer([3 ** (n - 1 - p) for p in range(n)],
                            np.subtract(answers, UNKNOWN))
    both = np.stack([steps, coarse_steps])
    for array in (steps, both):
        array.flags.writeable = False  # shared through the cache
    return [(base * s, star * s) for s in strides], steps, both


def _read_tree(flat: np.ndarray, n: int, star: int, answers: tuple[int, ...],
               values: bytes) -> DecisionTree:
    """The optimal tree below the all-* cell of the relaxed array ``flat``.

    The tree is read layer by layer from a frontier that starts at the
    root cell, each cell carried with its coarsest completion (u at
    every *).  A cell of depth 0 is a leaf and reads ``values`` at that
    completion.  Any other cell queries the lowest * axis whose children
    all sit below its depth: the first variable attaining the minimax
    value.  Its children make up the next frontier in (parent, answer)
    order, so every temporary has the size of a frontier.  A module
    function, not a closure, so that the depth array is freed as soon as
    the tree is built.
    """
    axes, steps, both = _moves(n, star, answers)
    cells = np.array([[flat.size - 1], [3 ** n - 1]])  # cell codes, completions
    var_layers, coarse_layers = [], []
    while True:
        key = cells[0]
        depth = flat[key]
        var = np.zeros(key.size, dtype=np.intp)
        var_layers.append(var)
        coarse_layers.append(cells[1])
        undecided = depth > 0
        left = np.count_nonzero(undecided)
        if not left:
            break
        for p, (span, top) in enumerate(axes):
            # Off the * the steps land on other cells (or wrap round from
            # the end), whose depths the mask drops.
            found = key % span >= top
            found &= np.maximum.reduce(flat[key[:, None] + steps[p]], axis=1) < depth
            found &= undecided
            var[found] = p + 1
            left -= np.count_nonzero(found)
            if not left:
                break
            undecided ^= found
        else:
            raise AssertionError("relaxed depth has no optimal query")
        inner = var.nonzero()[0]
        cells = (cells[:, inner, None] + both[:, var[inner] - 1]).reshape(2, -1)
    var = np.concatenate(var_layers)
    inner = var > 0
    leaf = np.frombuffer(values, dtype=np.uint8)[np.concatenate(coarse_layers)]
    leaf[inner] = 0
    first = np.empty(var.size + 1, dtype=np.intp)  # 1 + children before each node
    first[0] = 1
    np.cumsum(inner * len(answers), out=first[1:])
    first[1:] += 1
    return DecisionTree._of(tuple(var.tolist()), tuple(leaf.tolist()), tuple(first.tolist()))


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


_LEAF_TEXT = ('{"leaf":"0"}', '{"leaf":"1"}', '{"leaf":"u"}')
_NODE_TEXT = {2: '{"query":%d,"on0":%s,"on1":%s}',
              3: '{"query":%d,"on0":%s,"on1":%s,"onU":%s}'}


def tree_to_json_dict(tree: DecisionTree) -> dict:
    """The JSON form of a tree, built bottom-up, layer by layer."""
    return _bottom_up(
        tree, lambda trit: {"leaf": "01u"[trit]},
        lambda var, kids: {"query": var, **dict(zip(TRIT_KEYS, kids))})


def serialize_tree(tree: DecisionTree) -> str:
    """Compact JSON text of a tree, the text ``json.dumps`` gives its JSON
    form, written bottom-up: each node formats its children's text."""
    return _bottom_up(tree, _LEAF_TEXT.__getitem__,
                      lambda var, kids: _NODE_TEXT[len(kids)] % (var, *kids))


def tree_from_json_dict(obj, path: str = "$") -> DecisionTree:
    """Build a tree from its JSON form; error messages carry the JSON path.

    No variable may repeat along a path, so no path is longer than the
    tree's number of distinct variables; a deeper tree is rejected at
    its first repeat.  Nodes are validated in pre-order with an explicit
    stack and then laid out layer by layer, so any nesting depth ends in
    a tree or a ``TreeFormatError``, never in a ``RecursionError``.
    """
    entries: list = []  # pre-order: (var, leaf trit, child entry indices)
    todo = [(obj, path, frozenset(), None)]
    while todo:
        obj, path, seen, parent = todo.pop()
        if parent is not None:
            entries[parent][2].append(len(entries))
        if not isinstance(obj, dict):
            raise TreeFormatError(f"{path}: expected an object, got {type(obj).__name__}")
        if "leaf" in obj:
            if set(obj) != {"leaf"}:
                raise TreeFormatError(f"{path}: leaf object has extra keys {sorted(set(obj) - {'leaf'})}")
            if obj["leaf"] not in ("0", "1", "u"):
                raise TreeFormatError(f"{path}: leaf value must be '0', '1' or 'u'")
            entries.append((0, "01u".index(obj["leaf"]), ()))
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
        entries.append((var, 0, []))
        # Pushed in reverse so that on0 is checked first, then on1, then onU;
        # each child appends itself to its parent's list in that order.
        for key in reversed(TRIT_KEYS):
            if key in obj:
                todo.append((obj[key], f"{path}.{key}", seen, index))
    # Lay the entries out layer by layer: a queue of entries in node order,
    # each node's children appended as it is reached.
    order, var, leaf, first = [0], [], [], []
    for entry in order:
        v, trit, kids = entries[entry]
        var.append(v)
        leaf.append(trit)
        first.append(len(order))
        order.extend(kids)
    first.append(len(order))
    return DecisionTree._of(tuple(var), tuple(leaf), tuple(first))


def parse_tree(text: str) -> DecisionTree:
    """Parse a serialized tree; error messages carry position or JSON path."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    except RecursionError:
        raise TreeFormatError("JSON nested too deeply to parse") from None
    return tree_from_json_dict(obj)
