"""Decision trees for the u-query and classical query models.

A u-model tree branches three ways on the answer to a variable query
(0, 1 or u); it computes the hazard-free extension when its leaf agrees
with the extension on every ternary input.  A classical tree branches
two ways and is evaluated on resolved inputs only (``onU`` is absent).

A ``DecisionTree`` is three flat node arrays laid out layer by layer:
the variable each node queries (0 at a leaf), the trit each leaf
outputs, and the index of each node's first child, its two or three
children being consecutive.  The arrays are read-only NumPy arrays and
are the tree: the depth search of ``depth`` hands over those it built,
parsing builds them from the JSON form, and serialization, evaluation
and checking read them; no per-node object or tuple exists.

``tree_to_json_dict`` builds the JSON form bottom up, layer by layer,
each node from its children's dicts, so any depth converts without
recursion.  Only ``MeasureReport.to_json_dict`` and the verify harness's
tree check, which reads each witness tree back from its JSON form, still
build it.  The text of a tree comes in three styles, each the text
``json.dumps`` gives the JSON form: compact (``serialize_tree``, the
``tree`` command's), with sorted keys on one line (``sorted_tree_text``,
the ``measures --witnesses`` line's) and with sorted keys indented
(``write_indented_tree``, the ``--json`` files').  All three lay the
nodes out in pre-order with NumPy, from the pieces of text below each
layer, found a layer at a time, and join a text fragment per node and a
closer per query node from small tables.

``verify_tree`` checks a well-formed tree without replaying it input by
input: it finds each node's least input and queried axes a layer at a
time, writes the leaves into a prediction array one group of leaves
with the same queried axes at a time, and compares the array with the
table once to find the least counterexample; the verify harness writes
leaf indices the same way (``_leaf_grid``) to find the leaf each input
reaches.  A tree that is not well formed (a variable outside 1..n or
repeated on a path, or a node with another child count than the root)
is evaluated input by input instead; no tree the package builds is one.
The check reads only the tree and the table, never the depth search's
level planes.
"""

from __future__ import annotations

import array
import json
import operator
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import UNKNOWN, HazardFreeTable, TernaryString, as_ternary

TRIT_KEYS = ("on0", "on1", "onU")


class TreeFormatError(ValueError):
    """Raised for malformed serialized trees."""


_FIELDS = ("var", "leaf", "first")


@dataclass(frozen=True, slots=True, eq=False)
class DecisionTree:
    """A decision tree as flat node arrays, one entry per node.

    Node 0 is the root and the nodes come layer by layer.  ``var[i]`` is
    the variable node i queries, 1-based, or 0 at a leaf; ``leaf[i]`` is
    the trit a leaf outputs, 0 at a query node.  The children of node i
    are nodes ``first[i]`` to ``first[i + 1] - 1``, answering 0, 1 and,
    when there are three, u; a leaf has none.  ``first`` has one entry
    more than there are nodes, the node count, so that ``first[i + 1]``
    always exists.  Children are laid out in the order of their parents,
    which is what makes the nodes come in layers.

    The fields are read-only NumPy arrays: ``var`` and ``first`` int64,
    ``leaf`` uint8; ``var`` holds Python ints instead when a variable is
    2**31 or more, so that no sum or product with it overflows.  The
    constructor takes any int sequences and refuses those that do not
    make such a tree with ``TreeFormatError``.  Two trees are equal when
    their arrays hold the same values.
    """

    var: np.ndarray
    leaf: np.ndarray
    first: np.ndarray

    def __post_init__(self) -> None:
        nodes = [list(map(operator.index, getattr(self, name))) for name in _FIELDS]
        error = _layout_error(*nodes)
        if error is not None:
            raise TreeFormatError(error)
        _set_nodes(self, *nodes)

    @classmethod
    def _of(cls, var: Sequence[int], leaf: Sequence[int], first: Sequence[int]) -> "DecisionTree":
        """Wrap node arrays, or int lists, that are well formed by
        construction, without the constructor's check, which visits every
        node in Python.  An array is kept as it is, made read-only."""
        return _set_nodes(object.__new__(cls), var, leaf, first)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionTree):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _FIELDS)

    def __hash__(self) -> int:
        # Of the arrays that are uint8 and int64 on every route, so that
        # equal trees have equal bytes; ``var`` may hold Python ints.
        return hash((self.leaf.tobytes(), self.first.tobytes()))

    def __reduce__(self):
        # Rebuilt through _of, so a copy's arrays are read-only too.
        return DecisionTree._of, (self.var, self.leaf, self.first)


def _set_nodes(tree: DecisionTree, var, leaf, first) -> DecisionTree:
    """Store the node arrays on a tree, each read-only, shared by every reader."""
    leaf = leaf if isinstance(leaf, np.ndarray) else np.frombuffer(bytes(leaf), dtype=np.uint8)
    for name, values in zip(_FIELDS, (_node_values(var), leaf, _node_values(first))):
        values.setflags(write=False)
        object.__setattr__(tree, name, values)
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


def _layer_starts(first: Sequence[int]) -> list[int]:
    """The first node of each layer, then the node count.  The children
    of one layer make up the next, so each layer starts at the first
    child of the layer before it."""
    starts = [0]
    while starts[-1] < len(first) - 1:
        starts.append(int(first[starts[-1]]))
    return starts


def tree_depth(tree: DecisionTree) -> int:
    """Length of the longest root-to-leaf path: the number of layers - 1."""
    return len(_layer_starts(tree.first)) - 2


def _node_values(values: Sequence[int]) -> np.ndarray:
    """A node array as int64, read without a Python step per node; an
    ndarray is passed through as it is.  One holding a value of 2**31 or
    more (a variable no table has) becomes an array of Python ints, on
    which the same NumPy calls work, so that no sum or product of a
    value and a node count overflows."""
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.frombuffer(array.array("i", values), dtype=np.int32).astype(np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _links(tree: DecisionTree) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The first node of each layer (then the node count), the ``first``
    array, and per node its parent (0 at the root) and the answer that
    leads to it (3 at the root).  As the children of each node are
    consecutive and come in the order of their parents, node j > 0 is a
    child of the node repeated at j - 1 when each node is repeated once
    per child."""
    first = tree.first
    size = len(first) - 1
    parent = np.zeros(size, dtype=np.intp)
    parent[1:] = np.arange(size).repeat(first[1:] - first[:-1])
    answer = np.arange(size) - first[parent]
    answer[0] = 3
    return _layer_starts(first), first, parent, answer


def evaluate_tree(tree: DecisionTree, y: TernaryString | str) -> int:
    """Walk the tree reading answers off y; returns the leaf trit."""
    y = as_ternary(y)
    var, first = tree.var, tree.first
    i, seen = 0, set()
    while v := int(var[i]):
        if not 1 <= v <= len(y):
            raise ValueError(f"tree queries variable {v} outside 1..{len(y)}")
        if v in seen:
            raise ValueError(f"tree queries variable {v} twice on one path")
        seen.add(v)
        kid = int(first[i]) + y[v - 1]
        if kid >= first[i + 1]:
            raise ValueError("classical tree evaluated on an unresolved input")
        i = kid
    return int(tree.leaf[i])


@cache
def _axis_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per variable v in 0..n: its bit among a set of queried axes, and
    per answer a, a times its weight in the code of an input of length n
    plus the bit times 3**n; both 0 at v = 0."""
    weight = np.zeros(n + 1, dtype=np.int64)
    weight[1:] = 3 ** np.arange(n - 1, -1, -1)
    bit = np.zeros(n + 1, dtype=np.int64)
    bit[1:] = 1 << np.arange(n)
    step = np.outer(weight, range(4)) + bit[:, None] * 3 ** n
    for table in (bit, step):
        table.flags.writeable = False  # shared through the cache
    return bit, step


class _Leaves(NamedTuple):
    """Where the leaves of a well-formed tree lie among the inputs of its model."""

    grid: np.ndarray   # per input, one axis per variable: its leaf's entry
    reach: np.ndarray  # per node: its queried axes times 3**n plus its least input's code


def _answers(tree: DecisionTree) -> int:
    """The answers a node branches on: 2 under a classical root, else 3."""
    return int(tree.first[1] - tree.first[0]) if tree.var[0] else 3


def _leaf_grid(tree: DecisionTree, n: int, entry: np.ndarray) -> _Leaves | None:
    """Write ``entry[i]`` at every input of length n that reaches leaf i;
    None when the tree is not well formed for arity n.

    Well formed means that every query variable lies in 1..n, that no
    variable repeats on a path and that every query node has as many
    children as the root, so that every input of the tree's model reaches
    exactly one leaf.  The grid has one axis per variable over the tree's
    answers.  The nodes are taken a layer at a time.  Each node gets the
    code of the least input reaching it (its path answers, 0 elsewhere)
    and the set of axes its path queries, from its parent's by one
    addition per layer.  The leaves are grouped by that set, and each
    group writes its entries in one assignment, through a view with the
    group's queried axes first: a leaf's block is its path answer on each
    of them and every value on the others.
    """
    starts, _, parent, answer = _links(tree)
    var = tree.var
    kids = np.bincount(parent[1:], minlength=parent.size)
    if (var > n).any() or (kids[var != 0] != kids[0]).any():
        return None
    var = var.astype(np.intp)
    bit, step = _axis_steps(n)
    # Per node, its queried axes times 3**n plus the code of the least
    # input reaching it, which is below 3**n; both fit an int64 for every
    # n a table can have.  Below a repeated variable these read anything,
    # and the tree is refused.
    reach = step[var[parent], answer]
    reach[0] = 0
    for start, stop in zip(starts[1:], starts[2:]):
        reach[start:stop] += reach[parent[start:stop]]
    if (reach // 3 ** n & bit[var]).any():
        return None

    leaves = (var == 0).nonzero()[0]
    leaves = leaves[np.argsort(reach[leaves])]  # by queried axes
    groups, codes = np.divmod(reach[leaves], 3 ** n)
    edges = ((groups[1:] != groups[:-1]).nonzero()[0] + 1).tolist()
    bounds = [0, *edges, leaves.size]
    entry = entry[leaves]
    grid = np.empty((_answers(tree),) * n, dtype=entry.dtype)
    for lo, hi in zip(bounds, bounds[1:]):
        mask = int(groups[lo])
        fixed = [p for p in range(n) if mask >> p & 1]
        free = [p for p in range(n) if not mask >> p & 1]
        digits = np.unravel_index(codes[lo:hi], (3,) * n)
        grid.transpose(fixed + free)[tuple(digits[p] for p in fixed)] = \
            entry[lo:hi].reshape((-1,) + (1,) * len(free))
    return _Leaves(grid, reach)


def verify_tree(
    tree: DecisionTree, table: HazardFreeTable
) -> tuple[bool, TernaryString | None]:
    """Check the tree against every input of its model, in code order.

    A classical tree (a root with two children) is checked on the 2**n
    binary inputs against f, any other tree on all 3**n ternary inputs
    against the extension.  Returns (True, None) or (False, c) with the
    lexicographically least counterexample under the position-wise order
    0 < 1 < u.

    A well-formed tree (see ``_leaf_grid``) is checked in one step: its
    leaf values fill a prediction array with one axis per variable, and
    as 0 < 1 < u is code order, the array's first mismatch with the table
    in C order is the least counterexample.  Any other tree is evaluated
    on each input in code order, and the ``ValueError`` that
    ``evaluate_tree`` raises at the least input that fails propagates
    unless a mismatch comes first.  That walk takes a Python step per
    input, seconds at n = 12, and only trees from outside input take it:
    every tree the package builds is well formed.
    """
    n = table.arity
    answers = _answers(tree)
    expected = table.grid[(slice(0, answers),) * n]
    leaves = _leaf_grid(tree, n, tree.leaf)
    if leaves is None:
        for trits, want in zip(product(range(answers), repeat=n), expected.ravel().tolist()):
            y = TernaryString(trits)
            if evaluate_tree(tree, y) != want:
                return False, y
        return True, None
    mismatch = leaves.grid != expected
    if not mismatch.any():
        return True, None
    first_bad = np.unravel_index(int(mismatch.argmax()), mismatch.shape)
    return False, TernaryString(tuple(int(d) for d in first_bad))


# ---------------------------------------------------------------------------
# Serialization: {"leaf": "0"|"1"|"u"} | {"query": i, "on0": T, "on1": T, "onU": T}
# with "onU" omitted in classical trees.


def tree_to_json_dict(tree: DecisionTree) -> dict:
    """The JSON form of a tree, built bottom-up, layer by layer: only the
    dicts of the layer below are held while a layer is built."""
    var, leaf, first = (values.tolist() for values in (tree.var, tree.leaf, tree.first))
    starts = _layer_starts(first)
    below: list = []
    for start, stop in reversed(list(zip(starts, starts[1:]))):
        below = [{"query": var[i],
                  **dict(zip(TRIT_KEYS, below[first[i] - stop:first[i + 1] - stop]))}
                 if var[i] else {"leaf": "01u"[leaf[i]]} for i in range(start, stop)]
    return below[0]


def _slots(tree: DecisionTree, query: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each node's layer and the answer that leads to it (3 at the root),
    and where the fragment of each node and the closer of each query
    node go among the pieces of the tree's text.

    A leaf writes one piece and a query node two, its fragment and its
    closer; the pieces of a subtree are consecutive, the fragment of its
    root first and its closer last.  ``ahead[j]`` starts as minus the
    pieces of nodes j and on (0 at j = size) and then, a layer at a time
    from the deepest up, adds ``ahead[first[j]]``.  As the children of
    nodes a..b-1 of one layer are nodes first[a]..first[b]-1,
    ``ahead[b] - ahead[a]`` then counts the pieces of those nodes'
    subtrees.  A node's fragment comes right after its parent's fragment
    and the pieces of its earlier siblings' subtrees, offsets summed
    along each path a layer at a time from the root down.
    """
    starts, first, parent, answer = _links(tree)
    size = len(parent)
    ahead = np.zeros(size + 1, dtype=np.int64)
    ahead[query + 1] = 1
    ahead = ahead.cumsum()  # the query nodes before each node
    ahead += np.arange(-size - len(query), 1 - len(query))
    for start, stop in reversed(list(zip(starts, starts[1:-1]))):  # the deepest has no nodes below
        ahead[start:stop] += ahead[first[start:stop]]
    at = ahead[:-1] - ahead[first[parent]]
    at += 1
    at[0] = 0
    layer = np.zeros(size, dtype=np.int64)
    for depth, (start, stop) in enumerate(zip(starts[1:], starts[2:]), 1):
        at[start:stop] += at[parent[start:stop]]
        layer[start:stop] = depth
    return layer, answer, at, at[query] + ahead[query + 1] - ahead[query] - 1


def _preorder_text(tree: DecisionTree, fragment: Callable, closer: Callable,
                   by_layer: bool) -> list:
    """The text of a tree as pieces, in the order they are written.

    Each node, in pre-order, writes ``fragment(answer, layer, head)``: its
    key among its siblings (answer 0, 1 or 2; 3 at the root, which has
    none), then its head, a leaf trit or 3 + the variable it queries.
    After it come, for each query node whose subtree ends there, deepest
    first, ``closer(layer, var)``.  Each piece gets a key, a closer's
    negative, and a table holds the text of each distinct key, so no text
    is made per node.  Texts that do not depend on the layer are keyed
    without it (``by_layer`` false, the layer passed as 0), so that fewer
    are made.
    """
    var, leaf = tree.var, tree.leaf
    query = var.nonzero()[0]
    layer, answer, fragment_at, closer_at = _slots(tree, query)
    if not by_layer:
        layer[:] = 0
    layers = int(layer[-1]) + 1
    keys = np.empty(len(var) + len(query), dtype=var.dtype)
    keys[closer_at] = -1 - (var[query] * layers + layer[query])
    head = var + leaf
    head[query] += 3
    head *= layers
    head += layer
    head *= 4
    head += answer
    del layer, answer  # freed for the lookup of the texts, the peak of memory
    keys[fragment_at] = head
    del head
    # The distinct keys, as np.unique finds them, without its fixed cost.
    order = keys.argsort()
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    texts = [fragment(key % 4, key // 4 % layers, key // 4 // layers) if key >= 0
             else closer((-1 - key) % layers, (-1 - key) // layers)
             for key in keys[new].tolist()]
    del keys
    pieces = np.empty(len(order), dtype=object)
    pieces[order] = np.array(texts, dtype=object)[new.cumsum() - 1]
    return pieces.tolist()


_LEAF_TEXT = ('{"leaf":"0"}', '{"leaf":"1"}', '{"leaf":"u"}')
_KEY_TEXT = ('"on0":', ',"on1":', ',"onU":', "")


def serialize_tree(tree: DecisionTree) -> str:
    """Compact JSON text of a tree, the text ``json.dumps`` gives its JSON
    form, joined from its pre-order pieces."""
    def fragment(answer, layer, head):
        return _KEY_TEXT[answer] + (_LEAF_TEXT[head] if head < 3 else '{"query":%d,' % (head - 3))
    return "".join(_preorder_text(tree, fragment, lambda layer, var: "}", False))


def _sorted_key_text(tree: DecisionTree, nesting: int | None) -> list:
    """The pieces of the text ``json.dumps(..., sort_keys=True)`` gives the
    JSON form of a tree: on one line with the default separators when
    ``nesting`` is None, else with ``indent=2`` for a tree that sits
    ``nesting`` objects deep.  They are those of ``serialize_tree`` with
    the ``"query"`` key moved into the closer, as ``sort_keys`` puts it
    last; indented, each is indented by its node's layer."""
    if nesting is None:
        comma = ", "

        def indent(layer):
            return ""
    else:
        comma = ","

        def indent(layer):
            return "\n" + "  " * (nesting + layer)

    def fragment(answer, layer, head):
        key = "" if answer == 3 else \
            comma * (answer > 0) + indent(layer) + '"%s": ' % TRIT_KEYS[answer]
        if head >= 3:
            return key + "{"
        return key + "{" + indent(layer + 1) + '"leaf": "%s"' % "01u"[head] + indent(layer) + "}"

    def closer(layer, var):
        return comma + indent(layer + 1) + '"query": %d' % var + indent(layer) + "}"
    return _preorder_text(tree, fragment, closer, nesting is not None)


def sorted_tree_text(tree: DecisionTree) -> str:
    """The text ``json.dumps(tree_to_json_dict(tree), sort_keys=True)``
    gives, joined from the tree's pre-order pieces without a dict per node."""
    return "".join(_sorted_key_text(tree, None))


def write_indented_tree(tree: DecisionTree, handle, nesting: int = 0) -> None:
    """Write the text ``json.dumps(..., indent=2, sort_keys=True)`` gives the
    JSON form of a tree that sits ``nesting`` objects deep.  The pieces are
    written one by one, so the whole text is never held.  The ``json``
    module's indenting encoder is pure Python, and on a tree of 100k nodes
    takes ten times as long."""
    handle.writelines(_sorted_key_text(tree, nesting))


def tree_from_json_dict(obj) -> DecisionTree:
    """Build a tree from its JSON form; error messages carry the JSON path.

    No variable may repeat along a path, so no path is longer than the
    tree's number of distinct variables; a deeper tree is rejected at
    its first repeat.  Nodes are validated in pre-order with an explicit
    stack and then laid out layer by layer, so any nesting depth ends in
    a tree or a ``TreeFormatError``, never in a ``RecursionError``.
    """
    entries: list = []  # pre-order: (var, leaf trit, child entry indices)
    todo = [(obj, "$", frozenset(), None)]
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
    return DecisionTree._of(var, leaf, first)


def parse_tree(text: str) -> DecisionTree:
    """Parse a serialized tree; error messages carry position or JSON path."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    except RecursionError:
        raise TreeFormatError("JSON nested too deeply to parse") from None
    return tree_from_json_dict(obj)


def __getattr__(name: str):
    """The depth searches under their old names, for the benchmark tracer,
    which still wraps them as ``uquery.trees`` entry points; to go with
    ROADMAP item 1.  Looked up on use, as ``depth`` imports this module."""
    if name in ("query_complexity", "query_complexity_u"):
        from . import depth
        return getattr(depth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
