"""Decision trees for the u-query and classical query models.

A u-model tree branches three ways on the answer to a variable query
(0, 1 or u); it computes the hazard-free extension when its leaf agrees
with the extension on every ternary input.  A classical tree branches
two ways and is evaluated on resolved inputs only (``onU`` is absent).

A ``DecisionTree`` is two read-only NumPy arrays laid out layer by
layer, the variable each node queries (0 at a leaf) and the trit each
leaf outputs, and they are the tree: the depth search of ``depth``
hands over those it built, parsing builds them from the JSON form, and
serialization, evaluation and checking read them, with no per-node
object.  Every tree is well formed, as the constructor
``DecisionTree(var, leaf)``, ``tree_from_json_dict`` and ``parse_tree``
refuse any other with ``TreeFormatError``: query node k, the k-th in
node order, has children 1 + b*k to b*k + b for its b answers, b read
off the node count (1 + b times the query nodes), no variable repeats
on a path, and each variable lies in 1..2**31 - 1.  So each node is
reached by some input of its model once its variables are among the
table's.

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

``verify_tree`` checks a tree without replaying it input by input: it
finds each node's least input, coded in the model's base (2 for a
classical tree), and its queried axes a layer at a time, writes the
leaves into a prediction array one group of leaves with the same
queried axes at a time, and compares the array with the table once to
find the least counterexample; the verify harness writes leaf indices
the same way (``_leaf_grid``) to find the leaf each input reaches.  A
group of leaves with small blocks writes through flat input codes, one
index per input in chunks; one with large blocks broadcasts each leaf's
entry over its block.  On the u-model tree of maj:11 (107,095 nodes)
the check takes 1.9 ms, on that of random:12:777 2.6 ms (best of 15,
2-CPU x86-64).  A tree that queries a variable above the table's arity
is refused with ``ValueError`` before any input is replayed.  The check
reads only the tree and the table, never the depth search's level
planes.
"""

from __future__ import annotations

import array
import json
import operator
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import UNKNOWN, HazardFreeTable, TernaryString, as_ternary

TRIT_KEYS = ("on0", "on1", "onU")
_MODELS = {2: "classical", 3: "u-model"}  # by the answers a query node branches on


class TreeFormatError(ValueError):
    """Raised for node arrays, JSON forms or texts that do not make a
    well-formed tree."""


_FIELDS = ("var", "leaf")


@dataclass(frozen=True, slots=True, eq=False)
class DecisionTree:
    """A decision tree as two flat node arrays, one entry per node.

    Node 0 is the root and the nodes come layer by layer.  ``var[i]`` is
    the variable node i queries, 1-based, or 0 at a leaf; ``leaf[i]`` is
    the trit a leaf outputs, 0 at a query node.  Query node k, the k-th
    in node order, has children 1 + b*k to b*k + b, answering 0, 1 and,
    when b is 3, u; so a tree of q query nodes has 1 + b*q nodes, and b
    is read off the node count (3 for a tree that is one leaf).

    The fields are read-only NumPy arrays, ``var`` int64 and ``leaf``
    uint8.  The tree is well formed: b is 2 (classical) or 3 (u-model),
    every query node's children come after it, no variable repeats on a
    path, and every variable is below 2**31, so that no sum or product of
    one with a node count overflows.  ``DecisionTree(var, leaf)`` copies
    any int sequences and refuses those that do not make such a tree
    with ``TreeFormatError``.  Two trees are equal when their arrays hold
    the same values.
    """

    var: np.ndarray
    leaf: np.ndarray

    def __post_init__(self) -> None:
        var, leaf = (_ints(getattr(self, name)) for name in _FIELDS)
        _check_layout(var, leaf)
        _set_nodes(self, var.astype(np.int64), leaf.astype(np.uint8))

    @classmethod
    def _of(cls, var: Sequence[int], leaf: Sequence[int]) -> "DecisionTree":
        """Wrap node arrays, or int lists, that are well formed by
        construction, without the constructor's check.  An array is kept
        as it is, made read-only."""
        return _set_nodes(object.__new__(cls), var, leaf)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionTree):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _FIELDS)

    def __hash__(self) -> int:
        # The arrays are int64 and uint8 on every route, so equal trees
        # have equal bytes.
        return hash(tuple(getattr(self, name).tobytes() for name in _FIELDS))

    def __reduce__(self):
        # Rebuilt through _of, so a copy's arrays are read-only too.
        return DecisionTree._of, (self.var, self.leaf)


def _split_trees(var: np.ndarray, leaf: np.ndarray, owner: np.ndarray,
                 count: int) -> list[DecisionTree]:
    """The trees of ``count`` tables read together layer by layer, node i
    of the node arrays belonging to table ``owner[i]``: each layer holds
    the tables' nodes in table order, so one stable sort by table puts
    each tree's nodes together, in its own layer order."""
    order = np.argsort(owner, kind="stable")
    ends = np.cumsum(np.bincount(owner, minlength=count))[:-1]
    return [DecisionTree._of(*nodes)
            for nodes in zip(np.split(var[order], ends), np.split(leaf[order], ends))]


def _set_nodes(tree: DecisionTree, var, leaf) -> DecisionTree:
    """Store the node arrays on a tree, each read-only, shared by every
    reader; int lists are read without a Python step per node."""
    if not isinstance(var, np.ndarray):
        var = np.frombuffer(array.array("q", var), dtype=np.int64)
    if not isinstance(leaf, np.ndarray):
        leaf = np.frombuffer(bytes(leaf), dtype=np.uint8)
    for name, values in zip(_FIELDS, (var, leaf)):
        values.setflags(write=False)
        object.__setattr__(tree, name, values)
    return tree


def _ints(values) -> np.ndarray:
    """Int sequence values as an array of their NumPy int dtype, or else
    of Python ints, so that one beyond int64 is checked as it is."""
    held = np.asarray(values)
    return held if held.dtype.kind in "iu" else np.array(list(map(operator.index, values)), dtype=object)


_VAR_LIMIT = 1 << 31  # so that a sum or product of a variable and a node count fits int64


def _check_layout(var: np.ndarray, leaf: np.ndarray) -> None:
    """Raise ``TreeFormatError`` unless the node arrays make a well-formed
    tree, naming the least node at fault once the node count fits.  Node
    j > 0 has parent query node (j - 1) // b, and ``_repeats`` finds the
    query nodes that repeat a variable of their path."""
    size = var.size
    if not size or var.shape != (size,) or leaf.shape != (size,):
        raise TreeFormatError("a tree needs one var and one leaf entry per node, and at least one node")
    query, base = var.nonzero()[0], _answers(var)
    if size != 1 + base * query.size or base not in (2, 3):
        raise TreeFormatError(f"{size} nodes with {query.size} query nodes: a tree of q query nodes "
                              "has 1 + b*q nodes, b = 2 or 3")
    rules = [(np.flatnonzero((var < 0) | (var >= _VAR_LIMIT)), "variable {} is outside 1..2**31 - 1"),
             (np.flatnonzero((var == 0) & ((leaf < 0) | (leaf > UNKNOWN))), "a leaf needs a trit (0, 1 or 2)"),
             (query[leaf[query] != 0], "a query node needs leaf value 0"),
             (query[query >= 1 + base * np.arange(query.size)], "a query node needs its children after it"),
             (_repeats(var, query, base), "variable {} repeats along the path")]
    faults = [(int(nodes.min()), text) for nodes, text in rules if nodes.size]
    if faults:
        i, text = min(faults, key=operator.itemgetter(0))  # the first rule broken at the least node
        raise TreeFormatError(f"node {i}: " + text.format(var[i]))


def _repeats(var: np.ndarray, query: np.ndarray, base: int) -> np.ndarray:
    """The query nodes whose variable one of their ancestors queries.

    A node's path climbs from parent to parent for as long as the parent
    comes before it: query node k, the k-th, is the parent of nodes
    1 + b*k to b*k + b.  Those links make a forest over the query nodes,
    whose pre-order gives each node the range of its descendants, so a
    node repeats a variable of its path iff a node of that variable
    before it in pre-order still covers it.  The pre-order is found by
    pointer jumping, each round doubling the steps taken: the node that
    follows each node's subtree, the next sibling of its nearest
    ancestor that has one (the next root for a whole tree), and then each
    node's distance to the end of the order.  So the check takes
    O(q log q) time for q query nodes, whatever the depth: the
    constructor takes 0.04 s on a chain of depth 100,000, where walking
    every query node's ancestors took 48 s (2-CPU x86-64)."""
    q = query.size
    end, rank = q, np.arange(q)  # ranks number the query nodes; every jump stops at ``end``
    parent = (query - 1) // base  # the parent's rank, a link where the parent comes first
    linked = (query > 0) & (query[parent] < query)
    children = rank[linked]  # grouped by parent, in order
    eldest = np.diff(parent[children], prepend=-1) != 0
    first = np.full(q + 1, end)
    first[parent[children[eldest]]] = children[eldest]
    sibling = np.full(q + 1, end)
    pairs = linked[:-1] & linked[1:] & (parent[:-1] == parent[1:])
    sibling[:-2][pairs] = rank[1:][pairs]
    roots = rank[~linked]
    sibling[roots[:-1]] = roots[1:]
    # Per node, its nearest ancestor (itself included) with a next sibling.
    climb = np.append(np.where(sibling[:-1] < end, rank, np.where(linked, parent, end)), end)
    while not np.array_equal(hop := climb[climb], climb):
        climb = hop
    after = sibling[climb]  # per node: the node that follows its subtree in pre-order
    succ, left = np.where(first < end, first, after), np.ones(q + 1, dtype=np.int64)
    left[end] = 0
    while (succ < end).any():
        left, succ = left + left[succ], succ[succ]
    start = q - left  # per node: its place in pre-order; q at the end
    # Keyed by variable, then place, each node's descendants lie between
    # its key and the key of the node after its subtree; variables are
    # ranked first, so that keys fit int64 whatever the variables.
    _, kind = np.unique(var[query], return_inverse=True)
    shift = kind * (q + 1)
    key = shift + start[:-1]
    order = np.argsort(key)
    covered = np.maximum.accumulate((shift + start[after[:-1]])[order])
    return query[order[1:][covered[:-1] > key[order[1:]]]]


def _answers(var: np.ndarray) -> int:
    """The answers b every query node branches on, read off the node
    count, 1 + b times the query nodes: 3 for a tree that is one leaf."""
    queries = int(np.count_nonzero(var))
    return (var.size - 1) // queries if queries else 3


def _first_children(var: np.ndarray) -> tuple[int, np.ndarray]:
    """The answers b every query node branches on, and per node its first
    child if it is a query node: query node k, the k-th in node order,
    has children 1 + b*k to b*k + b, so one cumsum counts the query nodes
    up to each node."""
    answers, kids = _answers(var), (var != 0).cumsum()
    kids *= answers
    kids -= answers - 1
    return answers, kids


def _layer_starts(tree: DecisionTree) -> list[int]:
    """The first node of each layer, then the node count: the root makes
    layer 0, and each later layer holds b children per query node of the
    layer before it."""
    var = tree.var
    base, starts = _answers(var), [0, 1]
    while starts[-1] < var.size:
        starts.append(starts[-1] + base * int(np.count_nonzero(var[starts[-2]:starts[-1]])))
    return starts


def tree_depth(tree: DecisionTree) -> int:
    """Length of the longest root-to-leaf path: the number of layers - 1."""
    return len(_layer_starts(tree)) - 2


def evaluate_tree(tree: DecisionTree, y: TernaryString | str) -> int:
    """Walk the tree reading answers off y; returns the leaf trit.  A
    classical tree raises ``ValueError`` on a u answer, as does any tree
    on a variable beyond y."""
    y = as_ternary(y)
    answers, kids = _first_children(tree.var)
    var, kids = tree.var.item, kids.item
    i = 0
    while v := var(i):
        if v > len(y):
            raise ValueError(f"tree queries variable {v} outside 1..{len(y)}")
        if y[v - 1] >= answers:
            raise ValueError("classical tree evaluated on an unresolved input")
        i = kids(i) + y[v - 1]
    return int(tree.leaf[i])


# A node's reach holds the code of its least input in the low bits and
# its queried axes above them: 40 bits hold the code of a ternary input
# of 25 variables and leave 23 bits for the axes, more than a table of
# 3**n bytes can have on any machine.
_CODE_BITS = 40


@cache
def _axis_steps(n: int, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Per variable v in 0..n and answer a below base: a times v's weight
    in the code of an input of length n in that base, and that plus v's
    bit among a set of queried axes above the code; all 0 at v = 0."""
    weight = np.zeros(n + 1, dtype=np.int64)
    weight[1:] = base ** np.arange(n - 1, -1, -1)
    spread = np.outer(weight, range(base))
    step = spread.copy()
    step[1:] += (1 << _CODE_BITS + np.arange(n))[:, None]
    for table in (spread, step):
        table.flags.writeable = False  # shared through the cache
    return spread, step


class _Leaves(NamedTuple):
    """Where the leaves of a well-formed tree lie among the inputs of its model."""

    grid: np.ndarray   # per input, one axis per variable: its leaf's entry
    reach: np.ndarray  # per node: its queried axes and the code of its least input

    def paths(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per node given, the set of axes its path queries, bit p for
        variable p + 1, and the code of its least input in the model's base."""
        reach = self.reach[nodes]
        return reach >> _CODE_BITS, reach & (1 << _CODE_BITS) - 1


# The largest block a group of leaves writes through flat codes; larger
# blocks are written by broadcasting, which costs less per input.  The
# flat index of one write has at most _CHUNK entries, 32 KiB.
_FLAT_BLOCK = 16
_CHUNK = 1 << 12


def _leaf_grid(tree: DecisionTree, n: int, entry: np.ndarray) -> _Leaves:
    """Write ``entry[i]`` at every input of length n that reaches leaf i,
    for a tree whose variables lie in 1..n.

    As the tree is well formed, every input of its model, over the b
    answers of its query nodes, reaches exactly one leaf.  The grid has
    one axis per variable over the b answers.  The nodes are taken a
    layer at a time: the children of a layer's query nodes, b each, make
    up the next layer, and each gets the code in base b of the least
    input reaching it (its path answers, 0 elsewhere) and the set of
    axes its path queries, its parent's plus one step.  The leaves are
    grouped by that set with a stable sort on it alone.  The block of
    inputs a leaf reaches is its code plus each code that is 0 on the
    queried axes.  A group whose blocks have at most 16 inputs writes
    its entries through those flat codes, a chunk of leaves at a time so
    that the index stays small; one with larger blocks writes each block
    as one broadcast value, through a view of the grid with the queried
    axes first.
    """
    var = tree.var
    base, query = _answers(var), var.nonzero()[0]
    spread, step = _axis_steps(n, base)
    asked = var[query]
    reach = np.zeros(var.size, dtype=np.int64)
    starts = _layer_starts(tree)
    for start, stop in zip(starts[1:], starts[2:]):
        # Query node j has children 1 + b*j to b*j + b.
        parents = slice((start - 1) // base, (stop - 1) // base)
        reach[start:stop] = (reach[query[parents], None] + step[asked[parents]]).ravel()

    leaves = (var == 0).nonzero()[0]
    leaves = leaves[(reach[leaves] >> _CODE_BITS).argsort(kind="stable")]
    found = _Leaves(np.empty((base,) * n, dtype=entry.dtype), reach)
    groups, codes = found.paths(leaves)
    entry = entry[leaves]
    flat = found.grid.reshape(-1)
    edges = ((groups[1:] != groups[:-1]).nonzero()[0] + 1).tolist()
    for lo, hi in zip([0, *edges], [*edges, leaves.size]):
        mask = int(groups[lo])
        free = [p for p in range(n) if not mask >> p & 1]
        if base ** len(free) > _FLAT_BLOCK:
            fixed = [p for p in range(n) if mask >> p & 1]
            digits = np.unravel_index(codes[lo:hi], (base,) * n)
            found.grid.transpose(fixed + free)[tuple(digits[p] for p in fixed)] = \
                entry[lo:hi].reshape((-1,) + (1,) * len(free))
            continue
        offsets = np.zeros(1, dtype=np.int64)
        for p in free:
            offsets = np.add.outer(offsets, spread[p + 1]).ravel()
        cuts = [*range(lo, hi, _CHUNK // offsets.size), hi]
        for at, to in zip(cuts, cuts[1:]):
            flat[codes[at:to, None] + offsets] = entry[at:to, None]
    return found


def verify_tree(
    tree: DecisionTree, table: HazardFreeTable
) -> tuple[bool, TernaryString | None]:
    """Check the tree against every input of its model, in code order.

    A classical tree (a root with two children) is checked on the 2**n
    binary inputs against f, any other tree on all 3**n ternary inputs
    against the extension.  Returns (True, None) or (False, c) with the
    lexicographically least counterexample under the position-wise order
    0 < 1 < u.  A tree that queries a variable above n raises
    ``ValueError`` naming it, before any input is checked: as the tree
    is well formed, some input reaches that query.

    The check is one step: the leaf values fill a prediction array with
    one axis per variable (see ``_leaf_grid``), each group of leaves with
    the same queried axes in one or a few writes, and as 0 < 1 < u is
    code order, the array's first mismatch with the table in C order is
    the least counterexample.  That takes 1.9 ms on the 107,095-node
    u-model tree of maj:11 and about 0.03 ms on a tree of arity 3 (2-CPU
    x86-64).
    """
    n = table.arity
    top = int(tree.var.max())
    if top > n:
        raise ValueError(f"tree queries variable {top} outside 1..{n}")
    mismatch = _leaf_grid(tree, n, tree.leaf).grid != table.grid[(slice(0, _answers(tree.var)),) * n]
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
    var, leaf = tree.var.tolist(), tree.leaf.tolist()
    base, starts = _answers(tree.var), _layer_starts(tree)
    below: list = []
    for start, stop in reversed(list(zip(starts, starts[1:]))):
        # The j-th query node of the layer takes below[b*j:b*j + b].
        kids = (below[j:j + base] for j in range(0, len(below), base))
        below = [{"query": var[i], **dict(zip(TRIT_KEYS, next(kids)))}
                 if var[i] else {"leaf": "01u"[leaf[i]]} for i in range(start, stop)]
    return below[0]


def _slots(tree: DecisionTree, query: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each node's layer and the answer that leads to it (3 at the root),
    and where the fragment of each node and the closer of each query
    node go among the pieces of the tree's text.

    A leaf writes one piece and a query node two, its fragment and its
    closer; the pieces of a subtree are consecutive, the fragment of its
    root first and its closer last.  Any children of node j start at
    c(j) = 1 + b * (the query nodes before j), so those of nodes
    i..e-1 of a layer are nodes c(i)..c(e)-1.  ``ahead[j]`` starts as
    minus the pieces of nodes j and on (0 at j = size) and then, a layer
    at a time from the deepest up, adds ``ahead[c(j)]``, so that
    ``ahead[e] - ahead[i]`` counts the pieces of their subtrees.  A
    node's fragment comes right after its parent's fragment and the
    pieces of its earlier siblings' subtrees, offsets summed along each
    path a layer at a time from the root down.
    """
    base, starts = _answers(tree.var), _layer_starts(tree)
    size = tree.var.size
    answer = np.zeros(size, dtype=np.int64)
    answer[1:].reshape(-1, base)[:] = range(base)
    before = np.zeros(size + 1, dtype=np.int64)
    before[query + 1] = 1
    before = before.cumsum()  # the query nodes before each node
    ahead = before + np.arange(-size - len(query), 1 - len(query))
    for start, stop in reversed(list(zip(starts, starts[1:-1]))):  # the deepest has no nodes below
        ahead[start:stop] += ahead[1 + base * before[start:stop]]
    del before  # freed before the arrays below are made, to keep the peak of memory
    at = ahead[:-1] - ahead[np.arange(size) - answer]  # from the first sibling
    at += 1
    at[0] = 0
    answer[0] = 3
    parent = query.repeat(base)  # parent[j - 1] is node j's, query node (j - 1) // b
    layer = np.zeros(size, dtype=np.int64)
    for depth, (start, stop) in enumerate(zip(starts[1:], starts[2:]), 1):
        at[start:stop] += at[parent[start - 1:stop - 1]]
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
    are made.  The keys are bounded by the largest variable and the layer
    count; when they span at most 2**16 values, as for every tree the
    package searches, the distinct ones are numbered by marking them in an
    array over that span, else by ``np.unique``.  Each piece's text is
    then one gather from the table.
    """
    var, leaf = tree.var, tree.leaf
    query = var.nonzero()[0]
    layer, answer, fragment_at, closer_at = _slots(tree, query)
    if not by_layer:
        layer[:] = 0
    layers = int(layer[-1]) + 1
    keys = np.empty(len(var) + len(query), dtype=np.int64)
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
    # The distinct keys, and per piece the place of its key among them.
    # Every key lies in -bound..bound-1; when that span is narrow, a table
    # over it marks the keys present and numbers them, with no sort.
    bound = (int(var.max()) + 4) * layers * 4
    if bound <= 1 << 15:
        keys += bound
        seen = np.zeros(2 * bound, dtype=bool)
        seen[keys] = True
        index = (seen.cumsum() - 1)[keys]
        distinct = seen.nonzero()[0] - bound
    else:
        distinct, index = np.unique(keys, return_inverse=True)
    del keys
    texts = [fragment(key % 4, key // 4 % layers, key // 4 // layers) if key >= 0
             else closer((-1 - key) % layers, (-1 - key) // layers)
             for key in distinct.tolist()]
    return np.array(texts, dtype=object)[index].tolist()


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

    The tree must be well formed: every query node has ``onU`` when the
    root has it and not otherwise, each variable lies in 1..2**31 - 1,
    and no variable repeats along a path, so no path is longer than the
    tree's number of distinct variables; a deeper tree is rejected at
    its first repeat.  Nodes are validated layer by layer, from a queue
    of nodes in the order they are laid out, so any nesting depth ends in
    a tree or a ``TreeFormatError``, never in a ``RecursionError``.
    """
    var, leaf = [], []
    todo = deque([(obj, "$", frozenset())])
    answers = 0  # the root's children: 2 in a classical tree, 3 in a u-model one
    while todo:
        obj, path, seen = todo.popleft()
        if not isinstance(obj, dict):
            raise TreeFormatError(f"{path}: expected an object, got {type(obj).__name__}")
        if "leaf" in obj:
            if set(obj) != {"leaf"}:
                raise TreeFormatError(f"{path}: leaf object has extra keys {sorted(set(obj) - {'leaf'})}")
            if obj["leaf"] not in ("0", "1", "u"):
                raise TreeFormatError(f"{path}: leaf value must be '0', '1' or 'u'")
            var.append(0)
            leaf.append("01u".index(obj["leaf"]))
            continue
        if "query" not in obj:
            raise TreeFormatError(f"{path}: object is neither a leaf nor a query node")
        answers = answers or 2 + ("onU" in obj)
        kids = TRIT_KEYS[:answers]
        extra = set(obj) - {"query", *kids}
        if extra:
            raise TreeFormatError(f"{path}: unexpected keys {sorted(extra)} in a {_MODELS[answers]} tree")
        v = obj["query"]
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v < _VAR_LIMIT:
            raise TreeFormatError(f"{path}: query must be a variable index in 1..2**31 - 1")
        if v in seen:
            raise TreeFormatError(f"{path}: variable {v} repeats along the path")
        for key in kids:
            if key not in obj:
                raise TreeFormatError(f"{path}: missing child {key!r}")
        var.append(v)
        leaf.append(0)
        seen |= {v}
        todo.extend((obj[key], f"{path}.{key}", seen) for key in kids)
    return DecisionTree._of(var, leaf)


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
