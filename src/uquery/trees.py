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
with one search over packed bitsets of the partial assignments:
{0, 1, u, *}^n for the u-model and {0, 1, *}^n classically, a bit per
cell.  Level L_0 marks the cells whose value is forced, built from the
hazard-free table: for the u-model one bit plane per value, merged axis
by axis (the measures read this L_0 too), and classically the table read
with u as *.  L_k adds every cell with a * on some axis whose children
all lie in L_{k-1}, so L_k holds exactly the cells of depth at most k,
and the search stops at the level the all-* root enters: D.  A level
costs a shift and a mask per axis inside a 64-bit word, and an AND of
views per axis across words.  Each cell's level is kept as bit planes,
and the tree is read off them one layer of cells at a time, taking at
each node the lowest variable that attains the optimum, so results are
canonical.

``tree_to_json_dict`` builds the JSON form bottom up, layer by layer,
each node from its children's dicts, so any depth converts without
recursion.  ``serialize_tree`` and ``write_indented_tree`` lay the nodes
out in pre-order with NumPy, from subtree sizes found a layer at a time,
and join a text fragment per node and a closer per query node from
small tables.  ``verify_tree`` checks a well-formed tree without
replaying it input by input: it finds each node's least input and
queried axes a layer at a time, writes the leaves into a prediction
array one group of leaves with the same queried axes at a time, and
compares the array with the table once to find the least
counterexample; the verify harness writes leaf indices the same way
(``_leaf_grid``) to find the leaf each input reaches.  A tree that is
not well formed (a variable outside 1..n or repeated on a path, or a
node with another child count than the root) is evaluated input by
input instead; no tree the package builds is one.  The check reads only
the tree and the table, never the level planes.
"""

from __future__ import annotations

import array
import json
import operator
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

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


def _node_values(values: tuple[int, ...]) -> np.ndarray:
    """A node array as int64, read without a Python step per node.  One
    holding a value of 2**31 or more (a variable no table has) becomes an
    array of Python ints, on which the same NumPy calls work, so that no
    sum or product of a value and a node count overflows."""
    try:
        return np.frombuffer(array.array("i", values), dtype=np.int32).astype(np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _links(tree: DecisionTree) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The first node of each layer (then the node count), and per node
    its parent (0 at the root) and the answer that leads to it (3 at the
    root).  As the children of each node are consecutive and come in the
    order of their parents, node j > 0 is a child of the node repeated at
    j - 1 when each node is repeated once per child."""
    first = _node_values(tree.first)
    size = len(first) - 1
    parent = np.zeros(size, dtype=np.intp)
    parent[1:] = np.repeat(np.arange(size), first[1:] - first[:-1])
    answer = np.arange(size) - first[parent]
    answer[0] = 3
    return _layer_starts(tree.first), parent, answer


def evaluate_tree(tree: DecisionTree, y: TernaryString | str) -> int:
    """Walk the tree reading answers off y; returns the leaf trit."""
    y = as_ternary(y)
    var, first = tree.var, tree.first
    i, seen = 0, set()
    while var[i]:
        if not 1 <= var[i] <= len(y):
            raise ValueError(f"tree queries variable {var[i]} outside 1..{len(y)}")
        if var[i] in seen:
            raise ValueError(f"tree queries variable {var[i]} twice on one path")
        seen.add(var[i])
        kid = first[i] + y[var[i] - 1]
        if kid >= first[i + 1]:
            raise ValueError("classical tree evaluated on an unresolved input")
        i = kid
    return tree.leaf[i]


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
    return tree.first[1] - tree.first[0] if tree.var[0] else 3


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
    starts, parent, answer = _links(tree)
    var = _node_values(tree.var)
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
    expected = np.frombuffer(table.values, dtype=np.uint8).reshape((3,) * n)
    expected = expected[(slice(0, answers),) * n]
    leaves = _leaf_grid(tree, n, np.frombuffer(bytes(tree.leaf), dtype=np.uint8))
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
# Exact depth: one search over packed bitsets for both answer alphabets.
#
# A bitset holds one bit per cell of {answers, *}^n.  The last min(n, 3)
# axes lie inside a 64-bit word, in base 4 with * at digit 3, so that
# 4**3 cells fill a word; the axes before them index the words, in base
# len(answers) + 1 with * as the largest digit (the classical model
# stores no u there).  A cell's key is its bit index, a mixed-radix code.
# A bitset of fewer than ``_SMALL_CELLS`` bits is a Python int, on which
# every axis is a shift and a mask, each far cheaper than a NumPy call; a
# larger one is a uint64 array, one entry per word, whose word axes are
# views.  Timed with each forced (2-CPU x86-64), ints take 40% less time
# at 64 cells (maj:3), 3-6% less at 46,656 (the classical search at
# n = 9), 10% more at 65,536 (the u-model at n = 8) and 2-4 times as long
# from 2**20 on.

_SMALL_CELLS = 1 << 16


class _Layout(NamedTuple):
    """The bitsets of one arity and alphabet."""

    size: int        # bits: one per cell
    as_int: bool     # a Python int, else a uint64 array
    shifts: tuple    # per axis done by shifts: (stride, star digit, mask of its * cells)
    views: tuple     # per word axis of an array: the (before, digit, after) shape


@cache
def _moves(n: int, answers: tuple[int, ...]):
    """Per axis p of a cell key: the (span, top) with ``key % span >= top``
    exactly when digit p is the *, and the steps from a cell to its
    children on the axis; the same steps stacked over the steps of the
    cell's coarsest completion (a ternary code), indexed by the 1-based
    variable (row 0 unused); and the root's key."""
    inner = min(n, 3)
    bases = [len(answers) + 1] * (n - inner) + [4] * inner
    strides = [1] * n
    for p in reversed(range(n - 1)):
        strides[p] = strides[p + 1] * bases[p + 1]
    span = np.multiply(bases, strides)
    top = span - strides
    steps = np.outer(strides, answers) - top[:, None]
    both = np.zeros((2, n + 1, len(answers)), dtype=np.intp)
    both[0, 1:] = steps
    both[1, 1:] = np.outer([3 ** (n - 1 - p) for p in range(n)], np.subtract(answers, UNKNOWN))
    for array in (span, top, steps, both):
        array.flags.writeable = False  # shared through the cache
    return span, top, steps, both, int(top.sum())


@cache
def _layout(n: int, answers: tuple[int, ...]) -> _Layout:
    """The bitsets of arity n over ``answers``; those of fewer than
    ``_SMALL_CELLS`` bits, and those of less than a word, are ints."""
    span, top, _, _, root = _moves(n, answers)
    size = root + 1
    as_int = size < _SMALL_CELLS or size < 64
    width = size if as_int else 64  # the bits a mask covers
    shifts = []
    for p in range(n):
        cycle, star = int(span[p]), int(top[p])
        if as_int or cycle <= 64:
            mask, stride = (1 << cycle) - (1 << star), cycle - star  # the * cells of one cycle
            while cycle < width:
                mask |= mask << cycle
                cycle *= 2
            shifts.append((stride, star // stride, mask & (1 << width) - 1))
    base, outer = len(answers) + 1, 0 if as_int else n - len(shifts)
    views = tuple((base ** p, base, base ** (outer - 1 - p)) for p in range(outer))
    return _Layout(size, as_int, tuple(shifts), views)


def _kids_by_shift(bits, stride: int, star: int, answers: tuple[int, ...]):
    """The AND of the children on an axis of this stride, at each cell's
    bit; it reads true children only where the axis holds the ``star``
    digit, the child answering a lying (star - a) * stride bits below."""
    kids = bits << (star - answers[0]) * stride
    for a in answers[1:]:
        kids &= bits << (star - a) * stride
    return kids


def _kids_in_view(view: np.ndarray, answers: tuple[int, ...]) -> np.ndarray:
    """The AND of the children on an axis, ``view`` being the bitset (or
    bit planes) as (before, digit, after)."""
    kids = view[:, answers[0]] & view[:, answers[1]]
    for a in answers[2:]:
        kids &= view[:, a]
    return kids


@cache
def _in_word_codes(inner: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of ``inner`` in-word digits, by bit: the ternary code of
    its coarsest completion (u at every *), and whether it has no *."""
    codes, starless = np.zeros(1, dtype=np.intp), np.ones(1, dtype=bool)
    for _ in range(inner):
        codes = (3 * codes[:, None] + [0, 1, UNKNOWN, UNKNOWN]).reshape(-1)
        starless = (starless[:, None] & [True, True, True, False]).reshape(-1)
    for array in (codes, starless):
        array.flags.writeable = False  # shared through the cache
    return codes, starless


def _packed(cells: np.ndarray, layout: _Layout):
    """The bitset of a bool per cell, in key order."""
    bits = np.packbits(cells.reshape(-1), bitorder="little")
    return int.from_bytes(bits, "little") if layout.as_int else bits.view(np.uint64)


def _bitset_bytes(bits, size: int) -> np.ndarray:
    """The bytes of a bitset of ``size`` cells as uint8, lowest cell first."""
    if isinstance(bits, int):
        return np.frombuffer(bits.to_bytes(-(-size // 8), "little"), dtype=np.uint8)
    return bits.view(np.uint8)


def _forced_bits(table: HazardFreeTable, answers: tuple[int, ...]):
    """L_0: the cells of {answers, *}^n whose value is forced.

    Classically the extension is resolved exactly where f is constant,
    so a cell is forced iff the table, read with u at every *, is 0 or
    1; the word axes, in base 3 with * at 2, index the table as they
    stand.  For the u-model, whose keys are base-4 codes, one bit plane
    per answer value v marks the cells forced to v: a cell without a *
    reads the table, and a * cell is forced to v iff its 0 and 1 children
    are, as a completion with u there is coarser than one through each
    child and so keeps their common resolved value, or stays u.  So a
    forced cell's value is the table's at its 0-fill (0 at every *), on
    any table.  The planes are merged on the in-word axes a byte per cell
    while they hold only the words of ternary cells, then packed, spread
    over the words of * cells and merged on the word axes.
    """
    n = table.arity
    layout = _layout(n, answers)
    inner, outer = min(n, 3), n - min(n, 3)
    codes, starless = _in_word_codes(inner)
    table_values = np.frombuffer(table.values, dtype=np.uint8).reshape(-1, 3 ** inner)
    cells = table_values.take(codes, axis=1)  # C order, which the in-place merges below need
    if len(answers) == 2:
        return _packed(cells != UNKNOWN, layout)
    planes = cells == np.array(answers, dtype=np.uint8)[:, None, None]
    planes &= starless
    for q in range(inner):
        view = planes.reshape(-1, 4, 4 ** (inner - 1 - q))
        view[:, 3] = _kids_in_view(view, (0, 1))
    if not outer:
        return _packed(np.bitwise_or.reduce(planes, axis=0), layout)
    planes = np.packbits(planes.reshape(-1), bitorder="little").view(np.uint64)
    words = np.zeros((len(answers),) + (4,) * outer, dtype=np.uint64)
    ternary = words[(slice(None),) + (slice(0, 3),) * outer]  # the words of ternary cells
    ternary[...] = planes.reshape(ternary.shape)
    for p in range(outer):
        view = words.reshape(len(answers) * 4 ** p, 4, -1)
        view[:, 3] = _kids_in_view(view, (0, 1))
    forced = np.bitwise_or.reduce(words.reshape(len(answers), -1), axis=0)
    return int.from_bytes(forced, "little") if layout.as_int else forced


def _depth_levels(level, n: int, answers: tuple[int, ...]):
    """Grow L_0, the bitset ``level``, level by level until the all-* root
    enters.

    L_k adds to L_{k-1} every cell with a * on some axis whose children
    there all lie in L_{k-1}.  By induction on k, L_k holds exactly the
    cells of depth at most k: a query with every answer leading to depth
    at most k - 1 is a tree of depth k, and the first query of such a
    tree is one.  So the root enters at k = D.  Each level reads only
    L_{k-1}, and axis by axis ORs the children's AND into a new bitset.

    Returns D and the level of each cell, the least k with the cell in
    L_k, as m bit planes: plane j holds bit j of every level, and a cell
    outside L_D reads 2**m - 1, above any depth.
    """
    layout = _layout(n, answers)
    star = len(answers)
    m = (n + 1).bit_length()
    last = layout.size - 1 if layout.as_int else 63  # the root's bit, in the int or the last word
    full = (2 << last) - 1
    planes = [full ^ level for _ in range(m)]
    k = 0
    while not (level if layout.as_int else int(level[-1])) >> last:
        if k == n:  # every cell without a * is forced, so D <= n
            raise AssertionError("the root entered no level up to n")
        k += 1
        grown = level
        for stride, digit, mask in layout.shifts:
            kids = _kids_by_shift(level, stride, digit, answers)
            kids &= mask
            kids |= grown
            grown = kids
        for shape in layout.views:
            grown.reshape(shape)[:, star] |= _kids_in_view(level.reshape(shape), answers)
        new = grown ^ level
        for j in range(m):
            if not k >> j & 1:
                planes[j] ^= new
        level = grown
    return k, planes


def _level_reader(planes: list, size: int) -> Callable[[np.ndarray], np.ndarray]:
    """A lookup of the level of the cells with the given keys.

    The planes are interleaved, one per byte of a word: word i of the
    lookup array holds byte i of every plane, so a lookup gathers one
    word, keeps the key's bit of each byte and multiplies the bits
    together into the level.  At n = 12 this takes 8 MB, where a byte per
    cell would take 16.
    """
    m, nbytes = len(planes), -(-size // 8)
    width = 4 if m <= 4 else 8
    words = np.zeros((nbytes, width), dtype=np.uint8)
    for j, plane in enumerate(planes):
        words[:, j] = _bitset_bytes(plane, size)
    words = words.view(f"<u{width}")[:, 0]
    ones = sum(1 << 8 * j for j in range(width))  # bit 0 of each byte
    high = 8 * width - 8
    # Bit 0 of byte j, times 2**(high - 7j), lands on bit high + j; every
    # other product lands on a distinct bit below high or at 8 * width and
    # above, where the word's arithmetic drops it.
    magic = sum(1 << high - 7 * j for j in range(width))

    def lookup(keys: np.ndarray) -> np.ndarray:
        found = words[keys >> 3]
        found >>= (keys & 7).astype(words.dtype)
        found &= ones
        found *= magic
        found >>= high
        return found

    return lookup


# Child lookups per pass over the axes of some cells.  When those of all
# cells fit one pass, ``_read_tree`` makes it before the first layer;
# timed with each way forced (2-CPU x86-64), that wins by 30% at n = 4
# (u-model, 3,072 lookups: 0.13 against 0.19 ms), by 1.5% at 15,360
# (u-model n = 5) and loses from 20,736 on (classical n = 6, 0.53
# against 0.25 ms on random:6:1).
_CHUNK = 1 << 14


def _query_axes(keys: np.ndarray, level: np.ndarray, level_of: Callable,
                n: int, answers: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """The variable each cell queries on an optimal tree: the lowest *
    axis whose children all sit below the cell's level, the first
    variable attaining the minimax value; 0 at level 0.  Every cell of
    level d >= 1 entered L_d through such an axis, so the last axes tried
    serve every cell left (a cell outside L_D, which no tree reaches,
    gets an arbitrary variable).  The axes are tried a few at a time, as
    many as keep the lookups of the cells still without one under
    ``_CHUNK``.  When one chunk tried every axis of every cell, also
    returns the levels of the children on the chosen axes, a row for each
    cell of level >= 1 in order; else None."""
    span, top, steps, _, _ = _moves(n, answers)
    var = np.zeros(keys.size, dtype=np.intp)
    todo = level.nonzero()[0]
    kids = None
    p = 0
    while todo.size:
        stop = min(n, p + max(1, _CHUNK // (todo.size * len(answers))))
        at = keys[todo, None]
        # Off the * the steps land on other cells (or wrap round from the
        # end), whose levels the star test drops.
        found = at % span[p:stop] >= top[p:stop]
        levels = level_of(at[:, :, None] + steps[p:stop])
        found &= levels.max(axis=2) < level[todo, None]
        if stop == n:
            axis = found.argmax(axis=1)
            var[todo] = axis + (p + 1)
            if not p:
                kids = levels[np.arange(todo.size), axis]
            break
        hit = found.any(axis=1)
        var[todo[hit]] = found[hit].argmax(axis=1) + (p + 1)
        todo = todo[~hit]
        p = stop
    return var, kids


def _read_tree(level_of: Callable, n: int, answers: tuple[int, ...],
               values: bytes) -> DecisionTree:
    """The optimal tree below the all-* cell, read off the cell levels
    that ``level_of`` looks up.

    The tree is read layer by layer from a frontier that starts at the
    root cell, each cell carried with its coarsest completion (u at
    every *).  A cell of level 0 is a leaf and reads ``values`` at that
    completion; any other cell queries the variable ``_query_axes``
    gives it, found for the frontier's cells at once, or, when all the
    cells take fewer lookups than one chunk, for all of them before the
    first layer, through the level of every cell.  The children make up
    the next frontier in (parent, answer) order, so every temporary has
    the size of a frontier or of a small table.  Their levels are those
    ``_query_axes`` looked up to choose the variables when it tried every
    axis in one chunk, and are looked up again only otherwise.
    """
    _, _, _, both, root = _moves(n, answers)
    size = _layout(n, answers).size
    if size * n * len(answers) <= _CHUNK:
        every = np.arange(size)
        level = level_of(every)
        var_of = _query_axes(every, level, level.__getitem__, n, answers)[0]
    else:
        var_of, level = None, level_of(np.array([root]))
    cells = np.array([[root], [3 ** n - 1]])  # cell keys, completions
    var_layers, coarse_layers = [], []
    while True:
        if var_of is None:
            var, kids = _query_axes(cells[0], level, level_of, n, answers)
        else:
            var = var_of[cells[0]]
        var_layers.append(var)
        coarse_layers.append(cells[1])
        inner = var.nonzero()[0]
        if not inner.size:
            break
        cells = (cells[:, inner, None] + both[:, var[inner]]).reshape(2, -1)
        if var_of is None:
            level = level_of(cells[0]) if kids is None else kids.reshape(-1)
    var = np.concatenate(var_layers)
    inner = var > 0
    leaf = np.frombuffer(values, dtype=np.uint8)[np.concatenate(coarse_layers)]
    leaf[inner] = 0
    first = np.empty(var.size + 1, dtype=np.intp)  # 1 + children before each node
    first[0] = 1
    np.cumsum(inner * len(answers), out=first[1:])
    first[1:] += 1
    return DecisionTree._of(tuple(var.tolist()), tuple(leaf.tolist()), tuple(first.tolist()))


def _optimal_tree(table: HazardFreeTable, answers: tuple[int, ...],
                  forced: np.ndarray | None = None) -> tuple[int, DecisionTree]:
    """The exact depth over ``answers`` and the canonical optimal tree;
    L_0 is packed from ``forced``, a bool per cell in key order, when
    given, and built from the table otherwise."""
    n = table.arity
    level = _forced_bits(table, answers) if forced is None else _packed(forced, _layout(n, answers))
    depth, planes = _depth_levels(level, n, answers)
    level_of = _level_reader(planes, _layout(n, answers).size)
    del planes  # the lookup holds what it reads: at n = 12 the planes take 8 MB
    return depth, _read_tree(level_of, n, answers, table.values)


def query_complexity_u(
    table: HazardFreeTable, cap: int | None = None, *,
    forced: np.ndarray | None = None,
) -> tuple[int, DecisionTree]:
    """Exact optimal depth for computing the extension, with a witness tree.

    ``forced``, when given, must say for each cell of {0, 1, u, *}^n, by
    base-4 code, whether the table forces its value, as the measure
    arrays hold it; the search then packs it instead of building its L_0.
    """
    check_cap(table.arity, cap, DEFAULT_SEARCH_CAP, "u-model depth search")
    return _optimal_tree(table, (0, 1, UNKNOWN), forced)


def query_complexity(
    f: BooleanFunction,
    table: HazardFreeTable | None = None,
    cap: int | None = None,
) -> tuple[int, DecisionTree]:
    """Exact optimal classical decision-tree depth, with a witness tree."""
    check_cap(f.arity, cap, DEFAULT_SEARCH_CAP, "classical depth search")
    if table is None:
        table = hazard_free_table(f)
    elif table.function != f:
        raise ValueError("the table is the extension of another function")
    return _optimal_tree(table, (0, 1))


# ---------------------------------------------------------------------------
# Serialization: {"leaf": "0"|"1"|"u"} | {"query": i, "on0": T, "on1": T, "onU": T}
# with "onU" omitted in classical trees.


def tree_to_json_dict(tree: DecisionTree) -> dict:
    """The JSON form of a tree, built bottom-up, layer by layer: only the
    dicts of the layer below are held while a layer is built."""
    var, leaf, first = tree.var, tree.leaf, tree.first
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

    Subtree sizes are summed a layer at a time from the deepest up.  In
    pre-order a node then comes right after its parent and its earlier
    siblings' subtrees, found a layer at a time from the root down.  The
    closers of the query nodes whose subtree ends at a node follow its
    fragment, deepest first.
    """
    starts, parent, answer = _links(tree)
    layer = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    size = np.ones(len(parent), dtype=np.int64)
    for start, stop in reversed(list(zip(starts[1:], starts[2:]))):
        np.add.at(size, parent[start:stop], size[start:stop])
    pos = np.cumsum(size)
    pos -= size  # the subtrees of the nodes before each, in node order
    pos -= pos[np.maximum(np.arange(len(pos)) - answer, 0)]  # of its earlier siblings only
    pos += 1
    pos[0] = 0
    for start, stop in zip(starts[1:], starts[2:]):
        pos[start:stop] += pos[parent[start:stop]]
    end = pos[query] + size[query] - 1  # the position a query node's subtree ends at
    # The piece of each position: the position and the closers before it.
    at = np.bincount(end, minlength=len(pos))
    at = np.cumsum(at) - at
    at += np.arange(len(pos))
    layer_at = np.empty_like(layer)  # the layer of the node at each position
    layer_at[pos] = layer
    return layer, answer, at[pos], at[end] + layer_at[end] - layer[query]


def _preorder_text(tree: DecisionTree, fragment: Callable, closer: Callable) -> list:
    """The text of a tree as pieces, in the order they are written.

    Each node, in pre-order, writes ``fragment(answer, layer, head)``: its
    key among its siblings (answer 0, 1 or 2; 3 at the root, which has
    none), then its head, a leaf trit or 3 + the variable it queries.
    After it come, for each query node whose subtree ends there, deepest
    first, ``closer(layer, var)``.  A table holds the text of each
    distinct fragment and closer, so no text is made per node.
    """
    var = _node_values(tree.var)
    query = var.nonzero()[0]
    layer, answer, fragment_at, closer_at = _slots(tree, query)
    layers = int(layer[-1]) + 1
    pieces = np.empty(len(var) + len(query), dtype=object)
    pieces[closer_at] = _texts(var[query] * layers + layer[query],
                               lambda key: closer(key % layers, key // layers))
    head = np.where(var > 0, var + 3, np.frombuffer(bytes(tree.leaf), dtype=np.uint8))
    head *= layers
    head += layer
    head *= 4
    head += answer
    del var, layer, answer  # freed for the lookup of the fragments, the peak of memory
    pieces[fragment_at] = _texts(
        head, lambda key: fragment(key % 4, key // 4 % layers, key // 4 // layers))
    return pieces.tolist()


def _texts(keys: np.ndarray, text: Callable) -> np.ndarray:
    """``text(key)`` for each key, made once per distinct key."""
    distinct, index = np.unique(keys, return_inverse=True)
    return np.array([text(key) for key in distinct.tolist()], dtype=object)[index]


_LEAF_TEXT = ('{"leaf":"0"}', '{"leaf":"1"}', '{"leaf":"u"}')
_KEY_TEXT = ('"on0":', ',"on1":', ',"onU":', "")


def serialize_tree(tree: DecisionTree) -> str:
    """Compact JSON text of a tree, the text ``json.dumps`` gives its JSON
    form, joined from its pre-order pieces."""
    def fragment(answer, layer, head):
        return _KEY_TEXT[answer] + (_LEAF_TEXT[head] if head < 3 else '{"query":%d,' % (head - 3))
    return "".join(_preorder_text(tree, fragment, lambda layer, var: "}"))


def write_indented_tree(tree: DecisionTree, handle, nesting: int = 0) -> None:
    """Write the text ``json.dumps(..., indent=2, sort_keys=True)`` gives the
    JSON form of a tree that sits ``nesting`` objects deep.  The pieces are
    those of ``serialize_tree``, indented by the node's layer, with the
    ``"query"`` line in the closer as ``sort_keys`` puts it last; they are
    written one by one, so the whole text is never held.  The ``json``
    module's indenting encoder is pure Python, and on a tree of 100k nodes
    takes ten times as long."""
    def indent(layer):
        return "\n" + "  " * (nesting + layer)

    def fragment(answer, layer, head):
        key = "" if answer == 3 else \
            "," * (answer > 0) + indent(layer) + '"%s": ' % TRIT_KEYS[answer]
        if head >= 3:
            return key + "{"
        return key + "{" + indent(layer + 1) + '"leaf": "%s"' % "01u"[head] + indent(layer) + "}"

    def closer(layer, var):
        return "," + indent(layer + 1) + '"query": %d' % var + indent(layer) + "}"
    handle.writelines(_preorder_text(tree, fragment, closer))


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
