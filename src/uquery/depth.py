"""Exact decision-tree depth, D_u and D, with canonical witness trees.

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
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    DEFAULT_SEARCH_CAP,
    UNKNOWN,
    BooleanFunction,
    HazardFreeTable,
    _table_of,
    check_cap,
)
from .trees import DecisionTree

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
    # C order, which the in-place merges below need
    cells = table.grid.reshape(-1, 3 ** inner).take(codes, axis=1)
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
               values: np.ndarray) -> DecisionTree:
    """The optimal tree below the all-* cell, read off the cell levels
    that ``level_of`` looks up.

    The tree is read layer by layer from a frontier that starts at the
    root cell, each cell carried with its coarsest completion (u at
    every *).  A cell of level 0 is a leaf and reads ``values``, the
    table's values by code, at that completion; any other cell queries
    the variable ``_query_axes`` gives it, found for the frontier's cells
    at once, or, when all the cells take fewer lookups than one chunk,
    for all of them before the first layer, through the level of every
    cell.  The children make up
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
    leaf = values[np.concatenate(coarse_layers)]
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
    return depth, _read_tree(level_of, n, answers, table.grid.reshape(-1))


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
    return _optimal_tree(_table_of(f, table), (0, 1))
