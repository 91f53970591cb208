"""Exact decision-tree depth, D_u and D, with canonical witness trees.

``query_complexity_u``/``query_complexity`` solve the same minimax game,
the solver picking the variable and the adversary the worst answer,
with one search over packed bitsets of the partial assignments:
{0, 1, u, *}^n for the u-model and {0, 1, *}^n classically, a bit per
cell.  The search takes a batch of tables of one arity, a single table
being a batch of one: below ``_SMALL_CELLS`` cells their bitsets lie
side by side in one Python int, each in whole bytes, so that every step
costs one int operation for the whole batch, and from there on the
tables go one at a time.  A bitset enters and leaves the search in one
format, packed little-endian bytes, lowest cell first, a row per table;
Python ints live only inside the level loop and the u-model's L_0 merge.
Level L_0 marks the cells whose value is forced, built from the
hazard-free table: for the u-model one bit plane per value, merged axis
by axis (the measures keep this L_0's bytes), and classically the table
read with u as *.  L_k adds every cell with a * on some axis whose
children all lie in L_{k-1}, so L_k holds exactly the cells of depth at
most k, and a table's search stops at the level its all-* root enters:
D.  A level costs a shift and a mask per axis inside a 64-bit word, and
an AND of views per axis across words.  A cell with j *s has depth at
most j, as querying its j free variables decides it, so only a cell with
at least k *s can enter L_k: a word whose word-axis digits hold s *s
gains no bit above level s + min(n, 3).  A level runs on the whole array
while at least ``_GATHER_SHARE`` of the words can still gain bits, and
on those words alone, gathered with their children, from then on.  A
whole-array level is grown in place, one cache-sized block of words at
a time, the blocks with more *s first, so that no block is overwritten
before the blocks that read it are done.  Timed in one process on
random:12:1 (2-CPU x86-64, best of 15), the u-model's L_0 takes 4.3 ms
and its levels 23 ms, where L_0 merged a byte per cell and levels run
over whole arrays with fresh temporaries took 9.3 and 35 ms.  Each
cell's level is kept once, as bit planes that every level updates in
place, and the trees are read straight off them one layer of cells at a
time, the layer of every table of the batch at once, taking at each
node the lowest variable that attains the optimum, so results are
canonical; each layer tries the axes from the lowest * of any of its
cells.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from math import comb
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_SEARCH_CAP,
    UNKNOWN,
    HazardFreeTable,
    check_cap,
)
from .trees import DecisionTree

# A bitset holds one bit per cell of {answers, *}^n.  The last min(n, 3)
# axes lie inside a 64-bit word, in base 4 with * at digit 3, so that
# 4**3 cells fill a word; the axes before them index the words, in base
# len(answers) + 1 with * as the largest digit (the classical model
# stores no u there).  A cell's key is its bit index, a mixed-radix code.
# A bitset comes in and goes out as packed bytes, lowest cell first, in
# ceil(size / 8) bytes a table.  The level loop and the u-model's L_0
# merge hold the bitsets of fewer than ``_SMALL_CELLS`` bits as one
# Python int, a batch's tables side by side, table t from bit 8 * t *
# ceil(size / 8) on, so that every axis is a shift and a mask for the
# whole batch, each far cheaper than a NumPy call; a larger bitset is a
# uint64 array, one entry per word, whose word axes are views, and its
# tables go one at a time.  Timed over the whole search of one table
# with each route forced (2-CPU x86-64), ints take 37% less time at 64
# cells (maj:3, 0.069 against 0.110 ms), 9% less at 46,656 (the
# classical search on random:9:1), 6% more at 65,536 (the u-model on
# random:8:1) and 2.6 times as long at 2**20 (random:10:1, 11.2 against
# 4.3 ms).

_SMALL_CELLS = 1 << 16


class _Layout(NamedTuple):
    """The bitsets of one arity and alphabet: those of a batch's tables
    lie side by side in one int on the int route (``_side_by_side``)."""

    size: int        # bits: one per cell
    nbytes: int      # the bytes a bitset takes, ceil(size / 8), side by side in a batch
    as_int: bool     # the loops hold a batch in one Python int, else a table in a uint64 array
    shifts: tuple    # per axis done by shifts: (stride, star digit, mask of its * cells)
    block: int       # words per block of a whole-array level
    views: tuple     # per word axis inside a block: the (before, digit, after) shape
    blocks: tuple    # per block, by *s descending: its first word, and per * axis
                     # numbering blocks the first words of its children by answer
    gather: int      # the first level run on the live words alone (n + 1: none)


# A level runs on the whole array while at least this share of the words
# can still gain bits, and on the gathered live words from the first level
# where fewer can.  Gathering the live words and their children costs
# about as much as a whole-array level over them, so a lower share
# switches later and builds less: timed in one process (2-CPU x86-64,
# best of 7), the levels of random:12:77 in the u-model take 22 ms at
# 0.1 (and at 0.05, which switches at the same level), 22-23 ms at 0.02,
# 28 ms at 0.3 and 30 ms on the whole array alone.  Whole-array levels
# that skip each block whose *s cannot reach the level gave the same
# planes in 27 ms: the live words of late levels lie in every block.
_GATHER_SHARE = 0.1

# A whole-array level runs in blocks of at most this many words, so that
# a block, its scratch and its slice of the planes stay in a core's L2
# cache (2 MiB here).  Timed as above, the u-model levels of random:12:1
# take 22 ms in blocks of 4**7 words (this bound), 22-24 ms in blocks of
# 4**8, 29 ms in blocks of 4**6 (more NumPy calls) and 34 ms in one
# block of 4**9.
_BLOCK_WORDS = 1 << 15


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
    steps = np.outer(answers, strides) - top
    both = np.zeros((2, n + 1, len(answers)), dtype=np.intp)
    both[0, 1:] = steps.T
    both[1, 1:] = np.outer([3 ** (n - 1 - p) for p in range(n)], np.subtract(answers, UNKNOWN))
    for array in (span, top, steps, both):
        array.flags.writeable = False  # shared through the cache
    return span, top, steps, both, int(top.sum())


@cache
def _layout(n: int, answers: tuple[int, ...]) -> _Layout:
    """The bitsets of arity n over ``answers``; the loops hold those of
    fewer than ``_SMALL_CELLS`` bits, and those of less than a word, as
    ints."""
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
    fixed = 0  # the leading word axes, whose digits number the blocks
    while base ** (outer - fixed) > _BLOCK_WORDS:
        fixed += 1
    block = base ** (outer - fixed)
    views = tuple((base ** p, base, base ** (outer - fixed - 1 - p)) for p in range(outer - fixed))
    blocks = []
    for digits in sorted(product(range(base), repeat=fixed), key=lambda d: -d.count(base - 1)):
        first = sum(d * base ** (fixed - 1 - p) for p, d in enumerate(digits)) * block
        blocks.append((first, tuple(
            tuple(first + (a + 1 - base) * base ** (fixed - 1 - p) * block for a in answers)
            for p, d in enumerate(digits) if d == base - 1)))
    gather = n + 1
    for k in range(n, len(shifts), -1):  # level k changes only words with k - len(shifts) *s or more
        if sum(comb(outer, s) * (base - 1) ** (outer - s)
               for s in range(k - len(shifts), outer + 1)) >= _GATHER_SHARE * base ** outer:
            break
        gather = k
    return _Layout(size, -(-size // 8), as_int, tuple(shifts), block, views, tuple(blocks), gather)


class _Live(NamedTuple):
    """The words that the gathered levels may change, and their children."""

    words: np.ndarray   # the words live at ``_Layout.gather``, by *s descending
    counts: tuple       # per level k from ``gather`` on: the words live at k, a prefix of ``words``
    kids: np.ndarray    # per (live word, word axis with a *), by word: the child word per answer
    starts: np.ndarray  # per live word: its first row of ``kids``, then the row count


def _live_words(n: int, answers: tuple[int, ...]) -> _Live:
    """The words live at the first gathered level and their children,
    from the count and the axes of the *s in every word's word-axis
    digits.  Built for each search: in the u-model they take 1.7 MB at
    n = 12 and 23 MB at n = 14, and kept in a cache they raised the peak
    memory of ``tree random:12:1`` from 57 to 62 MB."""
    layout = _layout(n, answers)
    inner, base, star = len(layout.shifts), len(answers) + 1, len(answers)
    outer, need = n - inner, layout.gather - inner  # need: the word-axis *s live at ``gather``
    hit = np.arange(base) == star
    code = np.zeros(1, dtype=np.uint32)  # per word: its *s times 2**outer, plus bit p for a * on axis p
    for p in range(outer):
        code = (code[:, None] + hit * np.uint32((1 << outer) + (1 << p))).reshape(-1)
    stars = code >> outer
    words = np.concatenate([(stars == s).nonzero()[0] for s in range(outer, need - 1, -1)])
    stars, code = stars[words], code[words]
    counts = tuple(int((stars >= k - inner).sum()) for k in range(layout.gather, n + 1))
    row, p = np.divmod(np.flatnonzero(code[:, None] >> np.arange(outer, dtype=np.uint32) & 1), outer)
    kids = words[row, None] + (base ** np.arange(outer - 1, -1, -1))[p, None] * np.subtract(answers, star)
    starts = np.zeros(words.size + 1, dtype=np.intp)
    np.cumsum(stars, out=starts[1:])
    return _Live(words, counts, kids, starts)


def _kids_by_shift(bits, stride: int, star: int, answers: tuple[int, ...]):
    """The AND of the children on an axis of this stride, at each cell's
    bit; it reads true children only where the axis holds the ``star``
    digit, the child answering a lying (star - a) * stride bits below."""
    kids = bits << (star - answers[0]) * stride
    for a in answers[1:]:
        kids &= bits << (star - a) * stride
    return kids


def _kids_in_view(view: np.ndarray, answers: tuple[int, ...]) -> np.ndarray:
    """The AND of the children on an axis, ``view`` holding the axis's
    digit on its second axis."""
    kids = view[:, answers[0]] & view[:, answers[1]]
    for a in answers[2:]:
        kids &= view[:, a]
    return kids


@cache
def _cell_codes(digits: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of ``digits`` base-4 digits, by bit: the ternary code of
    its coarsest completion (u at every *), and whether it has no *."""
    codes, starless = np.zeros(1, dtype=np.intp), np.ones(1, dtype=bool)
    for p in range(digits):  # each pass puts a more significant digit in front
        codes = (np.array([0, 1, UNKNOWN, UNKNOWN])[:, None] * 3 ** p + codes).reshape(-1)
        starless = (np.array([True, True, True, False])[:, None] & starless).reshape(-1)
    for array in (codes, starless):
        array.flags.writeable = False  # shared through the cache
    return codes, starless


def _tiled(mask: int, nbytes: int, count: int) -> int:
    """``count`` copies of the ``nbytes``-byte ``mask`` side by side in
    one int, the first lowest, repeated as bytes: summing the shifted
    copies takes time quadratic in ``count``, 7.6 against 0.03 us a copy
    of 256 bits at 2,000 copies (2-CPU x86-64).  One copy is the mask
    itself, which spares a lone table of 2 KB two 2-3 us conversions."""
    if count == 1:
        return mask
    return int.from_bytes(mask.to_bytes(nbytes, "little") * count, "little")


@lru_cache(maxsize=16)
def _side_by_side(n: int, answers: tuple[int, ...], count: int) -> tuple:
    """The shifts of the int bitsets of arity n, each mask repeated over
    ``count`` bitsets laid side by side in one int, the first lowest, each
    in whole bytes.  A batch's level loop runs on one bitset per table
    with these, and the u-model's L_0 merges its three planes of every
    table at once: merging one plane at a time made L_0 1.6-1.9 times as
    slow at n <= 5 (9-15 against 14-25 us, 2-CPU x86-64).  A bit a shift
    carries out of a bitset lands on a cell of the next, which the mask
    keeps only where the cell's children lie in its own bitset."""
    layout = _layout(n, answers)
    return tuple((stride, digit, _tiled(mask, layout.nbytes, count))
                 for stride, digit, mask in layout.shifts)


def _values(tables: Sequence[HazardFreeTable]) -> np.ndarray:
    """The values of a batch's tables by code, a (tables, 3**n) uint8 array."""
    if len(tables) == 1:
        return tables[0].grid.reshape(1, -1)
    return np.frombuffer(b"".join(table.values for table in tables), dtype=np.uint8).reshape(len(tables), -1)


def _rows(arrays: list, axis: int = 0) -> np.ndarray:
    """Each table's array stacked on a new table axis: a view of a lone
    one, as the array route's bitsets are large."""
    if len(arrays) == 1:
        return arrays[0][(slice(None),) * axis + (None,)]
    return np.stack(arrays, axis)


def _packed(cells: np.ndarray) -> np.ndarray:
    """The bytes of a bool per cell, in key order, lowest cell first, each
    row of the last axis packed on its own."""
    return np.packbits(cells, axis=-1, bitorder="little")


def _forced_bits(tables: Sequence[HazardFreeTable], answers: tuple[int, ...]) -> np.ndarray:
    """L_0 of each table of a batch of one arity: the cells of {answers,
    *}^n whose value is forced, as a writable (tables, ceil(size / 8))
    uint8 array, each row lowest cell first.

    Classically the extension is resolved exactly where f is constant,
    so a cell is forced iff the table, read with u at every *, is 0 or
    1; the word axes, in base 3 with * at 2, index the table as they
    stand.  For the u-model, whose keys are base-4 codes, one bit plane
    per answer value v marks the cells forced to v: a cell without a *
    reads the table, and a * cell is forced to v iff its 0 and 1 children
    are, as a completion with u there is coarser than one through each
    child and so keeps their common resolved value, or stays u.  So a
    forced cell's value is the table's at its 0-fill (0 at every *), on
    any table.

    On an int the planes of every table lie side by side, by plane and
    then by table, and every axis is merged by shifts, as the levels do;
    a * cell's children lie in its own plane, so the bits a shift
    carries across planes land on cells the mask drops.  On an array,
    one table at a time, the planes of the cells without a * are packed
    into the words of ternary word digits and merged on the in-word axes
    by shifts; then each plane in turn is spread over the words of *
    cells, merged on the word axes in place and ORed into L_0.  At n = 12
    this takes 4.3 ms, where merging the planes a byte per cell before
    packing, and all three at once on the word axes, took 9.3 (random:12:1,
    2-CPU x86-64, best of 15 in one process).  Either way L_0 leaves as
    its bytes: the int's, or a view of the array's words.
    """
    n, count = tables[0].arity, len(tables)
    layout = _layout(n, answers)
    grids = _values(tables)
    if len(answers) == 2:
        inner = min(n, 3)
        cells = grids.reshape(count, -1, 3 ** inner).take(_cell_codes(inner)[0], axis=2)
        return _packed((cells != UNKNOWN).reshape(count, -1))
    if not layout.as_int:
        return _rows([_forced_words(grid, n, answers) for grid in grids])
    values = np.array(answers, dtype=np.uint8)
    codes, starless = _cell_codes(n)
    planes = grids.take(codes, axis=1) == values[:, None, None]
    planes &= starless
    planes = int.from_bytes(_packed(planes), "little")
    for stride, digit, mask in _side_by_side(n, answers, len(answers) * count):
        planes |= _kids_by_shift(planes, stride, digit, (0, 1)) & mask
    plane = count * layout.nbytes  # the bytes of one plane of every table
    forced, full = 0, (1 << 8 * plane) - 1
    for v in range(len(answers)):
        forced |= planes >> 8 * v * plane & full
    return np.frombuffer(bytearray(forced.to_bytes(plane, "little")), dtype=np.uint8).reshape(count, -1)


def _forced_words(grid: np.ndarray, n: int, answers: tuple[int, ...]) -> np.ndarray:
    """The u-model's L_0 of one table on the array route, as the bytes of
    its words; ``grid`` holds the table's values by code."""
    values = np.array(answers, dtype=np.uint8)
    outer = n - 3
    codes, starless = _cell_codes(3)
    planes = grid.reshape(-1, 27).take(codes, axis=1) == values[:, None, None]
    planes &= starless
    packed = np.packbits(planes, axis=-1, bitorder="little").view(np.uint64)[..., 0]
    del planes  # a byte per cell: freed before the word axes are spread
    for stride, digit, mask in _layout(3, answers).shifts:  # those of the in-word axes
        kids = _kids_by_shift(packed, stride, digit, (0, 1))
        kids &= mask
        packed |= kids
    forced = np.zeros(4 ** outer, dtype=np.uint64)
    words = np.empty((1,) + (4,) * outer, dtype=np.uint64)
    ternary = words[(slice(None),) + (slice(0, 3),) * outer]  # the words of ternary cells
    for plane in packed:
        # Every word of * cells is written by the merge on its last * axis,
        # from children whose *s all lie on earlier axes, so what a word
        # held before, from the plane before or from np.empty, is never read.
        ternary[...] = plane.reshape(ternary.shape)
        for p in range(outer):
            view = words.reshape(4 ** p, 4, -1)
            np.bitwise_and(view[:, 0], view[:, 1], out=view[:, 3])
        forced |= words.reshape(-1)
    return forced.view(np.uint8)


def _block_grower(level: np.ndarray, planes: np.ndarray, layout: _Layout,
                  answers: tuple[int, ...]) -> Callable[[list], None]:
    """A step that grows the array ``level`` from L_{k-1} to L_k in
    place, a block of words at a time, and flips the bit of each cell
    entering L_k in the given planes, those whose bit of k is 0.

    A block is the words of one prefix of the leading word-axis digits
    (``_Layout.blocks``).  Its new words read its own old words, on the
    in-word axes and on the word axes inside the block, and on each * of
    its prefix the old words of its child blocks, whose prefixes hold one
    * fewer.  The blocks go by *s descending, so the blocks that read a
    block are all done before it is overwritten, and the level needs no
    second array: three block-sized buffers, and views of them, of the
    level and of the planes, all built here once for the search.  A
    merge ANDs the children on a word axis into a buffer and ORs that
    into the cells with a * there.
    """
    scratch = np.empty((3, layout.block), dtype=np.uint64)
    grown, kids, _ = scratch
    star, size = len(answers), layout.block
    inside = [(kids[:before * after].reshape(before, after),
               grown.reshape(before, digit, after)[:, star]) for before, digit, after in layout.views]
    steps = []  # per block, by *s descending: its words, merges and slice of the planes
    for first, axes in layout.blocks:
        old = level[first:first + size]
        merges = [([view[:, a] for a in answers], out, into)
                  for view, (out, into) in zip((old.reshape(shape) for shape in layout.views), inside)]
        merges += [([level[lo:lo + size] for lo in starts], kids, grown) for starts in axes]
        steps.append((old, merges, planes[:, first:first + size]))

    def grow(unset: list) -> None:
        grown, kids, spare = scratch
        for old, merges, rows in steps:
            prior = old  # the first axis ORs its children's AND into the old words
            for stride, _, mask in layout.shifts:
                # An in-word axis holds 0, 1 and u at digits 0-2 and * at 3,
                # so the AND of a cell and the cell one digit below it,
                # moved up two digits, is that of the 0 and 1 children at
                # the *, and the cell one digit below the * is the u child.
                np.left_shift(old, stride, out=spare)
                np.bitwise_and(old, spare, out=kids)
                kids <<= 2 * stride
                if UNKNOWN in answers:
                    kids &= spare
                kids &= mask
                prior = np.bitwise_or(prior, kids, out=grown)
            for children, out, into in merges:
                np.bitwise_and(children[0], children[1], out=out)
                for child in children[2:]:
                    out &= child
                into |= out
            np.bitwise_xor(grown, old, out=kids)
            for j in unset:
                rows[j] ^= kids
            old[...] = grown

    return grow


def _depth_levels(level: np.ndarray, n: int, answers: tuple[int, ...]) -> tuple[list, np.ndarray]:
    """Grow L_0 of each table of a batch, the (tables, ceil(size / 8))
    uint8 rows ``level``, level by level until every table's all-* root
    has entered.  On the int route the loop reads the rows once as one
    int; on the array route it grows each row in place, as a uint64 view,
    to its L_D (``_array_levels``).

    L_k adds to L_{k-1} every cell with a * on some axis whose children
    there all lie in L_{k-1}.  By induction on k, L_k holds exactly the
    cells of depth at most k: a query with every answer leading to depth
    at most k - 1 is a tree of depth k, and the first query of such a
    tree is one.  So the root enters at k = D.  Each level reads only
    L_{k-1}, and axis by axis ORs the children's AND into L_k.  A table
    whose root has entered gains no cell after that level, so that its
    levels are those of a batch of one.

    Returns each table's D, the level its root entered at (read off the
    planes in a batch of more than one), and the level of each cell, the
    least k with the cell in L_k, as m bit planes in one (m, tables,
    ceil(size / 8)) uint8 array, the bytes of each plane and table lowest
    cell first: plane j holds bit j of every level, and a cell outside
    its table's L_D reads 2**m - 1, above any depth.  The int loop keeps
    a list of planes, one int each, and joins their bytes at the end.
    """
    layout = _layout(n, answers)
    m = (n + 1).bit_length()
    count, nbytes = level.shape
    if not layout.as_int:  # one table at a time
        depths, planes = zip(*(_array_levels(row, n, answers) for row in level))
        return list(depths), _rows(planes, axis=1)
    cells = _tiled((1 << layout.size) - 1, nbytes, count)
    roots = _tiled(1 << layout.size - 1, nbytes, count)
    shifts = _side_by_side(n, answers, count)
    level = int.from_bytes(level, "little")
    planes = [cells ^ level] * m

    def tables_of(entered: int) -> int:  # the cells of the tables of these roots
        return (entered << 1) - (entered >> layout.size - 1)

    growing = cells ^ tables_of(level & roots)  # the tables whose root has not entered
    k = 0
    while growing:
        if k == n:  # every cell without a * is forced, so D <= n
            raise AssertionError("a root entered no level up to n")
        k += 1
        grown = level
        for stride, digit, mask in shifts:
            grown |= _kids_by_shift(level, stride, digit, answers) & mask
        new = grown ^ level  # the cells entering at k
        if growing != cells:  # tables whose root has entered keep their levels
            new &= growing
            grown = level | new
        for j in range(m):
            if not k >> j & 1:
                planes[j] ^= new
        level = grown
        entered = new & roots
        if entered:
            growing ^= tables_of(entered)
    # m planes of at most 8 KiB a table each
    data = b"".join(plane.to_bytes(count * nbytes, "little") for plane in planes)
    planes = np.frombuffer(data, dtype=np.uint8).reshape(m, count, nbytes)
    if count == 1:  # the last level, with no lookup
        return [k], planes
    roots = np.arange(count) * (8 * nbytes) + (layout.size - 1)
    return _level_reader(planes.reshape(m, -1))(roots).tolist(), planes


def _array_levels(level: np.ndarray, n: int, answers: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """D and the level planes of one table on the array route, the planes
    as ``_depth_levels`` returns them for a batch of one, but (m, bytes):
    the loop grows the uint64 view of ``level`` in place to L_D.

    A level runs a block of words at a time (``_block_grower``).  A cell
    entering L_k has at least k *s: its children on the axis it enters
    through lie in L_{k-1} and one of them not in L_{k-2}, so by
    induction that child has k - 1 *s and the cell one more.  Hence a
    word whose word-axis digits hold s *s gains no bit at a level above
    s + min(n, 3), and no bit is lost by leaving it.  From level
    ``_Layout.gather`` on, a level gathers the words that can still gain
    bits (``_live_words``) and their children, grows those words, writes
    them back and flips the bits of their entering cells in the planes
    in place; every other word is left as it is.  The planes are built
    once, as (m, words), updated in place from L_1 on and returned as a
    view of their bytes, the search's only copy of the levels.
    """
    layout = _layout(n, answers)
    m = (n + 1).bit_length()
    level = level.view(np.uint64)
    planes = np.empty((m, level.size), dtype=np.uint64)
    np.invert(level, out=planes[0])
    planes[1:] = planes[0]
    grow = _block_grower(level, planes, layout, answers)
    k = 0
    while not int(level[-1]) >> 63:  # the root's bit in the last word
        if k == n:  # every cell without a * is forced, so D <= n
            raise AssertionError("the root entered no level up to n")
        k += 1
        unset = [j for j in range(m) if not k >> j & 1]  # the planes a cell entering at k flips
        if k < layout.gather:
            grow(unset)
            continue
        if k == layout.gather:
            del grow  # and its block buffers
            live = _live_words(n, answers)
        count = live.counts[k - layout.gather]
        words = live.words[:count]
        old = level[words]
        grown = np.bitwise_or.reduceat(
            _kids_in_view(level[live.kids[:live.starts[count]]], answers), live.starts[:count])
        grown |= old
        for stride, digit, mask in layout.shifts:
            kids = _kids_by_shift(old, stride, digit, answers)
            kids &= mask
            grown |= kids
        old ^= grown  # the cells entering at k
        for j in unset:
            planes[j, words] ^= old
        level[words] = grown
        del old, grown, kids  # freed before the next level allocates
    return k, planes.view(np.uint8)


def _level_reader(rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A lookup of the level of the cells with the given keys, as uint8,
    read where they lie off the (m, bytes) planes ``_depth_levels``
    returns.  A lookup takes the key's byte from every plane in one call,
    keeps the key's bit of each, weights the bit of plane j by 2**j and
    ORs the planes together.
    """
    weights = 1 << np.arange(len(rows), dtype=np.uint8)  # the level bit of each plane

    def lookup(keys: np.ndarray) -> np.ndarray:
        found = rows.take(keys >> 3, axis=1)
        found >>= (keys & 7).astype(np.uint8)
        found &= 1
        found *= weights.reshape(weights.shape + (1,) * keys.ndim)
        return np.bitwise_or.reduce(found, axis=0)

    return lookup


# Child lookups per pass over the axes of some cells.  When those of all
# cells fit one pass, ``_read_tree`` makes it before the first layer;
# timed with each way forced (2-CPU x86-64), that wins by 43% at n = 4
# (u-model, 3,072 lookups: 0.047 against 0.083 ms on random:4:1), by 23%
# at 15,360 (u-model n = 5) and loses from 20,736 on (classical n = 6,
# 0.141 against 0.119 ms on random:6:1).
_CHUNK = 1 << 14


def _query_axes(keys: np.ndarray, level: np.ndarray, level_of: Callable,
                n: int, answers: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """The variable each cell queries on an optimal tree: the lowest *
    axis whose children all sit below the cell's level, the first
    variable attaining the minimax value; 0 at level 0.  Every cell of
    level d >= 1 entered L_d through such an axis, so the last axes tried
    serve every cell left (a cell outside L_D, which no tree reaches,
    gets an arbitrary variable).  The axes are tried from the lowest * of
    any cell, a few at a time, as many as keep the lookups of the cells
    still without one under ``_CHUNK``.  When one chunk tried all those
    axes, also returns the levels of the children on the chosen axes, a
    row per answer and a column for each cell of level >= 1 in order;
    else None.  The lookups are laid out by answer first, so that their
    maximum over the answers is taken row by row: over a last axis of
    two or three entries NumPy takes some 30 times as long."""
    span, top, steps, _, _ = _moves(n, answers)
    var = np.zeros(keys.size, dtype=np.intp)
    todo = level.nonzero()[0]
    if not todo.size:
        return var, None
    at = keys[todo]
    star = at % span[:, None] >= top[:, None]  # per axis and cell: a * there
    p = start = int(star.argmax()) // todo.size  # the lowest * of any cell
    kids = None
    while True:
        stop = min(n, p + max(1, _CHUNK // (todo.size * len(answers))))
        # Off the * the steps land on other cells (or wrap round from the
        # end), whose levels the star test drops.
        found = star[p:stop]
        levels = level_of(steps[:, p:stop, None] + at)  # per answer, axis and cell
        found &= levels.max(axis=0) < level[todo]
        if stop == n:
            axis = found.argmax(axis=0)
            var[todo] = axis + (p + 1)
            if p == start:
                kids = levels[:, axis, np.arange(todo.size)]
            return var, kids
        hit = found.any(axis=0)
        var[todo[hit]] = found[:, hit].argmax(axis=0) + (p + 1)
        todo, at, star = todo[~hit], at[~hit], star[:, ~hit]
        if not todo.size:
            return var, None
        p = stop


def _read_tree(level_of: Callable, n: int, answers: tuple[int, ...],
               values: np.ndarray, count: int) -> list[DecisionTree]:
    """The optimal tree below the all-* cell of each of ``count`` tables
    side by side, read off the cell levels that ``level_of`` looks up.

    The trees are read layer by layer from one frontier that starts at
    the tables' roots, each cell carried with its coarsest completion (u
    at every *); table t's cells are keyed from t * 8 * ceil(size / 8)
    on and its completions from t * 3**n on.  A cell of level 0 is a leaf
    and reads ``values``, the tables' values by code side by side, at
    that completion; any other cell queries the variable
    ``_query_axes`` gives it, found for the frontier's cells at once, or,
    when all the cells take fewer lookups than one chunk, for all of them
    before the first layer, through the level of every cell.  The
    children make up the next frontier in (parent, answer) order, so
    every temporary has the size of a frontier or of a small table.
    Their levels are those ``_query_axes`` looked up to choose the
    variables when it tried all the axes it needed in one chunk, and are
    looked up again only otherwise.  Each layer holds the tables' cells
    in table order, so one stable sort by table puts each tree's nodes
    together, in its own layer order.  The arrays built here are the
    trees' own, made read-only, with no copy for a batch of one.
    """
    _, _, _, both, root = _moves(n, answers)
    layout = _layout(n, answers)
    size, width = layout.size, 8 * layout.nbytes  # width: the bits a table takes side by side
    cells = np.concatenate((np.arange(root, count * width, width),  # cell keys, completions
                            np.arange(3 ** n - 1, count * 3 ** n, 3 ** n))).reshape(2, -1)
    if count * size * n * len(answers) <= _CHUNK:
        every = np.arange(count * width)
        level = level_of(every)
        var_of = _query_axes(every, level, level.__getitem__, n, answers)[0]
    else:
        var_of, level = None, level_of(cells[0])
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
            level = level_of(cells[0]) if kids is None else kids.T.reshape(-1)
    var = np.concatenate(var_layers).astype(np.int64, copy=False)
    coarse = np.concatenate(coarse_layers)
    leaf = values[coarse]
    leaf[var > 0] = 0
    if count == 1:
        return [DecisionTree._of(var, leaf)]
    owner = coarse // 3 ** n
    order = np.argsort(owner, kind="stable")
    ends = np.cumsum(np.bincount(owner, minlength=count))[:-1]
    return [DecisionTree._of(*nodes)
            for nodes in zip(np.split(var[order], ends), np.split(leaf[order], ends))]


def _optimal_trees(tables: Sequence[HazardFreeTable], answers: tuple[int, ...],
                   forced: Sequence[bytes] | None = None) -> list[tuple[int, DecisionTree]]:
    """The exact depth over ``answers`` and the canonical optimal tree of
    each table of a batch of one arity.  L_0 is a writable copy of
    ``forced``, each table's bytes of the bitset in key order, when
    given, as an array's levels grow it in place, and built from the
    tables otherwise.  The trees are read off the level planes' bytes
    where they lie."""
    n, count = tables[0].arity, len(tables)
    if forced is None:
        level = _forced_bits(tables, answers)
    else:
        level = np.frombuffer(bytearray(b"".join(forced)), dtype=np.uint8).reshape(count, -1)
    depths, planes = _depth_levels(level, n, answers)
    del level  # L_D, which nothing reads: freed before the trees are read
    trees = _read_tree(_level_reader(planes.reshape(len(planes), -1)), n, answers,
                       _values(tables).reshape(-1), count)
    return list(zip(depths, trees))


def query_complexity_u(
    table: HazardFreeTable, *, forced: bytes | None = None,
) -> tuple[int, DecisionTree]:
    """Exact optimal depth for computing the extension, with a witness tree.

    ``forced``, when given, must be the table's L_0 as the measure arrays
    hold it: a bit per cell of {0, 1, u, *}^n, by base-4 code, set where
    the table forces the cell's value, in ceil(4**n / 8) bytes, lowest
    cell first.  The search then starts from a copy of it instead of
    building its own; bytes of another length raise ``ValueError``.
    """
    n = table.arity
    check_cap(n, table.cap, DEFAULT_SEARCH_CAP, "u-model depth search")
    nbytes = -(-4 ** n // 8)
    if forced is not None and len(forced) != nbytes:
        raise ValueError(f"the forced cells of arity {n} take {nbytes} bytes, not {len(forced)}")
    return _optimal_trees([table], (0, 1, UNKNOWN), None if forced is None else [forced])[0]


def query_complexity(table: HazardFreeTable) -> tuple[int, DecisionTree]:
    """Exact optimal classical decision-tree depth of the table's f, with
    a witness tree."""
    check_cap(table.arity, table.cap, DEFAULT_SEARCH_CAP, "classical depth search")
    return _optimal_trees([table], (0, 1))[0]
