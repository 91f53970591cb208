"""Combinatorial complexity measures of hazard-free extensions.

For an extension F = f_u and an input x over {0, 1, u}:

* a block B of variables is sensitive at x when some y agreeing with x
  outside B has F(y) != F(x);
* the block sensitivity at x is the maximum number of pairwise disjoint
  sensitive blocks, and sensitivity counts the singleton ones;
* a certificate at x is a partial assignment consistent with x such that
  every consistent string gets the same value F(x); its size is the
  number of assigned positions.

Aggregates split by output value: bs_u restricted to inputs of value b,
certificate complexity C_u = max over the 0- and 1-valued inputs (the
u-valued inputs are tracked separately).  The classical measures s, bs
and C of f itself are included for comparison.

Packing is exact: any disjoint family of sensitive blocks can be shrunk
member-wise to minimal sensitive blocks without losing disjointness, so
a maximum packing over the minimal blocks is a maximum packing overall.

The certificate size and s_u at every input come from per-table arrays
(``_tabulate``, which builds a batch of tables at once), computed once
and memoized by table content beside the forced cells of {0, 1, u, *}^n
(``depth._forced_bits``); every maximum, lex-least attaining input and
classical s and C is read from them.  One forced-cell test answers the
pointwise questions for every value of x: B is sensitive at x iff the
cell equal to x off B and * on B is not forced to F(x), and S certifies
x iff the cell equal to x on S and * elsewhere is forced.  So the
minimal blocks of a packed input take two gathers, and a certificate
witness one lookup per candidate domain.  The arrays also bound bs at
every input, so the bs scans pack only the inputs that could still
change their result.  The entry also keeps the table's block and
certificate summaries once first read, so a report and the solver's
budget price them once between them.

Everything here is pure and operates on immutable tables, so per-input
loops can be distributed freely (the verification harness does).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

import numpy as np

from . import depth, trees
from .check import CertificateWitness, SensitiveBlockWitness
# Re-exported for perfbench/workloads.py, until ROADMAP item 1.
from .check import validate_block_family, validate_certificate  # noqa: F401
from .core import (
    DEFAULT_SEARCH_CAP,
    STAR,
    UNKNOWN,
    HazardFreeTable,
    PartialAssignment,
    TernaryString,
    as_ternary,
    check_cap,
)


@lru_cache(maxsize=None)
def _weights(n: int, base: int = 3) -> tuple[int, ...]:
    """Weight of each position in a code (variable 1 most significant)."""
    return tuple(base ** (n - 1 - p) for p in range(n))


@dataclass(frozen=True)
class BlockSensitivitySummary:
    bs_u: int
    by_value: tuple[int, int, int]  # indexed by output trit 0, 1, u
    attaining: tuple[TernaryString | None, ...]
    families: tuple[tuple[SensitiveBlockWitness, ...], ...]
    attaining_global: TernaryString
    family_global: tuple[SensitiveBlockWitness, ...]


@dataclass(frozen=True)
class CertificateSummary:
    c_u: int
    c_u_0: int
    c_u_1: int
    c_u_uval: int
    attaining: tuple[TernaryString | None, ...]
    witnesses: tuple[CertificateWitness | None, ...]


@dataclass(frozen=True)
class StandardMeasures:
    s: int
    bs: int
    c: int
    s_attaining: TernaryString
    s_variable: int | None
    bs_attaining: TernaryString
    bs_family: tuple[SensitiveBlockWitness, ...]
    c_attaining: TernaryString
    c_witness: CertificateWitness


# ---------------------------------------------------------------------------
# Per-input arrays, computed once per table.

@dataclass(eq=False)
class _MeasureArrays:
    """Per-input measures of one table, flat and indexed by ternary code,
    and the table's two summaries, each kept here on first use."""

    certificate: np.ndarray  # minimum certificate size
    sensitivity: np.ndarray  # number of sensitive positions (s_u)
    block_bound: np.ndarray  # min(C, s + (n - s) // 2), at least bs
    forced: np.ndarray       # read-only uint8, a bit per cell of {0, 1, u, *}^n, by base-4 code: forced
    blocks: BlockSensitivitySummary | None = None
    certificates: CertificateSummary | None = None


def _measure_arrays(table: HazardFreeTable) -> _MeasureArrays:
    """The per-input arrays of a table, under its cap, from the memo or
    tabulated as a batch of one; they hold 4**n / 8 bytes and 3 * 3**n
    more.  Building them peaks at 0.31 * 4**n bytes more at n = 14 (80
    MiB), the certificate slabs beside the forced bits: the slabs take
    under 0.2 * 4**n, and up to n = 9, where the whole array is one slab,
    under 3 * 4**n (0.7 MB)."""
    check_cap(table.arity, table.cap, DEFAULT_SEARCH_CAP, "certificate arrays")
    arrays = _tabulated.get(table)
    if arrays is None:
        (arrays,) = _tabulate([table])
        _remember(table, arrays)
    return arrays


# The memo of measure arrays, keyed by table content: one entry, the last
# table's.  Every reader reads the newest table: a CLI command builds one,
# a report and the solver's budget read one entry between them, the 300
# solves of one function in one process share it, and the verify harness
# remembers each table as its checks begin.  At n = 14 an entry holds 32
# MiB of forced bits and 3 * 4.8 MB of arrays.
_tabulated: dict[HazardFreeTable, _MeasureArrays] = {}


def _remember(table: HazardFreeTable, arrays: _MeasureArrays) -> None:
    """Make a table's arrays the memo's one entry, dropping the last
    table's."""
    _tabulated.clear()
    _tabulated[table] = arrays


def _layer(a: np.ndarray, axis: int, k: int) -> np.ndarray:
    """View of the cells of ``a`` holding k on ``axis`` (the axis is kept)."""
    return a[(slice(None),) * axis + (slice(k, k + 1),)]


def _min_over_coarsenings(a: np.ndarray, axes: int) -> np.ndarray:
    """Over the first ``axes`` base-4 digits of each row's index, which
    read 0, 1, u, * (a contiguous (rows, 4**axes * m) array): the cells
    with no * there, as a new (rows, 3**axes * m) array, each the least
    a[y] - k over x and every cell y made from x by turning k of those
    digits into *.

    One pass per axis suffices, as in the subset zeta transform
    (Bjorklund, Husfeldt, Kaski, Koivisto, STOC 2007), here over the
    min-plus semiring: the 0, 1 and u layers take the min with the *
    layer less one.  No later pass reads an axis's * layer, so each pass
    keeps only the other three, and pass k touches 3**k * 4**(axes - k)
    cells per row and entry of the other axes.  Each pass writes a new
    contiguous array, so that it runs over three axes: the ones before,
    its own and the ones after.
    """
    rows, rest = a.shape
    for axis in range(axes):
        rest //= 4
        a = a.reshape(rows * 3 ** axis, 4, rest)
        a = np.minimum(a[:, :STAR], a[:, STAR:] - 1)
    return a.reshape(rows, -1)


# Certificate sizes are built from slabs of at most 4**_SLAB_AXES cells
# (``_certificate_sizes``).  A whole array takes 2.7 bytes a cell to build,
# so from n = 10 on it is split.  Slabs of 4**10 or 4**11 cells were 10-12%
# faster at n = 14, but leave the whole 4**10 array at n = 10.
_SLAB_AXES = 9


def _certificate_sizes(forced: np.ndarray, n: int, prefix: int) -> np.ndarray:
    """The minimum certificate size at every ternary input of each table
    of a batch, a (tables, 3**n) array by code, from the forced bits of
    {0, 1, u, *}^n (``depth._forced_bits``' rows).

    Each forced cell starts at n and every other at 0xFE, and
    ``_min_over_coarsenings`` leaves n minus the most *s a forced
    coarsening adds (``_tabulate``).  Its passes along the last n -
    ``prefix`` axes are independent for each base-4 prefix of the first
    ``prefix`` of each table, whose cells are one contiguous slab of the
    bits, of whole bytes as a prefix leaves at least 2 axes; without a
    prefix a table is one slab.  So the slabs are unpacked a byte per
    cell, a row each, as many at once as fit in 4**_SLAB_AXES cells, and
    each keeps its 3**(n - prefix) result; then the prefix passes run on
    those, a row per table.  With a prefix, the 4**n byte array of a
    table never exists.
    """
    tables, axes = len(forced), n - prefix
    slabs = forced.reshape(tables * 4 ** prefix, -1)  # a slab of 4**axes cells a row
    step = 4 ** max(0, _SLAB_AXES - axes)  # slabs a step
    out = np.empty((len(slabs), 3 ** axes), dtype=np.uint8)
    for j in range(0, len(slabs), step):
        slab = np.unpackbits(slabs[j:j + step], axis=1, count=4 ** axes, bitorder="little")
        slab *= np.uint8(n + 2)  # a forced cell's 1 becomes n + 2, which 0xFE more wraps to n;
        slab += np.uint8(0xFE)   # every other cell reads 0xFE
        out[j:j + step] = _min_over_coarsenings(slab, axes)
    return _min_over_coarsenings(out.reshape(tables, -1), prefix)


def _tabulate(tables: Sequence[HazardFreeTable], forced: np.ndarray | None = None) -> list[_MeasureArrays]:
    """Certificate size, s_u and the bs bound at every input, for each
    table of a batch of one arity, a table alone being a batch of one.
    ``forced`` is the batch's L_0 of the u-model as ``depth._forced_bits``
    gives it, built here when None.

    *Certificates.*  A domain S certifies x iff the cell equal to x on S
    and * elsewhere is forced (``depth._forced_bits``, kept as its rows):
    every string consistent with S is a completion of it.  Hence C(x) is
    n minus the most *s that a forced coarsening of x adds (x itself adds
    none).  The forced bits are unpacked a byte per cell, a slab at a
    time from n = _SLAB_AXES + 1 on (``_certificate_sizes``), where every
    forced cell starts at n and ``_min_over_coarsenings`` leaves n minus
    the most *s added at each ternary cell.  A cell that is not forced
    starts at 0xFE and passes on at least 0xFE - n, above every real
    count, so no second marker is needed; and no cell drops below its
    own number of *s, so none wraps below zero.

    *s_u.*  Position p is sensitive at x iff x's values with 0, 1 and u
    at p are not all equal, whichever trit x holds, on any table.  One
    mask per axis counts it at the axis' three layers at once, for every
    table of the batch, and ``_sensitive_positions`` applies the same
    test at one input, so the s_u witness variable agrees with the count.

    *The bs bound.*  bs(x) <= min(C(x), s(x) + (n - s(x)) // 2) for
    every input x, and classically for every binary x with flip blocks
    and the classical s and C, which are these arrays at binary codes.

    Proof.  Let S be a minimum certificate at x and B a sensitive block:
    some y equal to x outside B has F(y) != F(x).  If B missed S, y
    would agree with x on S and so F(y) = F(x).  Hence every sensitive
    block meets S, and disjoint blocks meet it in distinct positions:
    bs(x) <= |S| = C(x).  For the second term take a maximum packing of
    minimal sensitive blocks (shrinking keeps a packing disjoint).  A
    non-singleton block holding a sensitive position p strictly contains
    the sensitive block {p} and is not minimal, so the packing has at
    most s(x) singletons and its other blocks hold at least two
    positions each, all among the n - s(x) insensitive ones.

    Taking the maximum over x gives bs_u <= max(C_u, C_uu), which the
    verification suite checks.

    Each table's arrays are rows of the batch's, its forced cells too:
    its row of the batch's L_0, made read-only, which a batched D_u
    search can start from.
    """
    n, count = tables[0].arity, len(tables)
    vals = depth._values(tables).reshape((count,) + (3,) * n)

    if forced is None:
        forced = depth._forced_bits(tables, (0, 1, UNKNOWN))
    forced.flags.writeable = False  # shared by every reader of the arrays
    cert = _certificate_sizes(forced, n, max(0, n - _SLAB_AXES))

    sens = np.zeros(vals.shape, dtype=np.uint8)
    for axis in range(1, n + 1):
        v0, v1, vu = (_layer(vals, axis, k) for k in (0, 1, UNKNOWN))
        sens += (v0 != v1) | (v1 != vu)  # broadcast over the axis' three layers
    sens = sens.reshape(count, -1)

    bound = np.minimum(cert, sens + (n - sens) // 2)
    return [_MeasureArrays(*rows) for rows in zip(cert, sens, bound, forced)]


def _first_max(measure: np.ndarray, mask: np.ndarray) -> int | None:
    """Least code attaining the maximum of ``measure`` over ``mask``."""
    if not mask.any():
        return None
    return int(np.where(mask, measure.astype(np.int16), -1).argmax())


# ---------------------------------------------------------------------------
# Sensitivity.


def sensitivity_u_at(table: HazardFreeTable, x: TernaryString | str) -> int:
    """Number of variables whose singleton block is sensitive at x."""
    return len(_sensitive_positions(table, as_ternary(x)))


def _sensitive_positions(table: HazardFreeTable, x: TernaryString) -> list[int]:
    """0-based positions whose singleton block is sensitive at x: those
    where the values at 0, 1 and u are not all equal (``_tabulate``)."""
    n = table.arity
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != arity {n}")
    vals, pw, base = table.values, _weights(n), x.code()
    out = []
    for p, t in enumerate(x.trits):
        low = base - t * pw[p]  # x with 0 at p
        v1 = vals[low + pw[p]]
        if vals[low] != v1 or v1 != vals[low + 2 * pw[p]]:
            out.append(p)
    return out


def sensitivity_u(table: HazardFreeTable) -> int:
    return _sensitivity_scan(table)[0]


def _sensitivity_scan(table: HazardFreeTable):
    """s_u, the lex-least input attaining it and its lowest sensitive variable."""
    sens = _measure_arrays(table).sensitivity
    code = int(sens.argmax())
    x = TernaryString.from_code(code, table.arity)
    positions = _sensitive_positions(table, x)
    return int(sens[code]), x, (positions[0] + 1 if positions else None)


# ---------------------------------------------------------------------------
# Sensitive blocks and block sensitivity.


def _lex_least_alteration(vals, digits, base, pw, blk, v) -> int:
    """Code of the smallest altered string proving the block sensitive."""
    for tv in product((0, 1, 2), repeat=len(blk)):
        code = base
        for k, p in enumerate(blk):
            code += (tv[k] - digits[p]) * pw[p]
        if vals[code] != v:
            return code
    raise AssertionError("block reported sensitive but no alteration found")


@lru_cache(maxsize=None)
def _block_lattice(n: int):
    """The nonempty blocks of n positions, by size then in ``combinations``
    order; the weights and offsets taking the trits of an input x to the
    base-4 code of the cell equal to x off B and * on B and the base-3
    code of its 0-fill (x off B, 0 on B), per block B and then the empty
    block; and, per position p, the index of each block less p (the empty
    block's where p is not a member or the block is {p}).

    A block is a bitmask with position p at bit n - 1 - p, so that
    ``combinations`` order is descending mask order within a size, and a
    block less p is its mask less that bit, indexed through a rank table
    over the 2**n masks.  No sort is needed: the first call of a NumPy
    sort in a process added 0.25 MB of resident memory.
    """
    blocks = tuple(blk for size in range(1, n + 1) for blk in combinations(range(n), size))
    bit = 1 << np.arange(n - 1, -1, -1)
    masks = np.arange((1 << n) - 1, 0, -1)
    sizes = ((masks[:, None] & bit) != 0).sum(axis=1)
    masks = np.concatenate([masks[sizes == size] for size in range(1, n + 1)])
    member = (masks[:, None] & bit) != 0
    rank = np.empty(1 << n, dtype=np.intp)
    rank[masks] = np.arange(len(blocks))
    rank[0] = len(blocks)  # the empty block
    less = np.where(member.T, rank[masks & ~bit[:, None]], len(blocks))
    kept = np.ones((len(blocks) + 1, n), dtype=np.int64)
    kept[:-1] -= member
    pw3, pw4 = np.array(_weights(n)), np.array(_weights(n, 4))
    offsets = np.outer((1, 0), (1 - kept) @ (STAR * pw4))  # the *s, in the cell code only
    return blocks, np.stack((kept * pw4, kept * pw3)), offsets, less


_BIT = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)  # entry b: the mask of bit b


def _minimal_blocks(table: HazardFreeTable, forced: np.ndarray,
                    digits: Sequence[int], v: int) -> list[tuple[int, ...]]:
    """The minimal sensitive blocks at the input x with trits ``digits``;
    ``forced`` is the measure arrays' forced bits.

    B is sensitive iff the cell equal to x off B and * on B is not forced
    to v = F(x), whatever v is: not forced, or its value, the table's at
    its 0-fill (x off B, 0 on B; F(x) on an extension), is not v.  The
    empty block's cell is x, forced to v.  Supersets of a sensitive block
    are sensitive, so a block is minimal iff it is sensitive and none of
    the blocks one position smaller is.
    """
    blocks, weights, offsets, less = _block_lattice(len(digits))
    codes = weights @ np.array(digits, dtype=np.int64)
    codes += offsets
    cell = codes[0]
    sensitive = (forced[cell >> 3] & _BIT[cell & 7]) == 0
    sensitive |= table.grid.take(codes[1]) != v  # the 0-fills
    minimal = sensitive[:-1] & ~sensitive[less].any(axis=0)
    return [blocks[i] for i in minimal.nonzero()[0].tolist()]


def minimal_sensitive_blocks(
    table: HazardFreeTable, x: TernaryString | str
) -> list[SensitiveBlockWitness]:
    """All minimal sensitive blocks at x, ordered by size then position."""
    x = as_ternary(x)
    n = table.arity
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != arity {n}")
    vals, pw, base = table.values, _weights(n), x.code()
    blocks = _minimal_blocks(table, _measure_arrays(table).forced, x.trits, vals[base])
    return list(_block_witnesses(vals, x, base, pw, blocks))


def _block_witnesses(vals, x, base, pw, blocks) -> tuple[SensitiveBlockWitness, ...]:
    """Each block at x with its lex-least altered string."""
    return tuple(
        SensitiveBlockWitness(
            base=x,
            block=frozenset(p + 1 for p in blk),
            altered=TernaryString.from_code(
                _lex_least_alteration(vals, x.trits, base, pw, blk, vals[base]),
                len(x),
            ),
        )
        for blk in blocks
    )


def _max_disjoint(blocks: list[tuple[int, ...]]) -> list[int]:
    """Indices of a maximum disjoint subfamily (exact branch and bound).

    The blocks come ordered by size, so the blocks from j on that still
    fit are at most ``free // len(blocks[j])``, ``free`` being the
    positions of their union outside ``used``; a branch is cut only when
    it cannot strictly beat the best family, which thus stays the first
    maximum one in search order.
    """
    masks = []
    union = 0
    for blk in blocks:
        bm = 0
        for p in blk:
            bm |= 1 << p
        masks.append(bm)
        union |= bm
    best: list[int] = []
    chosen: list[int] = []

    def dfs(start: int, used: int) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
        free = (union & ~used).bit_count()
        for j in range(start, len(blocks)):
            if len(chosen) + min(len(blocks) - j, free // len(blocks[j])) <= len(best):
                break
            if masks[j] & used:
                continue
            chosen.append(j)
            dfs(j + 1, used | masks[j])
            chosen.pop()

    dfs(0, 0)
    return best


def block_sensitivity_u_at(
    table: HazardFreeTable, x: TernaryString | str
) -> tuple[int, tuple[SensitiveBlockWitness, ...]]:
    """Maximum number of disjoint sensitive blocks at x, with a witness family."""
    x = as_ternary(x)
    if len(x) != table.arity:
        raise ValueError(f"input length {len(x)} != arity {table.arity}")
    code = x.code()
    size, _, family = _packing_scan(table, _measure_arrays(table), [code])[table.values[code]]
    return size, family


_CLASSES = np.arange(3, dtype=np.uint8)[:, None]  # the output trits, a row each

# Codes searched at a time for inputs that could still win a bs scan.
_SCAN_WINDOW = 1 << 16


def _packing_scan(table: HazardFreeTable, arrays: _MeasureArrays,
                  codes: Sequence[int] | None = None) -> list:
    """Per output trit v, the largest packing of blocks over the inputs
    ``codes`` (increasing; every input when None) of value v.

    Entry v is None when none is scanned, else (size, x, family) at the
    least input x attaining the class maximum.  No input packs more than
    its bound (``_tabulate``'s ``block_bound``).  So each class is first
    packed at its least input of highest bound, and is settled when that
    packing reaches the bound: every class is, at maj:11, ind:3 and
    random:14:1, and all but one at mind:4.  Otherwise an input can
    still win only if its bound is above the best size so far, or equal
    to it at a smaller code.  These inputs are found with
    ``np.flatnonzero`` a window of codes at a time and packed in code
    order, and the search starts again after each one that wins.  The
    arrays are read in place: the only index arrays made hold the inputs
    of one window that could win.
    """
    n = table.arity
    vals, bound = table.grid.reshape(-1), arrays.block_bound
    if codes is not None:
        vals, bound = vals[codes], bound[codes]
    members = vals == _CLASSES  # row v: the inputs of value v

    def pack(i: int, v: int) -> tuple:
        code = i if codes is None else int(codes[i])
        x = TernaryString.from_code(code, n)
        blocks = _minimal_blocks(table, arrays.forced, x.trits, v)
        picked = [blocks[j] for j in _max_disjoint(blocks)]
        return len(picked), i, x, code, picked

    best: list = []
    # Each class's least input of highest bound; bound + 1, so that an
    # input of bound 0 outranks the inputs of other values.
    for v, top in enumerate((members * (bound + np.uint8(1))).argmax(axis=1).tolist()):
        if not members[v, top]:
            best.append(None)
            continue
        best.append(pack(top, v))
        size, at = best[v][:2]
        pos, limit = 0, int(bound[top])
        while size < limit and pos < len(vals):
            stop = min(pos + _SCAN_WINDOW, len(vals))
            window = bound[pos:stop]
            wins = window > size
            if at > pos:
                wins[:at - pos] |= window[:at - pos] == size
            wins &= members[v, pos:stop]
            if pos <= top < stop:
                wins[top - pos] = False  # packed first
            start, pos = pos, stop
            for i in np.flatnonzero(wins).tolist():
                got = pack(start + i, v)
                if got[0] > size or got[0] == size and start + i < at:
                    best[v] = got
                    size, at = got[:2]
                    pos = at + 1
                    break
    pw = _weights(n)
    for v, got in enumerate(best):
        if got is not None:
            size, _, x, code, picked = got
            best[v] = (size, x, _block_witnesses(table.values, x, code, pw, picked))
    return best


def _overall(best: list) -> tuple:
    """The largest packing over all value classes, at its least input."""
    return max((b for b in best if b is not None), key=lambda b: (b[0], -b[1].code()))


def block_summary(table: HazardFreeTable) -> BlockSensitivitySummary:
    """Block sensitivity over all inputs and split by output value.

    Each attaining input is the lex-least one: the scan seeds each value
    class at its least input of highest bound, then packs in code order
    only the inputs that could still win (``_packing_scan``).  At
    random:14:1 it packs 3 inputs.  The scan runs once per table: its
    summary is kept with the table's arrays (``_tabulate``), so a report
    and the solver's budget read the same one.
    """
    arrays = _measure_arrays(table)
    if arrays.blocks is None:
        arrays.blocks = _block_summary(table, arrays)
    return arrays.blocks


def _block_summary(table: HazardFreeTable, arrays: _MeasureArrays) -> BlockSensitivitySummary:
    best = _packing_scan(table, arrays)
    by_value = tuple(0 if b is None else b[0] for b in best)
    bs_u, x, family = _overall(best)
    return BlockSensitivitySummary(
        bs_u=bs_u,
        by_value=by_value,
        attaining=tuple(None if b is None else b[1] for b in best),
        families=tuple(() if b is None else b[2] for b in best),
        attaining_global=x,
        family_global=family,
    )


def block_sensitivity_u(table: HazardFreeTable) -> int:
    return block_summary(table).bs_u


def block_sensitivity_u_value(table: HazardFreeTable, value: int) -> int:
    """bs restricted to inputs of the given output trit; 0 when none exist."""
    if value not in (0, 1, 2):
        raise ValueError("value must be a trit")
    return block_summary(table).by_value[value]


# ---------------------------------------------------------------------------
# Certificates.


def certificate_u_at(table: HazardFreeTable, x: TernaryString | str) -> CertificateWitness:
    """A minimum certificate at x; domain chosen smallest, then lex-least.

    Its size C(x) is read from the per-table arrays.  A domain S
    certifies x iff the cell equal to x on S and * elsewhere is forced
    (``_tabulate``), so each domain of size C(x), in ``combinations``
    order, costs one lookup; the value is the table's at x on S and 0
    elsewhere, F(x) on an extension.
    """
    x = as_ternary(x)
    n = table.arity
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != arity {n}")
    arrays = _measure_arrays(table)
    forced = memoryview(arrays.forced)  # its entries as ints, read faster than the array's
    digits, pw3, pw4 = x.trits, _weights(n), _weights(n, 4)
    all_star = 4 ** n - 1
    for S in combinations(range(n), int(arrays.certificate[x.code()])):
        code = all_star
        for p in S:
            code += (digits[p] - STAR) * pw4[p]
        if forced[code >> 3] >> (code & 7) & 1:
            zero = sum([digits[p] * pw3[p] for p in S])  # x on S, 0 elsewhere
            return CertificateWitness(
                PartialAssignment.restriction(x, (p + 1 for p in S)),
                table.values[zero],
            )
    raise AssertionError("the certificate array names no certifying domain")


def certificate_summary(table: HazardFreeTable) -> CertificateSummary:
    """Worst minimum certificate per value class, at its lex-least input;
    kept with the table's arrays on first use, as in ``block_summary``."""
    arrays = _measure_arrays(table)
    if arrays.certificates is None:
        arrays.certificates = _certificate_summary(table, arrays)
    return arrays.certificates


def _certificate_summary(table: HazardFreeTable, arrays: _MeasureArrays) -> CertificateSummary:
    worst = [0, 0, 0]
    attaining: list[TernaryString | None] = [None, None, None]
    witnesses: list[CertificateWitness | None] = [None, None, None]
    for v in (0, 1, UNKNOWN):
        code = _first_max(arrays.certificate, table.grid.reshape(-1) == v)
        if code is not None:
            worst[v] = int(arrays.certificate[code])
            attaining[v] = TernaryString.from_code(code, table.arity)
            witnesses[v] = certificate_u_at(table, attaining[v])
    return CertificateSummary(
        c_u=max(worst[0], worst[1]),
        c_u_0=worst[0],
        c_u_1=worst[1],
        c_u_uval=worst[2],
        attaining=tuple(attaining),
        witnesses=tuple(witnesses),
    )


def certificate_complexity_u(table: HazardFreeTable) -> int:
    """C_u: worst-case minimum certificate size over the 0/1-valued inputs."""
    return certificate_summary(table).c_u


# ---------------------------------------------------------------------------
# Classical measures of the underlying Boolean function.


@lru_cache(maxsize=None)
def _binary_codes(n: int) -> np.ndarray:
    """The ternary codes of the 2**n binary inputs, increasing."""
    codes = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        codes = (3 * codes[:, None] + (0, 1)).reshape(-1)
    codes.flags.writeable = False
    return codes


def standard_measures(table: HazardFreeTable) -> StandardMeasures:
    """Classical s, bs and C of the table's f over binary inputs with
    bit-flip blocks.

    At a binary input the u-sensitive positions are the flip-sensitive
    ones and the certificates are the subcubes on which f is constant,
    so classical s and C are the per-input arrays at the binary codes.

    Classical bs is the bs_u scan restricted to the binary codes.  At a
    binary x, setting a block to u reaches every flip inside it, so a
    block is u-sensitive iff it holds a flip-sensitive block, and the
    minimal blocks of the two kinds coincide.  An alteration proving a
    minimal block changes each of its positions (else a smaller block
    would be sensitive), so the lex-least one is the full flip.
    """
    n = table.arity
    arrays = _measure_arrays(table)
    codes = _binary_codes(n)
    sens, cert = arrays.sensitivity[codes], arrays.certificate[codes]

    s_x = TernaryString.from_code(int(codes[sens.argmax()]), n)
    flips = _sensitive_positions(table, s_x)
    c_x = TernaryString.from_code(int(codes[cert.argmax()]), n)
    bs, bs_x, bs_family = _overall(_packing_scan(table, arrays, codes))

    return StandardMeasures(
        s=int(sens.max()),
        bs=bs,
        c=int(cert.max()),
        s_attaining=s_x,
        s_variable=flips[0] + 1 if flips else None,
        bs_attaining=bs_x,
        bs_family=bs_family,
        c_attaining=c_x,
        c_witness=certificate_u_at(table, c_x),
    )


# ---------------------------------------------------------------------------
# The combined report.


_REPORT_FIELDS = (
    "s_u", "bs_u", "bs_u_0", "bs_u_1", "bs_u_uval",
    "C_u_0", "C_u_1", "C_u", "C_u_uval",
    "s", "bs", "C", "D", "D_u",
)

# The witnesses that hold a ``DecisionTree`` under "tree".
TREE_WITNESSES = ("D", "D_u")


@dataclass(frozen=True)
class MeasureReport:
    """All measures of one function, with optional witnesses.

    The witnesses are plain JSON values, but for the D and D_u witness
    trees, which are held as ``DecisionTree``s under ``"tree"``;
    ``to_json_dict`` gives the report with their JSON form there.
    """

    s_u: int
    bs_u: int
    bs_u_0: int
    bs_u_1: int
    bs_u_uval: int
    C_u_0: int
    C_u_1: int
    C_u: int
    C_u_uval: int
    s: int
    bs: int
    C: int
    D: int
    D_u: int
    witnesses: dict | None = None

    def to_json_dict(self) -> dict:
        out = {name: getattr(self, name) for name in _REPORT_FIELDS}
        if self.witnesses is not None:
            out["witnesses"] = witnesses = dict(self.witnesses)
            for key in TREE_WITNESSES:
                witnesses[key] = {**witnesses[key],
                                  "tree": trees.tree_to_json_dict(witnesses[key]["tree"])}
        return out

    def to_text(self) -> str:
        return "\n".join(f"{name}={getattr(self, name)}" for name in _REPORT_FIELDS)


def _family_witness(x: TernaryString | None, family) -> dict | None:
    if x is None:
        return None
    return {
        "input": str(x),
        "blocks": [sorted(w.block) for w in family],
        "altered": [str(w.altered) for w in family],
    }


def _certificate_witness(x: TernaryString | None, w: CertificateWitness | None):
    if x is None or w is None:
        return None
    return {"input": str(x), "certificate": str(w.assignment)}


def measure_report(table: HazardFreeTable, *, with_witnesses: bool = False,
                   searched: tuple | None = None) -> MeasureReport:
    """Compute every measure of the table's f, including exact decision-tree
    depths.  ``searched``, when given, holds the table's classical and
    u-model searches, ((D, tree), (D_u, tree)), already made with a
    batch of tables; otherwise the report searches them itself."""
    s_u, s_u_x, s_u_var = _sensitivity_scan(table)
    blocks = block_summary(table)
    certs = certificate_summary(table)
    classical = standard_measures(table)
    if searched is None:
        searched = (depth.query_complexity(table),
                    depth.query_complexity_u(table, forced=_measure_arrays(table).forced))
    (d, tree_b), (d_u, tree_u) = searched

    witnesses = None
    if with_witnesses:
        pick = 0 if certs.c_u_0 >= certs.c_u_1 else 1
        witnesses = {
            "s_u": {
                "input": str(s_u_x),
                "variable": s_u_var,
            },
            "bs_u": _family_witness(blocks.attaining_global, blocks.family_global),
            "bs_u_0": _family_witness(blocks.attaining[0], blocks.families[0]),
            "bs_u_1": _family_witness(blocks.attaining[1], blocks.families[1]),
            "bs_u_uval": _family_witness(blocks.attaining[2], blocks.families[2]),
            "C_u_0": _certificate_witness(certs.attaining[0], certs.witnesses[0]),
            "C_u_1": _certificate_witness(certs.attaining[1], certs.witnesses[1]),
            "C_u": _certificate_witness(certs.attaining[pick], certs.witnesses[pick]),
            "C_u_uval": _certificate_witness(certs.attaining[2], certs.witnesses[2]),
            "s": {
                "input": str(classical.s_attaining),
                "variable": classical.s_variable,
            },
            "bs": _family_witness(classical.bs_attaining, classical.bs_family),
            "C": _certificate_witness(classical.c_attaining, classical.c_witness),
            "D": {"depth": d, "tree": tree_b},
            "D_u": {"depth": d_u, "tree": tree_u},
        }

    return MeasureReport(
        s_u=s_u,
        bs_u=blocks.bs_u,
        bs_u_0=blocks.by_value[0],
        bs_u_1=blocks.by_value[1],
        bs_u_uval=blocks.by_value[2],
        C_u_0=certs.c_u_0,
        C_u_1=certs.c_u_1,
        C_u=certs.c_u,
        C_u_uval=certs.c_u_uval,
        s=classical.s,
        bs=classical.bs,
        C=classical.c,
        D=d,
        D_u=d_u,
        witnesses=witnesses,
    )
