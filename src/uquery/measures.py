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
(``_tabulate``), computed once and memoized beside the forced cells of
{0, 1, u, *}^n (``depth._forced_bits``); every maximum, lex-least
attaining input and classical s and C is read from them.  One forced-cell
test answers the pointwise questions for every value of x: B is sensitive
at x iff the cell equal to x off B and * on B is not forced to F(x), and
S certifies x iff the cell equal to x on S and * elsewhere is forced.  So
the minimal blocks of a packed input take two gathers, and a certificate
witness one lookup per candidate domain.  The arrays also bound bs at
every input, letting the bs scans skip the inputs that cannot change
their result.  The entry also keeps the table's block and certificate
summaries once first read, so a report and the solver's budget price
them once between them.

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
    forced: np.ndarray       # whether each cell of {0, 1, u, *}^n is forced, by base-4 code
    blocks: BlockSensitivitySummary | None = None
    certificates: CertificateSummary | None = None


def _measure_arrays(table: HazardFreeTable) -> _MeasureArrays:
    """The per-input arrays of a table, under its cap; they hold 4**n
    bytes and building them takes 4**n more."""
    check_cap(table.arity, table.cap, DEFAULT_SEARCH_CAP, "certificate arrays")
    return _tabulate(table)


def _layer(a: np.ndarray, axis: int, k: int) -> np.ndarray:
    """View of the cells of ``a`` holding k on ``axis`` (the axis is kept)."""
    return a[(slice(None),) * axis + (slice(k, k + 1),)]


def _min_over_coarsenings(a: np.ndarray) -> None:
    """In place over {0, 1, u, *}^n: a[x] becomes the least a[y] - k over
    x and every cell y made from x by turning k of its cells into *.

    One pass per axis suffices, as in the subset zeta transform
    (Bjorklund, Husfeldt, Kaski, Koivisto, STOC 2007), here over the
    min-plus semiring: each of the 0, 1 and u layers takes the min with
    the * layer less one, through one layer-sized scratch buffer.
    """
    lower = np.empty_like(_layer(a, 0, STAR))
    for axis in range(a.ndim):
        top = _layer(a, axis, STAR)
        scratch = lower.reshape(top.shape)
        np.subtract(top, 1, out=scratch)
        for k in (0, 1, UNKNOWN):
            cell = _layer(a, axis, k)
            np.minimum(cell, scratch, out=cell)


@lru_cache(maxsize=8)
def _tabulate(table: HazardFreeTable) -> _MeasureArrays:
    """Certificate size, s_u and the bs bound at every input.

    *Certificates.*  A domain S certifies x iff the cell equal to x on S
    and * elsewhere is forced (``depth._forced_bits``, unpacked to a bool
    per cell): every string consistent with S is a completion of it.
    Hence C(x) is n minus the most *s that a forced coarsening of x adds
    (x itself adds none).  Every forced cell starts at n and
    ``_min_over_coarsenings`` leaves n minus the most *s added at each
    ternary cell.  A cell that is not forced starts at 0xFE and passes on
    at least 0xFE - n, above every real count, so no second marker is
    needed; and no cell drops below its own number of *s, so none wraps
    below zero.

    *s_u.*  Position p is sensitive at x iff either other trit at p
    changes the value, on any table; ``_sensitive_positions`` applies
    the same rule at one input, so the s_u witness variable agrees with
    the count.  (On an extension the u setting alone decides it for a
    0/1-valued x, but a corrupted table need not be an extension.)

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
    """
    n = table.arity
    vals = table.grid

    bits, size = depth._forced_bits(table, (0, 1, UNKNOWN)), 4 ** n
    forced = np.unpackbits(depth._bitset_bytes(bits, size), count=size, bitorder="little").view(bool)
    cert = np.where(forced, np.uint8(n), np.uint8(0xFE)).reshape((4,) * n)
    _min_over_coarsenings(cert)
    cert = np.ascontiguousarray(cert[(slice(0, 3),) * n])

    sens = np.zeros((3,) * n, dtype=np.uint8)
    for axis in range(n):
        v0, v1, vu = (_layer(vals, axis, k) for k in (0, 1, UNKNOWN))
        d01, d0u, d1u = v0 != v1, v0 != vu, v1 != vu
        for k, moved in ((0, d01 | d0u), (1, d01 | d1u), (UNKNOWN, d0u | d1u)):
            cell = _layer(sens, axis, k)
            cell += moved

    bound = np.minimum(cert, sens + (n - sens) // 2)
    return _MeasureArrays(cert.reshape(-1), sens.reshape(-1), bound.reshape(-1), forced)


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
    where either other trit changes the value, as in ``_tabulate``."""
    n = table.arity
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != arity {n}")
    vals, pw, base = table.values, _weights(n), x.code()
    v = vals[base]
    out = []
    for p, t in enumerate(x.trits):
        low = base - t * pw[p]  # x with 0 at p
        if vals[low + (t + 1) % 3 * pw[p]] != v or vals[low + (t + 2) % 3 * pw[p]] != v:
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
    block's where p is not a member or the block is {p})."""
    blocks = [blk for size in range(1, n + 1) for blk in combinations(range(n), size)]
    index = {blk: i for i, blk in enumerate(blocks)}
    kept = np.ones((len(blocks) + 1, n), dtype=np.int64)
    less = np.full((n, len(blocks)), len(blocks), dtype=np.intp)
    for i, blk in enumerate(blocks):
        kept[i, list(blk)] = 0
        if len(blk) > 1:
            for p in blk:
                less[p, i] = index[tuple(q for q in blk if q != p)]
    pw3, pw4 = np.array(_weights(n)), np.array(_weights(n, 4))
    offsets = np.outer((1, 0), (1 - kept) @ (STAR * pw4))  # the *s, in the cell code only
    return tuple(blocks), np.stack((kept * pw4, kept * pw3)), offsets, less


def _minimal_blocks(table: HazardFreeTable, arrays: _MeasureArrays,
                    digits: Sequence[int], v: int) -> list[tuple[int, ...]]:
    """The minimal sensitive blocks at the input x with trits ``digits``.

    B is sensitive iff the cell equal to x off B and * on B is not forced
    to v = F(x), whatever v is: not forced, or its value, the table's at
    its 0-fill (x off B, 0 on B; F(x) on an extension), is not v.  The
    empty block's cell is x, forced to v.  Supersets of a sensitive block
    are sensitive, so a block is minimal iff it is sensitive and none of
    the blocks one position smaller is.
    """
    blocks, weights, offsets, less = _block_lattice(len(digits))
    cell, zero_fill = weights @ np.array(digits, dtype=np.int64) + offsets
    sensitive = ~arrays.forced[cell] | (table.grid.take(zero_fill) != v)
    minimal = sensitive[:-1] & ~sensitive[less].any(axis=0)
    return [blocks[i] for i in np.flatnonzero(minimal)]


def minimal_sensitive_blocks(
    table: HazardFreeTable, x: TernaryString | str
) -> list[SensitiveBlockWitness]:
    """All minimal sensitive blocks at x, ordered by size then position."""
    x = as_ternary(x)
    n = table.arity
    if len(x) != n:
        raise ValueError(f"input length {len(x)} != arity {n}")
    vals, pw, base = table.values, _weights(n), x.code()
    blocks = _minimal_blocks(table, _measure_arrays(table), x.trits, vals[base])
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


def _packing_scan(
    table: HazardFreeTable, arrays: _MeasureArrays, codes: Sequence[int]
) -> list:
    """Per output trit, the largest packing of blocks over the inputs ``codes``.

    Entry v is None when no input of value v is scanned, else (size, x,
    family) at the first input x of ``codes`` attaining the class
    maximum: a maximum moves only on a strict increase.  An input whose
    bound (``_tabulate``, indexed by ternary code) does not exceed the
    best of its value class so far cannot move that maximum, nor the
    overall one, which is at least as large; it is skipped without
    packing its blocks.
    """
    n = table.arity
    vals, pw = table.values, _weights(n)
    bound = arrays.block_bound.tolist()
    best: list = [None, None, None]
    for base in codes:
        v = vals[base]
        if best[v] is not None and bound[base] <= best[v][0]:
            continue
        x = TernaryString.from_code(base, n)
        blocks = _minimal_blocks(table, arrays, x.trits, v)
        picked = _max_disjoint(blocks)
        if best[v] is None or len(picked) > best[v][0]:
            family = _block_witnesses(vals, x, base, pw, [blocks[j] for j in picked])
            best[v] = (len(picked), x, family)
    return best


def _overall(best: list) -> tuple:
    """The largest packing over all value classes, at its least input."""
    return max((b for b in best if b is not None), key=lambda b: (b[0], -b[1].code()))


def block_summary(table: HazardFreeTable) -> BlockSensitivitySummary:
    """Block sensitivity over all inputs and split by output value.

    Inputs are scanned in code order, so each attaining input is the
    lex-least one (``_packing_scan``).  The scan runs once per table: its
    summary is kept with the table's arrays (``_tabulate``), so a report
    and the solver's budget read the same one.
    """
    arrays = _measure_arrays(table)
    if arrays.blocks is None:
        arrays.blocks = _block_summary(table, arrays)
    return arrays.blocks


def _block_summary(table: HazardFreeTable, arrays: _MeasureArrays) -> BlockSensitivitySummary:
    best = _packing_scan(table, arrays, range(3 ** table.arity))
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
    digits, pw3, pw4 = x.trits, _weights(n), _weights(n, 4)
    all_star = 4 ** n - 1
    for S in combinations(range(n), int(arrays.certificate[x.code()])):
        code = all_star
        for p in S:
            code += (digits[p] - STAR) * pw4[p]
        if arrays.forced[code]:
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
    codes = np.arange(3 ** n).reshape((3,) * n)[(slice(0, 2),) * n].reshape(-1)
    sens, cert = arrays.sensitivity[codes], arrays.certificate[codes]

    s_x = TernaryString.from_code(int(codes[sens.argmax()]), n)
    flips = _sensitive_positions(table, s_x)
    c_x = TernaryString.from_code(int(codes[cert.argmax()]), n)
    bs, bs_x, bs_family = _overall(
        _packing_scan(table, arrays, codes.tolist()))

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


def measure_report(table: HazardFreeTable, *, with_witnesses: bool = False) -> MeasureReport:
    """Compute every measure of the table's f, including exact decision-tree depths."""
    s_u, s_u_x, s_u_var = _sensitivity_scan(table)
    blocks = block_summary(table)
    certs = certificate_summary(table)
    classical = standard_measures(table)
    d_u, tree_u = depth.query_complexity_u(table, forced=_measure_arrays(table).forced)
    d, tree_b = depth.query_complexity(table)

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
