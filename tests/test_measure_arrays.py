"""The per-table measure arrays against the pointwise code and the reference.

The arrays give the certificate size, s_u and a block-sensitivity bound
at every input; the summaries read their maxima and lex-least attaining
inputs from them and skip inputs by the bound.  Every check here
recomputes the same quantities input by input through the pointwise
functions (and, at n <= 3, through ``reference.py``): exhaustively for
n <= 3 and on seeded samples for n = 4..6.  The slab transform, the
seeded bs scan, the bitmask block lattice and the s_u array are checked
against the kernels they replaced, kept in ``reference.py``:
exhaustively for n <= 3, on seeded samples for n = 4..8, and on fixed
specs up to n = 12.
"""

import dataclasses
import hashlib
import json
import random
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest

import reference as R
import uquery.cli
import uquery.depth
import uquery.measures
from uquery import (
    STAR,
    ArityCapError,
    BooleanFunction,
    HazardFreeTable,
    TernaryString,
    generate,
    hazard_free_table,
)
from uquery.algorithms import Oracle, algorithm1_solve
from uquery.check import validate_block_family
from uquery.depth import query_complexity_u
from uquery.measures import (
    _measure_arrays,
    _overall,
    _sensitivity_scan,
    block_sensitivity_u_at,
    block_summary,
    certificate_summary,
    certificate_u_at,
    measure_report,
    minimal_sensitive_blocks,
    sensitivity_u_at,
    standard_measures,
)


def _all_small():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            yield n, bits


def _tables(n):
    """Every table of arity n <= 3, else a seeded sample (n = 4..8)."""
    if n <= 3:
        return [bits for m, bits in _all_small() if m == n]
    rng = random.Random(2007 + n)
    return [rng.getrandbits(1 << n) for _ in range({4: 24, 5: 8, 6: 3, 7: 3, 8: 2}[n])]


ARITIES = (1, 2, 3, 4, 5, 6)


def _inputs(n):
    return [TernaryString.from_code(code, n) for code in range(3 ** n)]


def _lex_max(items):
    """(max key, first item attaining it) over (key, item) pairs in order."""
    best = None
    for key, item in items:
        if best is None or key > best[0]:
            best = (key, item)
    return best


def _first_sensitive_variable(table, x):
    singles = [min(w.block) for w in minimal_sensitive_blocks(table, x)
               if len(w.block) == 1]
    return min(singles) if singles else None


def _classical_bs_at(f, x):
    """Block sensitivity at a binary x with flip blocks, by enumeration."""
    n, idx = f.arity, x.bin_index()
    blocks = []
    for mask in range(1, 1 << n):
        if f.value_at_index(idx ^ mask) != f.value_at_index(idx):
            blocks.append(frozenset(p for p in range(n) if mask >> (n - 1 - p) & 1))
    return R.max_disjoint(blocks)


# Both tests run on the paths a table of its size takes and on those of
# large tables (``both_paths``): certificate sizes built a slab of two
# axes at a time, and the u-model's levels grown in uint64 arrays.

@pytest.mark.parametrize("n", ARITIES)
def test_pointwise_arrays(both_paths, n):
    for _ in both_paths:
        for bits in _tables(n):
            _check_pointwise(n, bits)


@pytest.mark.parametrize("n", ARITIES)
def test_summaries_match_pointwise_maxima(both_paths, n):
    for _ in both_paths:
        for bits in _tables(n):
            _check_summaries(n, bits)


@pytest.mark.parametrize("n", ARITIES)
def test_packing_picks_the_family_of_the_block_count_bound(n):
    # The bound that also counts free positions cuts only branches that
    # cannot strictly beat the best family, so the same one is chosen.
    for bits in _tables(n):
        table = hazard_free_table(BooleanFunction(n, bits))
        forced = _measure_arrays(table).forced
        for x in _inputs(n):
            blocks = uquery.measures._minimal_blocks(
                table, forced, x.trits, table.values[x.code()])
            assert uquery.measures._max_disjoint(blocks) == R.max_disjoint_indices(blocks), (
                n, bits, x)


def _check_pointwise(n, bits):
    table = hazard_free_table(BooleanFunction(n, bits))
    arrays = _measure_arrays(table)
    ref = R.full_table(bits, n) if n <= 3 else None
    for x in _inputs(n):
        code = x.code()
        size = int(arrays.certificate[code])
        sens = int(arrays.sensitivity[code])
        assert size == certificate_u_at(table, x).size, x
        assert sens == sensitivity_u_at(table, x), x
        if ref is not None:
            assert size == R.certificate_at(ref, n, x.trits), x
            assert sens == R.sensitivity_at(ref, n, x.trits), x
        # The pruning bound of the bs scans holds at every input.
        bs, _ = block_sensitivity_u_at(table, x)
        assert bs <= int(arrays.block_bound[code]) == min(size, sens + (n - sens) // 2)


def _check_summaries(n, bits):
    f = BooleanFunction(n, bits)
    table = hazard_free_table(f)
    xs = _inputs(n)

    s_u, s_x, s_var = _sensitivity_scan(table)
    want = _lex_max((sensitivity_u_at(table, x), x) for x in xs)
    assert (s_u, s_x) == want
    assert s_var == (_first_sensitive_variable(table, s_x) if s_u else None)

    certs = certificate_summary(table)
    blocks = block_summary(table)
    pointwise_bs = {x: block_sensitivity_u_at(table, x) for x in xs}
    for v in (0, 1, 2):
        members = [x for x in xs if table.values[x.code()] == v]
        if not members:
            assert certs.attaining[v] is None and certs.witnesses[v] is None
            assert blocks.attaining[v] is None and blocks.by_value[v] == 0
            continue
        size, x = _lex_max((certificate_u_at(table, x).size, x) for x in members)
        assert (certs.attaining[v], certs.witnesses[v]) == (x, certificate_u_at(table, x))
        assert (certs.c_u_0, certs.c_u_1, certs.c_u_uval)[v] == size
        count, x = _lex_max((pointwise_bs[x][0], x) for x in members)
        assert (blocks.by_value[v], blocks.attaining[v]) == (count, x)
        assert blocks.families[v] == pointwise_bs[x][1]
    count, x = _lex_max((pointwise_bs[x][0], x) for x in xs)
    assert (blocks.bs_u, blocks.attaining_global) == (count, x)
    assert blocks.family_global == pointwise_bs[x][1]
    assert certs.c_u == max(certs.c_u_0, certs.c_u_1)

    classical = standard_measures(table)
    binary = [x for x in xs if x.is_binary()]
    s, x = _lex_max((sensitivity_u_at(table, x), x) for x in binary)
    assert (classical.s, classical.s_attaining) == (s, x)
    assert classical.s_variable == (_first_sensitive_variable(table, x) if s else None)
    c, x = _lex_max((certificate_u_at(table, x).size, x) for x in binary)
    assert (classical.c, classical.c_attaining) == (c, x)
    assert classical.c_witness == certificate_u_at(table, x)
    bs, x = _lex_max((_classical_bs_at(f, x), x) for x in binary)
    assert (classical.bs, classical.bs_attaining) == (bs, x)
    assert len(classical.bs_family) == bs
    assert validate_block_family(table, x, classical.bs_family)
    assert all(w.altered.is_binary() for w in classical.bs_family)
    if n <= 3:
        assert (classical.s, classical.bs, classical.c) == R.classical_measures(bits, n)


def _corrupted(table):
    """The table wrong at its all-u entry, as the verify harness builds
    to test itself."""
    values = bytearray(table.values)
    values[-1] = (values[-1] + 1) % 3
    return HazardFreeTable(table.function, bytes(values))


def _mixed_batch(n, count, seed):
    """``count`` tables of arity n for a batch: every third a constant
    one, every third from the second a seeded one corrupted at its all-u
    entry (``_corrupted``), the rest seeded."""
    rng = random.Random(seed)
    tables = []
    for i in range(count):
        bits = rng.getrandbits(1 << n)
        if i % 3 == 0:
            bits = 0 if i % 2 else (1 << (1 << n)) - 1
        table = hazard_free_table(BooleanFunction(n, bits))
        tables.append(_corrupted(table) if i % 3 == 1 else table)
    return tables


_ARRAY_FIELDS = ("certificate", "sensitivity", "block_bound")


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_batched_arrays_match_one_table_and_the_reference(both_paths, n):
    """The arrays of a batch, every table at n <= 3 and 100 mixed ones
    from n = 4 on, equal those of each table tabulated alone and the
    reference kernels', on either path: the second builds the
    certificates a slab of two axes at a time.  Each table keeps its
    forced cells as a read-only uint8 row of ceil(4**n / 8) bytes, the
    row ``_forced_bits`` gives the table alone."""
    tables = ([hazard_free_table(BooleanFunction(n, bits)) for bits in _tables(n)] if n <= 3
              else _mixed_batch(n, 100, 4600 + n))
    for _ in both_paths:
        batch = uquery.measures._tabulate(tables)
        assert len(batch) == len(tables)
        for table, arrays in zip(tables, batch):
            (alone,) = uquery.measures._tabulate([table])
            for name in _ARRAY_FIELDS:
                got, want = getattr(arrays, name), getattr(alone, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            forced = arrays.forced
            assert forced.dtype == np.uint8 and forced.shape == (-(-4 ** n // 8),)
            assert not forced.flags.writeable and np.array_equal(forced, alone.forced)
            assert np.array_equal(forced, uquery.depth._forced_bits([table], (0, 1, 2))[0])
            assert np.array_equal(arrays.certificate, R.certificate_sizes(arrays.forced, n))
            assert np.array_equal(arrays.sensitivity, R.sensitivity_array(table.grid).reshape(-1))


def test_the_memo_is_keyed_by_table_content(monkeypatch, capsys):
    """Two tables of equal content, built separately, share one memo
    entry of measure arrays; and two solves of one function in one
    process price its budget, the block summary, once."""
    uquery.measures._tabulated.clear()
    f = generate("random:8:1")
    first, second = hazard_free_table(f), hazard_free_table(f)
    assert first is not second
    assert _measure_arrays(first) is _measure_arrays(second)

    original, priced = uquery.measures._block_summary, []

    def counted(table, arrays):
        priced.append(table.function)
        return original(table, arrays)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "uquery" and getattr(module, "_block_summary", None) is original:
            monkeypatch.setattr(module, "_block_summary", counted)
    uquery.measures._tabulated.clear()
    for _ in range(2):
        assert uquery.cli.main(["solve", "random:8:1", "01u10u1u"]) == 0
    assert "output = " in capsys.readouterr().out
    assert priced == [f]


def test_certificates_on_a_table_that_is_no_extension():
    """On a table corrupted at its all-u entry, as the verify harness
    builds to test itself, a cell is forced when the completions of its
    *s by 0s and 1s agree, and a certificate reports their value, which
    can differ from the table's at x."""
    differs = 0
    for n, bits in _all_small():
        table = _corrupted(hazard_free_table(BooleanFunction(n, bits)))
        for x in _inputs(n):
            w = certificate_u_at(table, x)
            cells = w.assignment.cells
            stars = [p for p in range(n) if cells[p] == STAR]
            for fill in product((0, 1), repeat=len(stars)):
                y = list(cells)
                for p, b in zip(stars, fill):
                    y[p] = b
                assert table.values[TernaryString(tuple(y)).code()] == w.value, (bits, x)
            differs += w.value != table.values[x.code()]
    assert differs


def test_pointwise_sensitivity_follows_the_array_on_corrupted_tables():
    """On a table corrupted at its all-u entry the u setting alone no
    longer decides a position; the pointwise count still reads the rule
    of the s_u array, so the s_u witness variable agrees with the count."""
    for n, bits in _all_small():
        table = _corrupted(hazard_free_table(BooleanFunction(n, bits)))
        sens = _measure_arrays(table).sensitivity
        for x in _inputs(n):
            assert sensitivity_u_at(table, x) == sens[x.code()], (bits, x)


def test_array_size_is_capped(monkeypatch):
    """Every reader of the per-table arrays obeys the cap its table was
    built under, and an explicit cap is the limit whatever the default."""
    f = generate("maj:3")
    table = hazard_free_table(f)
    capped = HazardFreeTable(f, table.values, cap=2)
    readers = (
        block_summary, certificate_summary, _sensitivity_scan, standard_measures,
        measure_report,
        lambda t: certificate_u_at(t, "010"),
        lambda t: minimal_sensitive_blocks(t, "010"),
        lambda t: block_sensitivity_u_at(t, "010"),
        lambda t: algorithm1_solve(t, Oracle("010")),
    )
    for read in readers:
        with pytest.raises(ArityCapError):
            read(capped)
    blocks = minimal_sensitive_blocks(table, "010")
    packing = block_sensitivity_u_at(table, "010")
    monkeypatch.setattr(uquery.measures, "DEFAULT_SEARCH_CAP", 2)
    with pytest.raises(ArityCapError):
        minimal_sensitive_blocks(table, "010")
    raised = hazard_free_table(f, cap=3)
    assert measure_report(raised).bs_u == 3
    assert algorithm1_solve(raised, Oracle("010")).output == 0
    assert minimal_sensitive_blocks(raised, "010") == blocks
    assert block_sensitivity_u_at(raised, "010") == packing


# sha256 of the sorted-key JSON of measure_report(f, with_witnesses=True), one
# line per table, over every table with n <= 3 and 200 seeded n = 4 tables.
# Recorded from the input-by-input scans the arrays replaced.
REPORT_DIGEST = "31654c0b21ff13febf75714caff0588224116858e0a5c702d9e8f72d586a2354"


def _pinned_tables():
    for n, bits in _all_small():
        yield BooleanFunction(n, bits)
    rng = random.Random(20241)
    for _ in range(200):
        yield BooleanFunction(4, rng.getrandbits(16))


def test_reports_byte_identical():
    digest = hashlib.sha256()
    for f in _pinned_tables():
        report = measure_report(hazard_free_table(f), with_witnesses=True).to_json_dict()
        digest.update(json.dumps(report, sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == REPORT_DIGEST


def test_the_memo_keeps_the_last_table_alone():
    """The memo of measure arrays holds one entry: measuring a second
    table drops the first table's, whose arrays are then tabulated
    afresh, equal to those dropped."""
    uquery.measures._tabulated.clear()
    first, second = (hazard_free_table(generate(spec)) for spec in ("maj:3", "random:5:2"))
    arrays = _measure_arrays(first)
    assert list(uquery.measures._tabulated) == [first]
    measure_report(second)
    assert list(uquery.measures._tabulated) == [second]
    again = _measure_arrays(first)
    assert again is not arrays and list(uquery.measures._tabulated) == [first]
    for name in _ARRAY_FIELDS + ("forced",):
        assert np.array_equal(getattr(again, name), getattr(arrays, name)), name


def test_measure_report_builds_the_forced_table_once(monkeypatch):
    """A report on a fresh table builds the forced cells of the u-model
    once, for the measure arrays, whose readers share them and whose
    bytes the u-model depth search copies into its L_0; the classical
    search builds its own.  Every module binding of the builder counts,
    each table of a batch once."""
    original = uquery.depth._forced_bits
    calls = []

    def counted(tables, answers):
        calls.extend(answers for _ in tables)
        return original(tables, answers)

    bindings = [module for name, module in sys.modules.items()
                if name.split(".")[0] == "uquery"
                and getattr(module, "_forced_bits", None) is original]
    assert uquery.depth in bindings
    for module in bindings:
        monkeypatch.setattr(module, "_forced_bits", counted)
    uquery.measures._tabulated.clear()
    f = BooleanFunction(5, random.Random(41).getrandbits(32))
    measure_report(hazard_free_table(f), with_witnesses=True)
    assert sorted(calls) == [(0, 1), (0, 1, 2)]


def test_the_arrays_keep_the_forced_cells_as_bytes():
    """The arrays keep the u-model's L_0 as a read-only uint8 row of the
    bytes of its bitset, a bit per cell of {0, 1, u, *}^n by base-4 code:
    the row ``_forced_bits`` gives, below and above 2**16 cells.  A
    report and a search started from it leave it as it was; the search
    takes its bytes as well, and refuses bytes of another length."""
    for spec in ("or:1", "and:2", "maj:3", "random:5:2", "random:8:1"):
        table = hazard_free_table(generate(spec))
        n = table.arity
        forced = _measure_arrays(table).forced
        assert forced.dtype == np.uint8 and forced.shape == (-(-4 ** n // 8),)
        assert not forced.flags.writeable
        assert np.array_equal(forced, uquery.depth._forced_bits([table], (0, 1, 2))[0])
        before = forced.tobytes()
        measure_report(table, with_witnesses=True)
        searched = query_complexity_u(table)
        assert query_complexity_u(table, forced=forced) == searched
        assert query_complexity_u(table, forced=before) == searched
        assert _measure_arrays(table).forced is forced and forced.tobytes() == before
        for wrong in (forced[:-1], before + b"\0"):
            with pytest.raises(ValueError, match="bytes"):
                query_complexity_u(table, forced=wrong)


def test_tabulating_keeps_no_byte_per_cell():
    """Only the certificate sizes are unpacked a byte per cell of
    {0, 1, u, *}^n, while they are built: at n = 10 building the arrays
    peaks below 1.75 bytes per cell, and they keep below 0.5, a bit per
    cell for the forced cells and 3 bytes per ternary input."""
    table = hazard_free_table(generate("random:10:1"))
    uquery.measures._tabulated.clear()
    tracemalloc.start()
    try:
        uquery.measures._tabulate([table])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = 4 ** table.arity
    assert peak < 1.75 * cells and kept < 0.5 * cells, (peak / cells, kept / cells)


def test_a_table_built_from_a_bytearray_stores_bytes():
    """A table built from a writable buffer keeps its values as bytes: its
    grid is read-only, and its report, tabulated afresh, is the one of
    the table built from bytes."""
    for spec in ("maj:3", "random:5:2"):
        f = generate(spec)
        table = hazard_free_table(f)
        copy = HazardFreeTable(f, bytearray(table.values))
        assert type(copy.values) is bytes and not copy.grid.flags.writeable
        with pytest.raises(ValueError):
            copy.grid[(0,) * f.arity] = 1
        uquery.measures._tabulated.clear()
        assert measure_report(copy, with_witnesses=True) \
            == measure_report(table, with_witnesses=True)


def test_certificate_slabs_keep_no_byte_per_cell():
    """From n = 10 on, the certificate sizes are built a slab of the
    forced bits at a time, so no array of a byte per cell of
    {0, 1, u, *}^n exists: at n = 12 building the arrays peaks below
    0.75 bytes per cell, where one such array alone is 1."""
    table = hazard_free_table(generate("random:12:1"))
    uquery.measures._tabulated.clear()
    tracemalloc.start()
    try:
        uquery.measures._tabulate([table])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 4 ** table.arity, peak / 4 ** table.arity


# ---------------------------------------------------------------------------
# The kernels against those they replaced, kept in reference.py.

DIFFERENTIAL_ARITIES = (1, 2, 3, 4, 5, 6, 7, 8)


def _check_certificate_slabs(table, prefixes):
    n = table.arity
    forced = uquery.depth._forced_bits([table], (0, 1, 2))
    want = R.certificate_sizes(forced.tobytes(), n)
    for prefix in prefixes:
        (got,) = uquery.measures._certificate_sizes(forced, n, prefix)
        assert got.dtype == want.dtype and np.array_equal(got, want), prefix


@pytest.mark.parametrize("n", DIFFERENTIAL_ARITIES)
def test_certificate_slabs_match_the_whole_array_transform(n):
    # Every split: the whole array (prefix 0), or slabs of 2 to n - 1 axes.
    for bits in _tables(n):
        _check_certificate_slabs(hazard_free_table(BooleanFunction(n, bits)),
                                 range(max(1, n - 1)))


def test_certificate_slabs_at_every_split_at_arity_12():
    _check_certificate_slabs(hazard_free_table(generate("random:12:1")), range(11))


def _check_sensitivity(table):
    want = R.sensitivity_array(table.grid).reshape(-1)
    got = _measure_arrays(table).sensitivity
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", DIFFERENTIAL_ARITIES)
def test_sensitivity_array_matches_the_layer_loop(n):
    for bits in _tables(n):
        table = hazard_free_table(BooleanFunction(n, bits))
        _check_sensitivity(table)
        _check_sensitivity(_corrupted(table))


def test_sensitivity_array_matches_the_layer_loop_at_arity_12():
    table = hazard_free_table(generate("random:12:1"))
    _check_sensitivity(table)
    _check_sensitivity(_corrupted(table))


def _check_scans(table, every_input):
    """The seeded scan behind ``block_summary``, ``standard_measures`` and
    ``block_sensitivity_u_at`` gives the (size, input, family) of the
    linear scan per value class: over every input, over the binary ones,
    and at each input alone (every one, or a seeded sample)."""
    n = table.arity
    arrays = _measure_arrays(table)
    bound = arrays.block_bound
    want = R.packing_scan(table, arrays, range(3 ** n), bound.tolist())
    blocks = block_summary(table)
    for v in (0, 1, 2):
        got = blocks.attaining[v] and (blocks.by_value[v], blocks.attaining[v],
                                       blocks.families[v])
        assert got == want[v], v
    assert (blocks.bs_u, blocks.attaining_global, blocks.family_global) == _overall(want)

    binary = [x.code() for x in _inputs(n) if x.is_binary()]
    want = _overall(R.packing_scan(table, arrays, binary, bound[binary].tolist()))
    classical = standard_measures(table)
    assert (classical.bs, classical.bs_attaining, classical.bs_family) == want

    codes = range(3 ** n)
    if not every_input:
        codes = random.Random(n).sample(codes, 40)
    for code in codes:
        size, _, family = R.packing_scan(table, arrays, [code], [int(bound[code])])[
            table.values[code]]
        assert block_sensitivity_u_at(table, TernaryString.from_code(code, n)) \
            == (size, family), code


@pytest.mark.parametrize("n", DIFFERENTIAL_ARITIES)
def test_seeded_scans_match_the_linear_scan(n):
    for bits in _tables(n):
        _check_scans(hazard_free_table(BooleanFunction(n, bits)), every_input=n <= 3)


# mind:4 has a value class that its first packing does not settle.
@pytest.mark.parametrize("spec", ["mind:4", "maj:7", "ind:2", "random:12:1"])
def test_seeded_scans_match_the_linear_scan_on_specs(spec):
    _check_scans(hazard_free_table(generate(spec)), every_input=False)


# Tables with a value class that its first packing does not settle, so the
# scan goes on to the inputs that could still win: 12 of the 274 such
# tables at n = 4 and 6 seeded ones at n = 5 (none of the seeded tables
# above has one).
UNSETTLED = [(4, bits) for bits in (232, 4471, 6135, 11135, 16215, 22295, 35040,
                                    43967, 50655, 55424, 59520, 61943)] \
    + [(5, bits) for bits in (421478318, 1441853747, 283161472, 4003985375,
                              3823773663, 4086374401)]


@pytest.mark.parametrize("window", [None, 5], ids=["window", "tiny-window"])
def test_seeded_scans_past_an_unsettled_class(monkeypatch, window):
    # A tiny window makes the search cross windows, and restart inside one.
    if window is not None:
        monkeypatch.setattr(uquery.measures, "_SCAN_WINDOW", window)
    uquery.measures._tabulated.clear()
    for n, bits in UNSETTLED:
        _check_scans(hazard_free_table(BooleanFunction(n, bits)), every_input=False)
    _check_scans(hazard_free_table(generate("mind:4")), every_input=False)
    uquery.measures._tabulated.clear()


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_seeded_scans_under_looser_bounds(n):
    """The scan is exact under any bound on bs: with random bounds raised
    by one, seeds are often not settled and inputs before them tie with
    their packing, and the linear scan under the tight bounds agrees."""
    rng = np.random.default_rng(n)
    for bits in _tables(n):
        table = hazard_free_table(BooleanFunction(n, bits))
        arrays = _measure_arrays(table)
        tight = arrays.block_bound
        raised = np.minimum(tight + rng.integers(0, 2, tight.size, dtype=np.uint8), n)
        loose = dataclasses.replace(arrays, block_bound=raised, blocks=None)
        want = R.packing_scan(table, arrays, range(3 ** n), tight.tolist())
        assert uquery.measures._packing_scan(table, loose) == want, bits
        binary = uquery.measures._binary_codes(n)
        want = R.packing_scan(table, arrays, binary.tolist(), tight[binary].tolist())
        assert uquery.measures._packing_scan(table, loose, binary) == want, bits


@pytest.mark.parametrize("n", range(1, 13))
def test_block_lattice_matches_the_loop(n):
    got, want = uquery.measures._block_lattice(n), R.block_lattice(n)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
