"""The per-table measure arrays against the pointwise code and the reference.

The arrays give the certificate size, s_u and a block-sensitivity bound
at every input; the summaries read their maxima and lex-least attaining
inputs from them and skip inputs by the bound.  Every check here
recomputes the same quantities input by input through the pointwise
functions (and, at n <= 3, through ``reference.py``): exhaustively for
n <= 3 and on seeded samples for n = 4..6.
"""

import hashlib
import json
import random
import sys
from itertools import product

import pytest

import reference as R
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
from uquery.measures import (
    _measure_arrays,
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
    """Every table of arity n <= 3, else a seeded sample."""
    if n <= 3:
        return [bits for m, bits in _all_small() if m == n]
    rng = random.Random(2007 + n)
    return [rng.getrandbits(1 << n) for _ in range({4: 24, 5: 8, 6: 3}[n])]


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


# Both tests run under both bitset forms of the forced cells the arrays
# are unpacked from: a Python int below 2**16 cells, which the measures
# use up to n = 7, and a uint64 array.

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

    classical = standard_measures(f, table)
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


def test_certificates_on_a_table_that_is_no_extension():
    """On a table corrupted at its all-u entry, as the verify harness
    builds to test itself, a cell is forced when the completions of its
    *s by 0s and 1s agree, and a certificate reports their value, which
    can differ from the table's at x."""
    differs = 0
    for n, bits in _all_small():
        values = bytearray(hazard_free_table(BooleanFunction(n, bits)).values)
        values[-1] = (values[-1] + 1) % 3
        table = HazardFreeTable(BooleanFunction(n, bits), bytes(values))
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
        values = bytearray(hazard_free_table(BooleanFunction(n, bits)).values)
        values[-1] = (values[-1] + 1) % 3
        table = HazardFreeTable(BooleanFunction(n, bits), bytes(values))
        sens = _measure_arrays(table).sensitivity
        for x in _inputs(n):
            assert sensitivity_u_at(table, x) == sens[x.code()], (bits, x)


def test_array_size_is_capped(monkeypatch):
    f = generate("maj:3")
    table = hazard_free_table(f)
    for summary in (block_summary, certificate_summary, _sensitivity_scan):
        with pytest.raises(ArityCapError):
            summary(table, cap=2)
    with pytest.raises(ArityCapError):
        certificate_u_at(table, "010", cap=2)
    with pytest.raises(ArityCapError):
        standard_measures(f, table, cap=2)
    with pytest.raises(ArityCapError):
        measure_report(f, cap=2)
    with pytest.raises(ArityCapError):
        measure_report(f, table=table, cap=2)
    with pytest.raises(ArityCapError):
        algorithm1_solve(table, Oracle("010"), cap=2)
    assert measure_report(f, cap=3).bs_u == 3
    assert algorithm1_solve(table, Oracle("010"), cap=3).output == 0
    # Below the default cap only an explicit cap reaches the arrays, so
    # every reader on these paths must be handed it.
    monkeypatch.setattr(uquery.measures, "DEFAULT_SEARCH_CAP", 2)
    with pytest.raises(ArityCapError):
        minimal_sensitive_blocks(table, "010")
    assert measure_report(f, cap=3).bs_u == 3
    assert algorithm1_solve(table, Oracle("010"), cap=3).output == 0


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
        report = measure_report(f, with_witnesses=True).to_json_dict()
        digest.update(json.dumps(report, sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == REPORT_DIGEST


def test_measure_report_builds_the_forced_table_once(monkeypatch):
    """A report on a fresh table builds the forced cells of the u-model
    once, for the measure arrays, whose readers share them and whose
    cells the u-model depth search packs into its L_0; the classical
    search builds its own.  Every module binding of the builder counts."""
    original = uquery.depth._forced_bits
    calls = []

    def counted(table, answers):
        calls.append(answers)
        return original(table, answers)

    bindings = [module for name, module in sys.modules.items()
                if name.split(".")[0] == "uquery"
                and getattr(module, "_forced_bits", None) is original]
    assert uquery.depth in bindings
    for module in bindings:
        monkeypatch.setattr(module, "_forced_bits", counted)
    uquery.measures._tabulate.cache_clear()
    f = BooleanFunction(5, random.Random(41).getrandbits(32))
    measure_report(f, with_witnesses=True)
    assert sorted(calls) == [(0, 1), (0, 1, 2)]


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
        uquery.measures._tabulate.cache_clear()
        assert measure_report(f, with_witnesses=True, table=copy) \
            == measure_report(f, with_witnesses=True, table=table)


def test_measures_refuse_the_table_of_another_function():
    """A table is read only with the function it extends: another
    function of the same arity or of another one is a ValueError."""
    f = generate("or:2")
    for other in ("and:2", "or:3"):
        table = hazard_free_table(generate(other))
        with pytest.raises(ValueError):
            measure_report(f, table=table)
        with pytest.raises(ValueError):
            standard_measures(f, table)
    assert measure_report(f, table=hazard_free_table(f)) == measure_report(f)
