"""Core types: ternary strings, assignments, functions, extensions."""

import hashlib
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as R
from uquery import (
    ArityCapError,
    BooleanFunction,
    PartialAssignment,
    STAR,
    SpecError,
    TernaryString,
    UNKNOWN,
    as_ternary,
    dependent_variables,
    downward_closure,
    generate,
    hazard_free_table,
    is_monotone,
    is_nondegenerate,
    parse_spec,
    resolutions,
    unate_orientation,
)


def test_ternary_parse_and_str():
    x = as_ternary("01u")
    assert x.trits == (0, 1, 2)
    assert str(x) == "01u"
    assert as_ternary((0, 1, 2)) == x
    assert as_ternary(x) is x


def test_ternary_rejects_bad_literals():
    with pytest.raises(ValueError):
        as_ternary("01x")
    with pytest.raises(ValueError):
        TernaryString((0, 3))
    with pytest.raises(ValueError):
        TernaryString(())


@pytest.mark.parametrize("bad", [3, -1, "0", None, [0]])
def test_ternary_rejects_every_non_trit_with_value_error(bad):
    # Unhashable elements too: no TypeError escapes the trit test.
    with pytest.raises(ValueError, match="trits must be 0, 1 or 2"):
        TernaryString((0, bad, 1))


def test_code_roundtrip_is_lexicographic():
    # base-3 codes enumerate strings in lex order under 0 < 1 < u
    seen = []
    for code in range(27):
        x = TernaryString.from_code(code, 3)
        assert x.code() == code
        seen.append(x.trits)
    assert seen == sorted(seen)


@pytest.mark.parametrize("code", [9, 10, 100, -1, -9])
def test_from_code_rejects_codes_outside_the_range(code):
    with pytest.raises(ValueError):
        TernaryString.from_code(code, 2)
    assert str(TernaryString.from_code(8, 2)) == "uu"


def test_bin_index_msb_first():
    assert as_ternary("10").bin_index() == 2
    assert as_ternary("011").bin_index() == 3


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_ternary_string_roundtrip(trits):
    x = TernaryString(tuple(trits))
    assert as_ternary(str(x)) == x
    assert TernaryString.from_code(x.code(), len(trits)) == x


def test_partial_assignment_basics():
    pa = PartialAssignment.parse("0*u1")
    assert pa.size == 3
    assert pa.domain() == {1, 3, 4}
    assert str(pa) == "0*u1"
    assert pa.is_consistent("00u1")
    assert pa.is_consistent("01u1")
    assert not pa.is_consistent("0011")  # u cell constrains to u


def test_partial_assignment_restriction():
    pa = PartialAssignment.restriction(as_ternary("01u"), (1, 3))
    assert str(pa) == "0*u"
    assert str(PartialAssignment.restriction(as_ternary("01u"), ())) == "***"


@pytest.mark.parametrize("var", [0, -1, 4, 5])
def test_restriction_rejects_variables_outside_the_arity(var):
    with pytest.raises(ValueError):
        PartialAssignment.restriction(as_ternary("01u"), [1, var])


def test_resolutions():
    rs = {str(y) for y in resolutions(as_ternary("u1u"))}
    assert rs == {"010", "011", "110", "111"}
    assert [str(y) for y in resolutions(as_ternary("01"))] == ["01"]


def test_function_index_convention():
    f = generate("or:2")
    # variable 1 is the most significant bit of the truth-table index
    assert f.value_at_index(0b10) == 1
    assert f.evaluate("10") == 1
    assert f.evaluate("00") == 0
    with pytest.raises(ValueError):
        f.evaluate("0u")


def test_spec_roundtrip_and_hex_padding():
    assert generate("or:2").to_spec() == "table:7:2"
    # one-variable tables pad to a whole hex digit from the low end
    negation = BooleanFunction(1, 0b01)
    assert negation.to_spec() == "table:8:1"
    assert generate("table:8:1") == negation
    for spec in ("and:3", "parity:3", "maj:3", "ind:1", "mind:2"):
        f = generate(spec)
        assert generate(f.to_spec()) == f


@pytest.mark.parametrize("n", range(1, 17))
def test_hex_matches_the_entry_by_entry_loops(n):
    rng = random.Random(1000 + n)
    for _ in range(20 if n <= 12 else 3):
        f = BooleanFunction(n, rng.getrandbits(1 << n))
        text = f.to_hex()
        assert text == R.to_hex(f.bits, n)
        assert BooleanFunction.from_hex(text, n) == f
        assert R.from_hex(text, n) == f.bits


def test_parse_spec_metadata():
    meta = parse_spec("ind:2")
    assert meta == {"family": "ind", "params": {"n": 2}, "arity": 6}
    assert parse_spec("mind:2")["arity"] == 4
    assert parse_spec("random:3:42")["params"] == {"n": 3, "seed": 42}


def test_bad_specs():
    # Numbers are ASCII digits and hex digits only: no sign, space,
    # underscore or base prefix, which int() would otherwise take.
    for spec in ("nosuch:1", "or", "or:0", "or:x", "maj:2", "mind:3",
                 "table:zz:2", "table:7", "random:3",
                 "table:-8:3", "table:0x08:4", "table:+008:4", "table:0_08:4",
                 "table: 008:4", "maj:+3", "maj: 3", "or:2_0", "random:3:-5"):
        with pytest.raises(SpecError):
            generate(spec)
    # leading zeros and uppercase hex stay accepted, and print canonically
    assert generate("maj:03") == generate("maj:3")
    assert generate("random:03:05") == generate("random:3:5")
    assert generate("table:E8:3").to_spec() == "table:e8:3"
    assert generate("table:0008:04").to_spec() == "table:0008:4"


@pytest.mark.parametrize("spec,name", [
    ("random:3:-1", "seed"), ("maj:-3", "n"), ("random:-3:1", "n"), ("table:e8:-3", "n"),
])
def test_signed_spec_integers_name_the_rule(spec, name):
    # They are integers; the rule they break is the digits-only one.
    with pytest.raises(SpecError) as caught:
        generate(spec)
    assert str(caught.value) == f"{name} in spec {spec!r} must be a non-negative decimal integer"


def test_random_spec_is_seeded():
    assert generate("random:3:42") == generate("random:3:42")
    assert generate("random:3:42") != generate("random:3:43")


def test_indexing_semantics():
    # addressing bits pick the target: f(a, y0, y1) = y[a]
    f = generate("ind:1")
    assert f.arity == 3
    for a in (0, 1):
        for y0 in (0, 1):
            for y1 in (0, 1):
                assert f.evaluate((a, y0, y1)) == (y0, y1)[a]
    assert f.to_spec() == "table:35:3"


def test_monotone_indexing_is_monotone():
    f = generate("mind:2")
    assert f.arity == 4
    assert is_monotone(f)
    assert f.to_spec() == "table:035f:4"


def test_caps():
    with pytest.raises(ArityCapError):
        generate("or:17")
    with pytest.raises(ArityCapError):
        generate("or:5", cap=4)
    assert generate("or:5", cap=5).arity == 5


def test_table_matches_the_axis_merge():
    # Every table at n <= 4, n = 1 and 2 among them with fewer than 8
    # truth bits in their one byte, then seeded ones up to n = 14.
    functions = [BooleanFunction(n, bits) for n in range(1, 5) for bits in range(1 << (1 << n))]
    rng = random.Random(3)
    functions += [BooleanFunction(n, rng.getrandbits(1 << n)) for n in range(5, 15) for _ in range(2)]
    functions += [generate(spec) for spec in ("random:8:1", "random:12:1", "or:12", "and:9")]
    for f in functions:
        assert hazard_free_table(f).values == R.merged_table(f.bits, f.arity), f.to_spec()


# sha256 of the values of every table at n = 1..4, in order of n then bits.
ALL_TABLES_DIGEST = "ce1aa3ca4b4625a1969650701ccf5f2ee034b3bd68ff0d0ba64ac8ff3e91b6bc"


def test_every_table_to_arity_4_has_the_pinned_digest():
    digest = hashlib.sha256()
    for n in range(1, 5):
        for bits in range(1 << (1 << n)):
            digest.update(hazard_free_table(BooleanFunction(n, bits)).values)
    assert digest.hexdigest() == ALL_TABLES_DIGEST


def test_extension_matches_brute_force():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            table = hazard_free_table(BooleanFunction(n, bits))
            want = R.full_table(bits, n)
            for x in R.ternary_strings(n):
                assert table.evaluate(x) == want[x], (n, bits, x)


def test_extension_agrees_with_kleene_connectives():
    t_and = hazard_free_table(generate("and:2"))
    t_or = hazard_free_table(generate("or:2"))
    t_not = hazard_free_table(generate("table:8:1"))
    for pair, want in R.KLEENE_AND.items():
        assert t_and.evaluate(pair) == want
    for pair, want in R.KLEENE_OR.items():
        assert t_or.evaluate(pair) == want
    for trit, want in R.KLEENE_NOT.items():
        assert t_not.evaluate((trit,)) == want


def test_refinement_monotonicity():
    # resolving a u never flips a settled value
    for bits in range(256):
        table = hazard_free_table(BooleanFunction(3, bits))
        for x in R.ternary_strings(3):
            v = table.evaluate(x)
            if v == UNKNOWN:
                continue
            for p in range(3):
                if x[p] != UNKNOWN:
                    continue
                for d in (0, 1):
                    y = list(x)
                    y[p] = d
                    assert table.evaluate(tuple(y)) == v


def test_grid_is_a_read_only_view_of_the_values():
    for n in range(1, 7):
        table = hazard_free_table(generate(f"random:{n}:{n}"))
        grid = table.grid
        assert grid.shape == (3,) * n and grid.dtype == np.uint8
        assert grid.tobytes() == table.values and not grid.flags.owndata
        with pytest.raises(ValueError):
            grid[(0,) * n] = 1
        copy = pickle.loads(pickle.dumps(table))
        assert copy == table and not copy.grid.flags.writeable


def test_a_table_keeps_its_cap_outside_equality():
    f = generate("maj:3")
    table, capped = hazard_free_table(f), hazard_free_table(f, cap=5)
    assert (table.cap, capped.cap) == (None, 5)
    assert capped == table and hash(capped) == hash(table)
    assert pickle.loads(pickle.dumps(capped)).cap == 5


@pytest.mark.parametrize("n", range(1, 7))
def test_least_input_matches_the_reference_scan(n):
    # every table and cell vector at n <= 3, seeded ones at n = 4..6
    rng = random.Random(25 + n)
    if n <= 3:
        tables = range(1 << (1 << n))
        cell_sets = list(itertools.product(range(4), repeat=n))
    else:
        tables = [rng.getrandbits(1 << n) for _ in range(6)]
        cell_sets = [tuple(rng.choice((0, 1, UNKNOWN, STAR, STAR)) for _ in range(n))
                     for _ in range(40)]
    for bits in tables:
        table = hazard_free_table(BooleanFunction(n, bits))
        ref = R.full_table(bits, n)
        for cells in cell_sets:
            for value in (0, 1, UNKNOWN):
                got = table.least_input(cells, value)
                want = R.least_input(ref, cells, value)
                assert (None if got is None else got.trits) == want, (bits, cells, value)


def test_least_input_refuses_cells_of_another_length():
    table = hazard_free_table(generate("maj:3"))
    for cells in ((3, 1), (STAR, 0, 1, 1)):
        with pytest.raises(ValueError):
            table.least_input(cells, 0)


def test_is_monotone_brute():
    for bits in range(16):
        f = BooleanFunction(2, bits)
        want = all(
            f.value_at_index(i) <= f.value_at_index(i | (1 << k))
            for i in range(4) for k in range(2)
        )
        assert is_monotone(f) == want


def _small_and_seeded(counts):
    """(n, bits) for every table with n <= 3, then ``counts[n]`` seeded
    tables at each larger n."""
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            yield n, bits
    rng = random.Random(2024)
    for n, count in counts.items():
        for _ in range(count):
            yield n, rng.getrandbits(1 << n)


def test_influence_helpers_match_definitions():
    for n, bits in _small_and_seeded({4: 200, 5: 20, 6: 5}):
        f = BooleanFunction(n, bits)
        assert dependent_variables(f) == R.dependent_variables(bits, n)
        assert is_monotone(f) == R.is_monotone(bits, n)
        o = unate_orientation(f)
        assert (None if o is None else o.bits) == R.unate_orientation(bits, n)
        assert is_monotone(f) == (o is not None and not any(o.bits))


def test_unate_orientation_validity():
    seen = 0
    for bits in range(256):
        f = BooleanFunction(3, bits)
        o = unate_orientation(f)
        if o is None:
            continue
        seen += 1
        shift = as_ternary(tuple(o.bits)).bin_index()
        shifted = BooleanFunction(
            3, sum(f.value_at_index(i ^ shift) << i for i in range(8)))
        assert is_monotone(shifted)
    assert seen == 104


def test_non_unate_has_no_orientation():
    assert unate_orientation(generate("parity:2")) is None


def test_downward_closure_brute():
    for bits in range(256):
        f = BooleanFunction(3, bits)
        assert downward_closure(f).bits == R.downward_closure_bits(bits, 3)
    g = downward_closure(generate("parity:3"))
    assert is_monotone(g)


def test_degeneracy_helpers():
    f = generate("table:5:2")  # ignores variable 1
    assert dependent_variables(f) == frozenset({2})
    assert not is_nondegenerate(f)
    assert is_nondegenerate(generate("and:2"))
