"""Sensitivity, block sensitivity, and certificate measures."""

import random

import pytest

import reference as R
from uquery import BooleanFunction, PartialAssignment, TernaryString, generate, hazard_free_table
from uquery.check import CertificateWitness, validate_block_family, validate_certificate
from uquery.measures import (
    block_sensitivity_u,
    block_sensitivity_u_at,
    block_sensitivity_u_value,
    block_summary,
    certificate_complexity_u,
    certificate_summary,
    certificate_u_at,
    measure_report,
    minimal_sensitive_blocks,
    sensitivity_u,
    sensitivity_u_at,
    standard_measures,
)

# (s, bs, C, s_u, bs_u, C_u, C_u on u-valued inputs)
KNOWN = {
    "and:2": (2, 2, 2, 2, 2, 2, 2),
    "or:2": (2, 2, 2, 2, 2, 2, 2),
    "parity:2": (2, 2, 2, 2, 2, 2, 1),
    "maj:3": (2, 2, 2, 3, 3, 2, 3),
    "ind:1": (2, 2, 2, 3, 3, 2, 3),
    "mind:2": (2, 2, 2, 3, 3, 2, 3),
    "table:e0:3": (2, 2, 2, 3, 3, 2, 3),
    "table:e8:3": (2, 2, 2, 3, 3, 2, 3),
}


@pytest.mark.parametrize("spec,want", sorted(KNOWN.items()))
def test_known_values(spec, want):
    report = measure_report(hazard_free_table(generate(spec)))
    got = (report.s, report.bs, report.C,
           report.s_u, report.bs_u, report.C_u, report.C_u_uval)
    assert got == want


def _sampled_functions():
    for n in (1, 2):
        for bits in range(1 << (1 << n)):
            yield n, bits
    rng = random.Random(7)
    for _ in range(25):
        yield 3, rng.getrandbits(8)


@pytest.mark.parametrize("n,bits", list(_sampled_functions()))
def test_measures_match_brute_force(n, bits):
    f = BooleanFunction(n, bits)
    table = hazard_free_table(f)
    ref = R.full_table(bits, n)

    assert sensitivity_u(table) == R.s_u(ref, n)
    assert block_sensitivity_u(table) == R.bs_u(ref, n)
    for value in (0, 1, 2):
        assert block_sensitivity_u_value(table, value) == R.bs_u(ref, n, value)

    c0, c1, cu = R.certificate_u(ref, n)
    certs = certificate_summary(table)
    assert (certs.c_u_0, certs.c_u_1, certs.c_u_uval) == (c0, c1, cu)
    assert certificate_complexity_u(table) == max(c0, c1)

    s, bs, c = R.classical_measures(bits, n)
    got = standard_measures(table)
    assert (got.s, got.bs, got.c) == (s, bs, c)


def test_pointwise_accessors():
    table = hazard_free_table(generate("maj:3"))
    # uuu is insulated: altering one digit still leaves the value unsettled
    assert sensitivity_u_at(table, "uuu") == 0
    # at u01 every digit admits a value-changing alteration
    assert sensitivity_u_at(table, "u01") == 3
    witness = certificate_u_at(table, "000")
    assert witness.value == 0
    assert len(witness.assignment.domain()) == 2
    bs, family = block_sensitivity_u_at(table, "u01")
    assert bs == 3
    assert validate_block_family(table, "u01", family)


def _definition_tables(sampled):
    """Every table with n <= 3, then seeded samples of the given arities."""
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            yield n, bits
    rng = random.Random(11)
    for n, count in sampled:
        for _ in range(count):
            yield n, rng.getrandbits(1 << n)


def test_minimal_blocks_definition():
    # every reported block is sensitive and has no sensitive proper
    # subset; the order (size, then combinations order) is pinned too,
    # because the packing search picks its family by it
    for n, bits in _definition_tables(((4, 12), (5, 3))):
        table = hazard_free_table(BooleanFunction(n, bits))
        ref = R.full_table(bits, n)
        for x in R.ternary_strings(n):
            # witnesses are 1-based; the oracle reports 0-based positions
            got = [tuple(sorted(p - 1 for p in w.block))
                   for w in minimal_sensitive_blocks(table, x)]
            brute = R.sensitive_blocks(ref, n, x)
            minimal = [tuple(sorted(b)) for b in brute
                       if not any(o < b for o in brute)]
            assert got == minimal, (n, bits, x)


def test_certificate_domain_is_lex_least():
    for n, bits in _definition_tables(((4, 12),)):
        table = hazard_free_table(BooleanFunction(n, bits))
        ref = R.full_table(bits, n)
        for trits in R.ternary_strings(n):
            x = TernaryString(trits)
            witness = certificate_u_at(table, x)
            dom = R.certificate_domain_at(ref, n, trits)
            assert witness.assignment == PartialAssignment.restriction(
                x, (p + 1 for p in dom)), (n, bits, x)
            assert witness.value == ref[trits], (n, bits, x)


def test_block_witnesses_change_the_value():
    table = hazard_free_table(generate("mind:2"))
    summary = block_summary(table)
    assert summary.bs_u == 3
    assert summary.by_value == (2, 2, 3)
    for value in (0, 1, 2):
        base = summary.attaining[value]
        family = summary.families[value]
        assert table.evaluate(base) == value
        assert len(family) == summary.by_value[value]
        assert validate_block_family(table, base, family)
        # families are pairwise disjoint
        seen = set()
        for b in family:
            assert not (seen & b.block)
            seen |= b.block
    assert summary.family_global == summary.families[2]
    assert summary.attaining_global == summary.attaining[2]


def test_certificate_witnesses_fix_the_value():
    for spec in ("maj:3", "ind:1", "parity:2"):
        table = hazard_free_table(generate(spec))
        summary = certificate_summary(table)
        for value, witness in enumerate(summary.witnesses):
            if witness is None:
                continue
            assert witness.value == value
            assert table.evaluate(summary.attaining[value]) == value
            assert validate_certificate(table, witness)


@pytest.mark.parametrize("n", range(1, 7))
def test_validate_certificate_matches_the_enumeration(n):
    # The minimum certificate at every input of every table for n <= 3, and
    # at 20 seeded inputs of 3 seeded tables for n = 4-6; each also with one
    # assigned cell flipped to the next trit, one cell at a time, and with
    # one cell too many.
    rng = random.Random(900 + n)
    tables = range(1 << (1 << n)) if n <= 3 else [rng.getrandbits(1 << n) for _ in range(3)]
    outcomes = set()
    for bits in tables:
        table = hazard_free_table(BooleanFunction(n, bits))
        ref = R.full_table(bits, n)
        inputs = list(R.ternary_strings(n))
        for x in inputs if n <= 3 else rng.sample(inputs, 20):
            witness = certificate_u_at(table, x)
            cells = witness.assignment.cells
            variants = [cells, cells + (3,)] + [
                cells[:p] + ((c + 1) % 3,) + cells[p + 1:] for p, c in enumerate(cells) if c != 3]
            for v in variants:
                got = validate_certificate(table, CertificateWitness(PartialAssignment(v), witness.value))
                assert got == R.certificate_holds(ref, n, v, witness.value)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_tampered_witnesses_fail_validation():
    table = hazard_free_table(generate("or:2"))
    witness = certificate_u_at(table, "00")
    assert validate_certificate(table, witness)
    bad = type(witness)(assignment=witness.assignment, value=1)
    assert not validate_certificate(table, bad)

    bs, family = block_sensitivity_u_at(table, "00")
    assert validate_block_family(table, "00", family)
    assert not validate_block_family(table, "11", family)


def test_bs_u_value_requires_trit():
    table = hazard_free_table(generate("or:2"))
    with pytest.raises(ValueError):
        block_sensitivity_u_value(table, 3)


def test_bs_u_is_max_over_values():
    for bits in range(256):
        table = hazard_free_table(BooleanFunction(3, bits))
        per_value = [block_sensitivity_u_value(table, v) for v in (0, 1, 2)]
        assert block_sensitivity_u(table) == max(per_value)


def test_constant_functions():
    for bits in (0, 0xFF):
        f = BooleanFunction(3, bits)
        report = measure_report(hazard_free_table(f))
        assert (report.s_u, report.bs_u, report.C_u) == (0, 0, 0)
        assert (report.C_u_uval, report.D, report.D_u) == (0, 0, 0)


def test_report_serialization():
    report = measure_report(hazard_free_table(generate("ind:1")), with_witnesses=True)
    d = report.to_json_dict()
    assert d["C_u"] == 2 and d["bs_u"] == 3 and d["D_u"] == 3
    assert d["witnesses"]["C_u_uval"]["certificate"] == "u01"
    text = report.to_text()
    assert "bs_u=3" in text and "C_u=2" in text


def test_bs_u_can_exceed_settled_certificates():
    # the catalogued extremal case: three pairwise-disjoint blocks at a
    # u-valued input, while every settled input has a 2-cell certificate
    table = hazard_free_table(generate("table:e0:3"))
    report = measure_report(table)
    assert report.bs_u == 3 and report.C_u == 2 and report.C_u_uval == 3
    summary = block_summary(table)
    assert table.evaluate(summary.attaining_global) == 2
    assert len(summary.family_global) == 3
    assert validate_block_family(
        table, summary.attaining_global, summary.family_global)
