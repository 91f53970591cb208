"""Verification harness: suites, populations, and determinism."""

import copy
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import reference as R
import uquery.algorithms
import uquery.check
import uquery.core
import uquery.depth
import uquery.measures
import uquery.verification
from uquery.core import (
    UNKNOWN,
    BooleanFunction,
    HazardFreeTable,
    downward_closure,
    hazard_free_table,
    unate_orientation,
)
from uquery.depth import query_complexity, query_complexity_u
from uquery.measures import measure_report
from uquery.verification import (
    SUITES,
    CheckRecord,
    VerificationReport,
    monotone_functions,
    run_suite,
)


def test_suite_names():
    assert SUITES == ("core", "algorithm1", "monotone", "closure",
                      "reduction")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nosuch")
    with pytest.raises(ValueError):
        run_suite("core", ns=(0,))
    with pytest.raises(ValueError):
        run_suite("core", ns=(5,))


def test_population_counts():
    assert [len(monotone_functions(n)) for n in (1, 2, 3, 4)] \
        == [3, 6, 20, 168]
    unate = [sum(unate_orientation(BooleanFunction(n, bits)) is not None
                 for bits in range(1 << (1 << n))) for n in (1, 2, 3)]
    assert unate == [4, 14, 104]
    # monotone functions really are monotone and pairwise distinct
    fs = monotone_functions(3)
    assert len({f.bits for f in fs}) == 20


def test_core_suite_small():
    report = run_suite("core", ns=(1, 2))
    assert report.passed
    assert report.suite == "core"
    by_check = {r.check: r for r in report.records}
    assert by_check["kleene-tables"].cases == 21
    assert by_check["exact-depths"].cases == 6
    assert by_check["extension-matches-resolutions"].cases == 156
    assert by_check["refinement-monotone"].cases == 192
    for link in ("s<=s_u", "bs<=bs_u", "C<=C_u", "s_u<=bs_u",
                 "C_u<=bs_u*s_u", "C_u<=D_u", "bs_u<=D_u",
                 "bs_u<=max(C_u,C_uu)", "C_uu<=2*C_u", "C_uu<=D_u",
                 "D<=C*bs", "D<=D_u", "D_u<=n", "witness-integrity"):
        record = by_check[link]
        assert record.passed and record.failures == 0
        assert record.cases == 20  # every nondegenerate-or-not table twice

    inventory = by_check["bs_u-exceeds-C_u"]
    assert inventory.passed
    assert inventory.details == {"flagged": {"n=1": 0, "n=2": 0}}


def test_certificate_bound_exceptions_catalogued():
    # at three variables exactly 80 tables exceed the settled-certificate
    # bound, the least being table:e0:3; the harness treats that exact
    # inventory as the expected state and fails on any drift
    report = run_suite("core", ns=(3,))
    assert report.passed
    inventory = {r.check: r for r in report.records}["bs_u-exceeds-C_u"]
    assert inventory.failures == 80
    assert inventory.details["flagged"] == {"n=3": 80}
    assert inventory.details["least"] == "table:e0:3"


def test_algorithm1_suite_small():
    report = run_suite("algorithm1", ns=(1, 2))
    assert report.passed
    by_check = {r.check: r.cases for r in report.records}
    # 4 + 16 functions, 3 + 9 hidden inputs each
    assert by_check == {"solver-correct": 156, "solver-within-budget": 156,
                        "solver-final-claims": 156}


def test_monotone_suite_small():
    report = run_suite("monotone", ns=(1, 2))
    assert report.passed
    by_check = {r.check: r.cases for r in report.records}
    assert by_check["mind-depths"] == 1
    assert by_check["monotone-population"] == 11
    assert by_check["monotone-depth-bracket"] == 9
    assert by_check["monotone-simulation"] == 63   # 3*3 + 6*9
    assert by_check["unate-simulation"] == 138     # 4*3 + 14*9


def test_closure_suite_small():
    report = run_suite("closure", ns=(1, 2))
    assert report.passed
    by_check = {r.check: r.cases for r in report.records}
    assert by_check == {"closure-pointwise": 72, "closure-depth": 20}


def test_reduction_suite():
    report = run_suite("reduction")
    assert report.passed
    by_check = {r.check: r for r in report.records}
    assert by_check["or-via-indexing"].cases == 20  # 4 + 16 or inputs
    assert by_check["or-reduction-cost"].cases == 2


def test_sampling_extends_population():
    report = run_suite("core", ns=(1,), samples=5, seed=1)
    assert report.passed
    record = {r.check: r for r in report.records}["s<=s_u"]
    assert record.cases == 9  # 4 exhaustive + 5 sampled
    assert report.parameters["samples"] == 5
    assert report.parameters["seed"] == 1
    assert report.parameters["sample_arity"] == 4


def test_sampling_is_seeded():
    a = run_suite("core", ns=(1,), samples=8, seed=3)
    b = run_suite("core", ns=(1,), samples=8, seed=3)
    strip = lambda rep: [r.to_json_dict() for r in rep.records]
    assert strip(a) == strip(b)
    assert a.parameters["sample_arity"] == b.parameters["sample_arity"] == 4


@pytest.mark.parametrize("suite, ns", [("algorithm1", (1, 2)),
                                       ("core", (3,))],
                         ids=["algorithm1", "core"])
def test_worker_count_does_not_change_records(suite, ns):
    # core at n = 3 carries the 80 bs_u-exceeds-C_u failures and their
    # first counterexample across chunk merges
    one = run_suite(suite, ns=ns, workers=1)
    two = run_suite(suite, ns=ns, workers=2)
    assert [r.to_json_dict() for r in one.records] \
        == [r.to_json_dict() for r in two.records]
    assert one.parameters["workers"] == 1
    assert two.parameters["workers"] == 2


def test_report_serialization():
    report = run_suite("reduction")
    d = report.to_json_dict()
    assert d["suite"] == "reduction"
    assert d["passed"] is True
    assert isinstance(d["duration_seconds"], float)
    assert d["parameters"]["ns"] == [1, 2, 3]
    first = d["records"][0]
    assert set(first) >= {"check", "passed", "cases", "failures", "note"}


def test_record_fields():
    record = CheckRecord(check="x", passed=False, cases=3, failures=1,
                         note="n", counterexample={"input": "0"},
                         details={"k": 1})
    d = record.to_json_dict()
    assert d["counterexample"] == {"input": "0"}
    assert d["details"] == {"k": 1}
    report = VerificationReport(
        suite="core", parameters={}, records=(record,), passed=False,
        duration_seconds=0.0)
    assert not report.passed


def test_witness_problems_reach_the_classical_witnesses():
    f = BooleanFunction(3, 0b11101000)  # maj:3
    table = hazard_free_table(f)
    report = measure_report(table, with_witnesses=True)
    problems = uquery.check._witness_problems
    assert problems(table, report) is None

    def broken(**edits):
        w = copy.deepcopy(report.witnesses)
        for key, fields in edits.items():
            w[key].update(fields)
        return problems(table, dataclasses.replace(report, witnesses=w))

    assert broken(s={"input": "000"}) == "s input attains a different sensitivity"
    assert broken(s={"variable": None}) == "s witness names no variable"
    assert broken(bs={"blocks": [[1]], "altered": ["101"]}) \
        == "bs family size differs from the reported value"
    assert broken(bs={"altered": ["101", "001"]}) == "bs family fails validation"
    assert broken(C={"certificate": "0**"}) \
        == "C certificate size differs from the reported value"
    assert broken(C={"certificate": "01*"}) == "C certificate conflicts with its input"
    assert broken(D={"depth": 2}) == "classical tree depth differs from the reported value"
    # the checks keep their order: u-model witnesses before classical ones
    assert broken(s_u={"input": "000"}, s={"input": "000"}) \
        == "s_u input attains a different sensitivity"
    assert broken(C={"certificate": "01*"}, D={"depth": 2}) \
        == "C certificate conflicts with its input"
    # an input of another length is a defect, not a crash or a pass
    assert broken(C_u={"input": "01"}) == "C_u input has the wrong length"
    assert broken(bs_u={"input": "u"}) == "bs_u input has the wrong length"
    assert broken(s={"input": "0101"}) == "s input has the wrong length"
    for base in ("01", "0101"):
        assert not uquery.check.validate_block_family(table, base, ())


def test_survivor_prefers_the_least_one_valued_input():
    table = hazard_free_table(BooleanFunction(2, 0b1000))  # and:2
    survivor = uquery.check._survivor
    # 11 is the only 1-valued input; 00 is the least 0-valued one
    assert str(survivor(table, ())) == "11"
    assert str(survivor(table, ((2, 0),))) == "00"
    assert str(survivor(table, ((1, UNKNOWN),))) == "u0"
    assert survivor(table, ((2, UNKNOWN), (1, UNKNOWN))) is None


def test_survivor_matches_the_reference_scan():
    # every table with n <= 3 against every set of answers, each in a
    # shuffled query order
    rng = random.Random(7)
    survivor = uquery.check._survivor
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            table = hazard_free_table(BooleanFunction(n, bits))
            ref = R.full_table(bits, n)
            for cells in product((0, 1, UNKNOWN, None), repeat=n):
                transcript = [(p + 1, c) for p, c in enumerate(cells)
                              if c is not None]
                rng.shuffle(transcript)
                want = R.survivor(ref, transcript)
                got = survivor(table, tuple(transcript))
                assert (got.trits if got is not None else None) == want


def _faulty_record(monkeypatch, name, fault, check, problem):
    """Put ``fault`` in place of ``uquery.algorithms.<name>``, sweep the
    algorithm1 suite at n = 1, 2, and check its ``check`` record against
    a tally over the reference solver's runs.  ``problem(f, run, want)``
    says how the faulty solver fails the run on a table whose reference
    value is ``want``: None when it passes, else the counterexample's
    fields after the function and the input.  A constant table is
    answered before any step or budget, so no fault reaches it."""
    failures, expected = 0, None
    for n in (1, 2):
        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, bits)
            if f.is_constant():
                continue
            table = hazard_free_table(f)
            ref = R.full_table(bits, n)
            for hidden in R.ternary_strings(n):
                text = "".join("01u"[t] for t in hidden)
                run = R.solve_by_scan(table, uquery.algorithms.Oracle(text))
                fields = problem(f, run, ref[hidden])
                if fields is None:
                    continue
                failures += 1
                if expected is None:
                    expected = {"function": f.to_spec(), "input": text, **fields}

    monkeypatch.setattr(uquery.algorithms, name, fault)
    report = run_suite("algorithm1", ns=(1, 2), workers=1)
    record = {r.check: r for r in report.records}[check]
    assert not record.passed and not report.passed
    assert record.cases == 156
    assert 0 < failures == record.failures
    assert record.counterexample == expected


def test_final_claims_fail_on_an_early_u(monkeypatch):
    # A solver that answers u after its first answer leaves survivors;
    # the row must fail and name the least one of the first bad run.
    real = uquery.algorithms._algorithm1_step

    def early_u(table, cells, stage):
        if stage is not None:
            return UNKNOWN
        stage, todo = real(table, cells, stage)
        return stage, todo[:1]

    def problem(f, run, want):
        bad = R.survivor(R.full_table(f.bits, f.arity), run.transcript[:1])
        return None if bad is None else {"survivor": "".join("01u"[t] for t in bad)}

    _faulty_record(monkeypatch, "_algorithm1_step", early_u,
                   "solver-final-claims", problem)


def test_correct_fails_on_a_flipped_output(monkeypatch):
    # A solver that swaps the outputs 0 and 1 is wrong wherever the
    # extension is resolved.
    real = uquery.algorithms._algorithm1_step

    def flipped(table, cells, stage):
        step = real(table, cells, stage)
        return 1 - step if step in (0, 1) else step

    def problem(f, run, want):
        got = 1 - run.output if run.output in (0, 1) else run.output
        return None if got == want else {"got": "01u"[got], "expected": "01u"[want]}

    _faulty_record(monkeypatch, "_algorithm1_step", flipped,
                   "solver-correct", problem)


def test_within_budget_fails_on_a_lowered_budget(monkeypatch):
    # Every run at n <= 3 stays at least one query below its budget, so
    # the budget is lowered by 2 for some runs to exceed it.
    real = uquery.algorithms._cost_budget

    def lowered(table):
        return real(table) - 2

    def problem(f, run, want):
        budget = run.bound - 2
        return None if run.queries <= budget else {"queries": run.queries, "budget": budget}

    _faulty_record(monkeypatch, "_cost_budget", lowered,
                   "solver-within-budget", problem)


def _records_digest(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        records = [r.to_json_dict() for r in report.records]
        digest.update(json.dumps(records, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# sha256 of the sorted-key JSON of the records of
# run_suite("all", ns=(1, 2, 3), samples=5, workers=1); covers the
# exhaustive and the sampled populations of every suite.  Both digests
# were recorded before the checks tallied through _row and _fold.
VERIFY_DIGEST = "56a1542e5a8d94398799a69982598d0c9a374784ec898fabd20816c83e97ee24"

# The same, one line per suite at ns=(1, 2, 3), with every table the
# harness builds corrupted at its all-u entry, so that 17 checks fail:
# pins every counterexample dict and which failure is reported first.
FAILING_VERIFY_DIGEST = "586c2100185999213f30c28e10691cd5044a2ed2523c7106af5f1940d6712ef7"


def test_verify_records_byte_identical():
    report = run_suite("all", ns=(1, 2, 3), samples=5, workers=1)
    assert _records_digest([report]) == VERIFY_DIGEST


def test_split_batches_keep_the_records_and_the_kernels(monkeypatch):
    """With the batch cap at 3, every population's tables go in batches
    of three and a shorter last one; the records are still the pinned
    ones, and every table's measure arrays, depths and trees are those
    it gets alone."""
    V = uquery.verification
    monkeypatch.setattr(V, "_BATCH", 3)
    run, batches = V._run_kernels, []

    def recorded(states, kinds):
        run(states, kinds)
        batches.append([(state.table, state.arrays, state.searched) for state in states])

    monkeypatch.setattr(V, "_run_kernels", recorded)
    report = run_suite("all", ns=(1, 2, 3), samples=5, workers=1)
    assert _records_digest([report]) == VERIFY_DIGEST
    assert sorted({len(batch) for batch in batches}) == [1, 2, 3]
    for table, arrays, searched in (entry for batch in batches for entry in batch):
        assert searched == (query_complexity(table), query_complexity_u(table))
        (alone,) = uquery.measures._tabulate([table])
        assert arrays.forced == alone.forced
        for name in ("certificate", "sensitivity", "block_bound"):
            assert np.array_equal(getattr(arrays, name), getattr(alone, name)), name


def _corrupt_tables(monkeypatch) -> None:
    """Make every table the harness builds wrong at its all-u entry."""
    build = uquery.verification.hazard_free_table

    def corrupted(f, *args, **kwargs):
        table = build(f, *args, **kwargs)
        values = bytearray(table.values)
        values[-1] = (values[-1] + 1) % 3
        return HazardFreeTable(table.function, bytes(values))

    monkeypatch.setattr(uquery.verification, "hazard_free_table", corrupted)


def test_failing_verify_records_byte_identical(monkeypatch):
    _corrupt_tables(monkeypatch)
    reports = [run_suite(suite, ns=(1, 2, 3), workers=1) for suite in SUITES]
    assert sum(r.failures > 0 for rep in reports for r in rep.records) == 17
    assert _records_digest(reports) == FAILING_VERIFY_DIGEST


# The same failures reaching sampled arity-4 tables: the records of
# run_suite("core", ns=ns, samples=5, workers=1) with every table
# corrupted, each ns digested alone.  At ns=(4,) the first
# counterexamples lie on a sampled table, so the order in which the
# resolution and refinement scans meet failures there is pinned too.
# Both were recorded before those scans read per-arity plans.
FAILING_SAMPLED_DIGESTS = {
    (1, 2, 3): "6990778314a47054bf91382bf48049fd41e31b212b5533d19d50fd58e645e8fe",
    (4,): "be9391cc221a426ebab293e15a7db5dba47ca7bdf6dadfc42f1dba614b298763",
}


def test_failing_sampled_records_byte_identical(monkeypatch):
    _corrupt_tables(monkeypatch)
    assert {ns: _records_digest([run_suite("core", ns=ns, samples=5, workers=1)])
            for ns in FAILING_SAMPLED_DIGESTS} == FAILING_SAMPLED_DIGESTS


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_plans_match_the_reference_enumerations(n):
    """Per ternary code, the resolution plan lists the truth-table
    indices ``reference.resolution_eval`` reads, in its order, and the
    refinement plan the codes of a brute-force product over the code's
    u positions, in product order."""

    class Reads:
        """Truth bits that record each index read and answer 0 there, so
        that no read ends the enumeration early."""

        def __init__(self):
            self.indices = []

        def __rshift__(self, idx):
            self.indices.append(idx)
            return 0

    resolution = uquery.check._resolution_plan(n)
    refinement = uquery.check._refinement_plan(n)
    assert len(resolution) == len(refinement) == 3 ** n
    for code, x in enumerate(R.ternary_strings(n)):  # code order
        reads = Reads()
        R.resolution_eval(reads, n, x)
        assert resolution[code] == tuple(reads.indices), x
        spots = [p for p in range(n) if x[p] == R.U]
        refined = []
        for fill in product((0, 1, R.U), repeat=len(spots)):
            y = list(x)
            for p, t in zip(spots, fill):
                y[p] = t
            refined.append(int("".join(map(str, y)), 3))
        assert refinement[code] == tuple(refined), x


def test_importing_builds_no_plan_and_no_inputs():
    """The scan plans and the input tuples are built on a sweep's first
    use of an arity, never on import, so the CLI starts without them."""
    script = (
        "import uquery.cli, uquery.verification as V\n"
        "caches = (V._resolution_plans, V._refinement_plans,\n"
        "          V._ternary_inputs, V._binary_inputs)\n"
        "print(*(c.cache_info().currsize for c in caches))\n"
        "V.run_suite('all', ns=(1,), workers=1)\n"
        "print(*(c.cache_info().currsize for c in caches))\n")
    env = dict(os.environ)
    src = str(Path(uquery.verification.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, timeout=120, env=env, check=True)
    # After the sweep: the plans and ternary inputs of arity 1, and the
    # binary inputs of arity 1 (closure) and 2 and 4 (the or reduction).
    assert child.stdout.splitlines() == ["0 0 0 0", "1 1 1 3"]


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupted"])
def test_all_gives_the_records_of_each_suite_run_alone(monkeypatch, corrupt):
    """``all`` sweeps the full population once for core, algorithm1 and
    closure, on one state per table; its records are still those of the
    five suites run one by one, counterexamples included."""
    if corrupt:
        _corrupt_tables(monkeypatch)
    for samples, workers in product((0, 5), (1, 2)):
        shared = run_suite("all", ns=(1, 2, 3), samples=samples, workers=workers)
        alone = [record for suite in SUITES
                 for record in run_suite(suite, ns=(1, 2, 3), samples=samples,
                                         workers=workers).records]
        assert list(shared.records) == alone, (samples, workers)
        if corrupt and not samples:
            assert sum(r.failures > 0 for r in shared.records) == 17


def _count_table_work(monkeypatch) -> dict[str, Counter]:
    """Per function, the calls through every module binding of the table
    builder and of the pricing of the two summaries; the tables that the
    batched depth search, the entry of every D and D_u search, takes in
    each model, counted under "D" and "D_u"; and those that the batched
    build of the measure arrays takes."""
    counts = {"D": Counter(), "D_u": Counter()}
    for owner, name in ((uquery.core, "hazard_free_table"),
                        (uquery.depth, "_optimal_trees"),
                        (uquery.measures, "_tabulate"),
                        (uquery.measures, "_block_summary"),
                        (uquery.measures, "_certificate_summary")):
        original = getattr(owner, name)

        def counted(first, *args, original=original, name=name, **kwargs):
            if name == "_optimal_trees":
                counts["D" if len(args[0]) == 2 else "D_u"].update(t.function for t in first)
            elif name == "_tabulate":
                counts[name].update(t.function for t in first)
            else:
                counts[name][first if isinstance(first, BooleanFunction) else first.function] += 1
            return original(first, *args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "uquery" and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        counts.setdefault(name, Counter())
    return counts


def test_all_builds_searches_and_prices_each_shared_table_once(monkeypatch):
    """Beyond the reduction suite and the fixed rows of core and monotone,
    ``all`` at n = 3 builds each of the 256 tables once, searches its D
    and its D_u once, builds its measure arrays once and prices its
    block and certificate summaries once, the monotone check included;
    the closure check also builds and searches the table of each
    distinct downward closure once, as the sweep is one chunk.  The
    searches are counted per table at the batch entry, which the
    one-table searches go through too."""
    counts = _count_table_work(monkeypatch)
    V = uquery.verification

    def tally(run) -> dict[str, Counter]:
        for counter in counts.values():
            counter.clear()
        uquery.measures._tabulated.clear()
        run()
        return {name: counter.copy() for name, counter in counts.items()}

    def rest():
        run_suite("reduction", ns=(3,), workers=1)
        V._kleene_rows()
        V._depth_rows(V._EXACT_DEPTHS, "exact-depths")
        V._depth_rows(V._MIND_DEPTHS, "mind-depths")

    others = tally(rest)
    whole = tally(lambda: run_suite("all", ns=(3,), workers=1))
    shared = Counter(BooleanFunction(3, bits) for bits in range(256))
    closures = Counter({downward_closure(f) for f in shared})
    for name in ("hazard_free_table", "D"):
        assert whole[name] == others[name] + shared + closures, name
    for name in ("D_u", "_tabulate", "_block_summary", "_certificate_summary"):
        assert whole[name] == others[name] + shared, name


# sha256 of the records of run_suite("monotone", ns=(1, 2, 3, 4),
# workers=1) and of run_suite("all", ns=(1, 2, 3, 4), samples=5,
# workers=2), each digested alone: the only pins on the monotone
# check's own arity-4 population.
ARITY_4_DIGESTS = {
    "monotone": "6dc8740e5653256c73f59175f38d6fcb3af910c69ddc25f3ee446fa7cfde8e48",
    "all": "7eece31c7131ec9f597b818cf283f6423c21ac484600fe84d92619457c031618",
}


def test_arity_4_monotone_records_byte_identical():
    monotone = run_suite("monotone", ns=(1, 2, 3, 4), workers=1)
    everything = run_suite("all", ns=(1, 2, 3, 4), samples=5, workers=2)
    assert {"monotone": _records_digest([monotone]),
            "all": _records_digest([everything])} == ARITY_4_DIGESTS


@pytest.mark.parametrize("workers, cpus, started", [
    (16, 64, 4),    # four chunks, one per table of arity 1
    (16, 3, 3),     # three CPUs
    (16, None, None),  # an unknown CPU count is one: no pool
    (2, 64, 2),     # as many as asked for
])
def test_the_pool_starts_no_more_processes_than_chunks_or_cpus(
        monkeypatch, workers, cpus, started):
    """A fork pool starts every process at its first submit, so the
    pool is sized to the chunks and the CPUs; the report keeps the
    worker count asked for."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(uquery.verification, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(uquery.verification.os, "cpu_count", lambda: cpus)
    report = run_suite("closure", ns=(1,), workers=workers)
    assert pools == ([] if started is None else [started])
    assert report.parameters["workers"] == workers
    assert report.records == run_suite("closure", ns=(1,), workers=1).records
