"""Exhaustive and sampled self-checks behind the verify command.

A suite sweeps a function population, every function at small arity
plus seeded random tables at arity four, and aggregates per-check
results into a report.  Each check's result is a row (cases, failures,
first counterexample): ``_row`` tallies one from per-case outcomes and
``_fold`` adds rows check by check.  Failing records always carry a
concrete witness: the function spec together with the offending input
or the measured numbers.

The ``core``, ``algorithm1`` and ``closure`` suites check one population
(every table at n <= 3, at n = 4 too when exhaustive, and the seeded
sample), and it is swept once, whichever of them run.  Below arity 4 the
``monotone`` suite's functions are in that population too, so its check
rides the same sweep: on a function ``unate_orientation`` rejects it
gives no rows.  Only its arity-4 monotone functions are a population of
their own.  Each function gets one ``_Table``: its hazard-free table,
built once, its measure arrays, its D and D_u searches and Algorithm
1's tree, and the ``core`` report made on them.  A chunk of work runs
its functions in batches of up to ``_BATCH``: a batch's tables go
through the measure arrays, the two depth searches and Algorithm 1's
compile together (``measures._tabulate``, ``depth._optimal_trees``,
whose bitsets lie side by side, and ``algorithms._algorithm1_trees``,
one frontier of answer states), the u-model search and the compile
reading the L_0 the arrays keep.  At n = 3 a table's arrays, D and D_u
take 16 us in a batch of 128, against about 220 us alone, and its
Algorithm 1 tree 12-21 us, against about 105 us stepping one answer
state at a time, all fixed NumPy call cost (timeit, 2-CPU x86-64).  The batch holds only those outputs;
then every requested suite's rows run on each table's state in turn,
in ``SUITES`` order, and the state, with its report, is dropped once
they are done.  The table's arrays enter the memo of measure arrays as
its checks begin, so ``core`` and ``algorithm1`` read one entry and the
budget is priced once; ``core``, ``monotone`` and ``closure`` read the
batch's D, D_u and trees.  So the rows, and the first counterexample of
each check, are those of one table at a time.  A sweep of one suite is
the same sweep with one kind of check.

What depends on the arity alone is built once per arity, on first use:
the ``core`` check's scan plans (``check._resolution_plan`` and
``check._refinement_plan``: per ternary input, the truth-table indices
of its resolutions and the codes of its refinements, in the order the
definitions enumerate them), and the tuples of ternary and binary
inputs that the simulation and closure runs feed their oracles.  The
resolution and refinement checks then read only the truth bits and the
table's values, and build an input's string only for a counterexample.
A chunk of work holds one memo from downward closure to its D, shared
by every table's state, so the ``closure`` check searches each distinct
closure once per chunk; the memo goes with the chunk.

The ``algorithm1`` suite replays no solver run per input.  It reads
every row off the solver's decision tree, compiled with the batch, at
the leaf each input reaches: the output, the query count against the
budget, and the final-state claims.  At a u leaf no 1-valued and no
0-valued input may still agree with the path's answers; each u leaf's
block of the value grid is tested once, from the path alone, never from
the solver's state.  One run of the oracle driver per table, which
steps one answer state at a time, must walk the tree's deepest path.

Populations are swept in a fixed order and rows fold per suite in
submission order, so for fixed parameters a report is deterministic in
everything except its duration field, whatever the worker count and
whichever suites share the sweep: its counterexample is the one a
one-worker sweep of that suite alone meets first.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from random import Random
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from . import core
from .algorithms import (
    Oracle,
    Solver,
    _algorithm1_trees,
    algorithm1_solve,
    downward_closure_solve,
    or_via_ind_reduction,
    tree_solver,
    unate_solver,
)
from .check import _refinement_plan, _resolution_plan, _survivor, _witness_problems
from .core import (
    UNKNOWN,
    BooleanFunction,
    TernaryString,
    as_ternary,
    downward_closure,
    generate,
    hazard_free_table,
    is_monotone,
    unate_orientation,
)
from .depth import _forced_bits, _optimal_trees, query_complexity, query_complexity_u
from .measures import MeasureReport, _remember, _tabulate, measure_report
from .trees import _layer_starts, _leaf_grid

SUITES = ("core", "algorithm1", "monotone", "closure", "reduction")

# Arity bounds: the full sweep stops at 3 (4**n tables) and carries the
# monotone check there; that check's own population, the monotone
# functions, reaches 4 (168 of them), and its unate rows stop at 3.  The
# seeded sample's tables have arity 4.
_FULL_MAX = 3
_MONOTONE_MAX = 4
_UNATE_MAX = 3
_SAMPLE_ARITY = 4

_MONOTONE_COUNTS = {1: 3, 2: 6, 3: 20, 4: 168}


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check over its whole population."""

    check: str
    passed: bool
    cases: int
    failures: int
    note: str = ""
    counterexample: dict | None = None
    details: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check,
            "passed": self.passed,
            "cases": self.cases,
            "failures": self.failures,
            "note": self.note,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.details is not None:
            out["details"] = self.details
        return out


@dataclass(frozen=True)
class VerificationReport:
    """All records of one suite run, plus the parameters that shaped it."""

    suite: str
    parameters: dict
    records: tuple[CheckRecord, ...]
    passed: bool
    duration_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "passed": self.passed,
            "duration_seconds": round(self.duration_seconds, 3),
            "records": [r.to_json_dict() for r in self.records],
        }


# ---------------------------------------------------------------------------
# Populations.


def monotone_functions(arity: int) -> list[BooleanFunction]:
    """Every monotone function of the given arity, in bits order.

    Built recursively: f is monotone iff both restrictions on the first
    variable are and the 0-restriction is pointwise below the other.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    layer = [0, 1]
    for k in range(1, arity + 1):
        half = 1 << (k - 1)
        layer = sorted(
            g0 | (g1 << half)
            for g0 in layer
            for g1 in layer
            if g0 | g1 == g1
        )
    return [BooleanFunction(arity, bits) for bits in layer]


def _sample_bits(arity: int, samples: int, seed: int) -> tuple[int, ...]:
    rng = Random(seed)
    return tuple(rng.getrandbits(1 << arity) for _ in range(samples))


# ---------------------------------------------------------------------------
# Shared helpers.

def _row(problems) -> tuple[int, int, dict | None]:
    """Tally ``problems``, which yields None for each passing case and the
    counterexample dict for each failing one, into (cases, failures,
    first counterexample)."""
    cases = fails = 0
    ce = None
    for problem in problems:
        cases += 1
        if problem is not None:
            fails += 1
            if ce is None:
                ce = problem
    return cases, fails, ce


def _fold(into: dict, rows: dict) -> None:
    """Add ``rows`` into ``into`` check by check, keeping the first
    non-None counterexample; a new check joins at the end."""
    for cid, (cases, fails, ce) in rows.items():
        had_cases, had_fails, had_ce = into.get(cid, (0, 0, None))
        into[cid] = (had_cases + cases, had_fails + fails,
                     ce if had_ce is None else had_ce)


def _trit(v: int) -> str:
    return "01u"[v]


# The scan plans and the inputs depend on the arity alone, so a sweep
# builds each once per arity, on first use.
_resolution_plans = cache(_resolution_plan)
_refinement_plans = cache(_refinement_plan)


@cache
def _ternary_inputs(n: int) -> tuple[TernaryString, ...]:
    """Every ternary input of arity n, in code order."""
    return tuple(TernaryString.from_code(code, n) for code in range(3 ** n))


@cache
def _binary_inputs(n: int) -> tuple[TernaryString, ...]:
    """Every binary input of arity n, in truth-table index order."""
    return tuple(TernaryString(tuple(idx >> (n - 1 - p) & 1 for p in range(n)))
                 for idx in range(1 << n))


def _values_dict(m: MeasureReport) -> dict:
    return {
        "s": m.s, "bs": m.bs, "C": m.C, "D": m.D,
        "s_u": m.s_u, "bs_u": m.bs_u, "C_u": m.C_u,
        "C_uu": m.C_u_uval, "D_u": m.D_u,
    }


# ---------------------------------------------------------------------------
# Per-function checks, grouped by worker kind.


class _Table:
    """One function's state in a sweep, read by every kind of check run
    on it: the hazard-free table, built once, its measure arrays, its D
    and D_u searches and Algorithm 1's tree, made with its batch
    (``_run_kernels``), the ``core`` report, once that check has made
    it, and the chunk's memo of D per downward closure, shared by every
    state of the chunk."""

    def __init__(self, f: BooleanFunction, closure_depths: dict):
        self.f = f
        self.table = hazard_free_table(f)
        self.arrays = None  # the measure arrays, when a kind reads them
        self.searched: tuple = (None, None)  # (D, tree) and (D_u, tree), when a kind reads them
        self.algorithm1 = None  # Algorithm 1's tree, when the algorithm1 kind runs
        self.report: MeasureReport | None = None
        self.closure_depths = closure_depths


def _core_function_rows(state: _Table):
    f, table = state.f, state.table
    n = f.arity
    spec = f.to_spec()
    values = table.values
    m = state.report = measure_report(table, with_witnesses=True, searched=state.searched)

    def resolutions():
        bits = f.bits
        for code, indices in enumerate(_resolution_plans(n)):
            seen = 0  # bit b set: some resolution takes the value b
            for idx in indices:
                seen |= 1 << (bits >> idx & 1)
                if seen == 3:
                    break
            want = seen - 1  # only 0s: 0, only 1s: 1, both: u
            yield None if values[code] == want else {
                "function": spec, "input": str(TernaryString.from_code(code, n)),
                "got": _trit(values[code]), "expected": _trit(want),
            }

    def refinements():
        for code, refined in enumerate(_refinement_plans(n)):
            v = values[code]
            if v == UNKNOWN:
                continue
            for r in refined:
                yield None if values[r] == v else {
                    "function": spec, "input": str(TernaryString.from_code(code, n)),
                    "refinement": str(TernaryString.from_code(r, n)),
                }

    rows = {"extension-matches-resolutions": _row(resolutions()),
            "refinement-monotone": _row(refinements())}

    links = (
        ("s<=s_u", m.s <= m.s_u),
        ("bs<=bs_u", m.bs <= m.bs_u),
        ("C<=C_u", m.C <= m.C_u),
        ("s_u<=bs_u", m.s_u <= m.bs_u),
        ("C_u<=bs_u*s_u", m.C_u <= m.bs_u * m.s_u),
        ("C_u<=D_u", m.C_u <= m.D_u),
        ("bs_u<=D_u", m.bs_u <= m.D_u),
        ("bs_u<=max(C_u,C_uu)", m.bs_u <= max(m.C_u, m.C_u_uval)),
        ("C_uu<=2*C_u", m.C_u_uval <= 2 * m.C_u),
        ("C_uu<=D_u", m.C_u_uval <= m.D_u),
        ("D<=C*bs", m.D <= m.C * m.bs),
        ("D<=D_u", m.D <= m.D_u),
        ("D_u<=n", m.D_u <= n),
    )
    for cid, ok in links:
        rows[cid] = _row([None if ok else {"function": spec,
                                           "values": _values_dict(m)}])
    rows["bs_u-exceeds-C_u"] = _row([
        {"function": spec, "bs_u": m.bs_u, "C_u": m.C_u, "C_uu": m.C_u_uval}
        if m.bs_u > m.C_u else None])
    problem = _witness_problems(table, m)
    rows["witness-integrity"] = _row([
        {"function": spec, "witness": problem} if problem else None])
    return rows


def _alg1_function_rows(state: _Table):
    """The solver's rows, read off Algorithm 1's tree, compiled with the
    batch.  The run on an input is the path to the leaf it reaches: the
    leaf's value is the output and its depth the query count.  The
    inputs of a u leaf share its path, so its block is tested for
    survivors once.  The oracle driver runs once, on the least input of
    the deepest leaf; it must walk that path, and its bound is the
    budget."""
    f, table = state.f, state.table
    n = f.arity
    spec = f.to_spec()
    tree = state.algorithm1
    size = len(tree.var)
    leaves = _leaf_grid(tree, n, np.arange(size))
    node = leaves.grid.reshape(-1)  # per input, the leaf it reaches
    starts = _layer_starts(tree)
    depth = np.repeat(np.arange(len(starts) - 1), np.diff(starts))[node]
    output = tree.leaf[node]

    hidden = TernaryString.from_code(int(depth.argmax()), n)
    res = algorithm1_solve(table, Oracle(hidden))
    walk = Oracle(hidden)
    if (res.output, res.queries, res.transcript) != \
            (tree_solver(tree)(walk), walk.query_count, walk.transcript):
        raise AssertionError(f"{spec}: the solver's run on {hidden} leaves its tree")

    u_leaves = np.flatnonzero((tree.var == 0) & (tree.leaf == UNKNOWN))
    axes, codes = leaves.paths(u_leaves)
    paths = np.stack(np.unravel_index(codes, (3,) * n), axis=1).tolist()
    survivors = {}
    for i, mask, trits in zip(u_leaves.tolist(), axes.tolist(), paths):
        bad = _survivor(table, [(p + 1, trits[p]) for p in range(n) if mask >> p & 1])
        if bad is not None:
            survivors[i] = str(bad)
    claimed = np.zeros(size, dtype=bool)
    claimed[list(survivors)] = True

    values = table.grid.reshape(-1)

    def row(fails: np.ndarray, problem: Callable[[int], dict]):
        count = int(np.count_nonzero(fails))
        if not count:
            return 3 ** n, 0, None
        code = int(fails.argmax())
        return 3 ** n, count, {"function": spec,
                               "input": str(TernaryString.from_code(code, n)),
                               **problem(code)}

    return {
        "solver-correct": row(output != values, lambda code: {
            "got": _trit(output[code]), "expected": _trit(values[code])}),
        "solver-within-budget": row(depth > res.bound, lambda code: {
            "queries": int(depth[code]), "budget": res.bound}),
        "solver-final-claims": row(claimed[node], lambda code: {
            "survivor": survivors[int(node[code])]}),
    }


def _runs_row(spec: str, inputs, solve: Solver, wanted, budget: int,
              show: Callable[[int], object]):
    """Run ``solve`` on each hidden input against the wanted value at the
    same place and ``budget`` queries; ``show`` formats the values that a
    counterexample reports."""
    def runs():
        for hidden, want in zip(inputs, wanted):
            oracle = Oracle(hidden)
            got = solve(oracle)
            yield None if got == want and oracle.query_count <= budget else {
                "function": spec, "input": str(hidden),
                "got": show(got), "expected": show(want),
                "queries": oracle.query_count, "budget": budget,
            }
    return _row(runs())


def _monotone_function_rows(state: _Table):
    """The bracket D <= D_u <= 2D and the two-pass simulation on a
    monotone function, and the oriented simulation on any unate one of
    arity <= 3; a function that is not unate gets no rows.  On a monotone
    function the orientation is all zeros, so the oriented simulation is
    the two-pass one, and one run of it fills both rows."""
    f, table = state.f, state.table
    orientation = unate_orientation(f)
    if orientation is None:
        return {}
    (d, tree_b), (du, _) = state.searched
    rows = {}
    monotone = not any(orientation.bits)  # no variable flipped
    if monotone:
        rows["monotone-depth-bracket"] = _row([
            None if d <= du <= 2 * d
            else {"function": f.to_spec(), "D": d, "D_u": du}])
    names = ("monotone-simulation",) * monotone + ("unate-simulation",) * (f.arity <= _UNATE_MAX)
    if names:
        rows.update(dict.fromkeys(names, _runs_row(
            f.to_spec(), _ternary_inputs(f.arity), unate_solver(f, orientation, tree_b),
            table.values, 2 * d, _trit)))
    return rows


def _closure_function_rows(state: _Table):
    f = state.f
    n = f.arity
    du, ut = state.searched[1]
    g = downward_closure(f)
    dg = state.closure_depths.get(g)
    if dg is None:
        # Built through core's binding, not this module's: the failing-sweep
        # test corrupts the tables of f by patching this module's binding,
        # and its pinned records take D of the closure from g's true
        # extension.
        dg = state.closure_depths[g] = query_complexity(core.hazard_free_table(g))[0]
    spec = f.to_spec()
    return {
        "closure-pointwise": _runs_row(
            spec, _binary_inputs(n), partial(downward_closure_solve, f, tree_solver(ut)),
            map(g.value_at_index, range(1 << n)), du, int),
        "closure-depth": _row([
            None if dg <= du
            else {"function": spec, "closure_depth": dg, "D_u": du}]),
    }


_KINDS = {
    "core": _core_function_rows,
    "algorithm1": _alg1_function_rows,
    "monotone": _monotone_function_rows,
    "closure": _closure_function_rows,
}


# Tables a chunk runs through the batched kernels at a time.  A batch
# holds its kernel outputs, about 3.8 KB a table of arity 4 (tracemalloc),
# 1 KB of it Algorithm 1's tree, until its last table's checks are done:
# batches of 1,024 raised the peak RSS of `verify all --n 1..3 --samples
# 100` by 0.9% over one table at a time, and batches of 128 by 0.3%, at
# about 3 us a table more, before the trees were compiled with the batch,
# which added 1.2% more.
_BATCH = 128

# The kinds of check that read each kernel's outputs.
_READS_ARRAYS = {"core", "algorithm1"}
_READS_D = {"core", "monotone"}
_READS_D_U = {"core", "monotone", "closure"}


def _run_kernels(states: list, kinds) -> None:
    """Build the measure arrays, search D and D_u and compile Algorithm
    1's trees of a batch's tables at once, those of them that ``kinds``
    read, onto their states.  The u-model search and the compile read
    the batch's L_0, whose rows the arrays keep."""
    tables = [state.table for state in states]
    forced = None
    if _READS_ARRAYS.intersection(kinds):
        forced = _forced_bits(tables, (0, 1, UNKNOWN))
        for state, arrays in zip(states, _tabulate(tables, forced)):
            state.arrays = arrays
    d = _optimal_trees(tables, (0, 1)) if _READS_D.intersection(kinds) else [None] * len(states)
    d_u = (_optimal_trees(tables, (0, 1, UNKNOWN), forced) if _READS_D_U.intersection(kinds)
           else [None] * len(states))
    for state, searched in zip(states, zip(d, d_u)):
        state.searched = searched
    if "algorithm1" in kinds:
        for state, tree in zip(states, _algorithm1_trees(tables, forced)):
            state.algorithm1 = tree


def _chunk_worker(payload):
    """Per kind, the rows of a chunk of one population.  The chunk's
    functions go in batches of at most ``_BATCH``: a batch's states are
    built and run through the kernels together, then every kind's checks
    run on each state in order, the table's measure arrays entering the
    memo as its checks begin, and each state is dropped, with its
    report, once its checks are done."""
    kinds, arity, bits_chunk = payload
    agg: dict = {kind: {} for kind in kinds}
    closure_depths: dict = {}
    for start in range(0, len(bits_chunk), _BATCH):
        states = [_Table(BooleanFunction(arity, bits), closure_depths)
                  for bits in bits_chunk[start:start + _BATCH]]
        _run_kernels(states, kinds)
        for i, state in enumerate(states):
            states[i] = None
            if state.arrays is not None:
                _remember(state.table, state.arrays)
            for kind in kinds:
                _fold(agg[kind], _KINDS[kind](state))
    return agg


# ---------------------------------------------------------------------------
# Whole-population checks that need no sweep.

_K_AND = {"00": "0", "01": "0", "0u": "0", "10": "0", "11": "1",
          "1u": "u", "u0": "0", "u1": "u", "uu": "u"}
_K_OR = {"00": "0", "01": "1", "0u": "u", "10": "1", "11": "1",
         "1u": "1", "u0": "u", "u1": "1", "uu": "u"}
_K_NOT = {"0": "1", "1": "0", "u": "u"}

_EXACT_DEPTHS = (
    ("or:1", 1, 1), ("or:2", 2, 2), ("or:3", 3, 3), ("or:4", 4, 4),
    ("ind:1", 2, 3), ("ind:2", 3, 6),
)
_MIND_DEPTHS = (("mind:2", 3, 3),)


def _kleene_rows():
    def entries():
        for spec, expect in (("and:2", _K_AND), ("or:2", _K_OR),
                             ("table:8:1", _K_NOT)):
            table = hazard_free_table(generate(spec))
            for text, val in expect.items():
                got = _trit(table.values[as_ternary(text).code()])
                yield None if got == val else {"function": spec, "input": text,
                                               "got": got, "expected": val}
    return {"kleene-tables": _row(entries())}


def _depth_rows(entries, cid: str):
    def depths():
        for spec, d_want, du_want in entries:
            f = generate(spec)
            table = hazard_free_table(f)
            d, _ = query_complexity(table)
            du, _ = query_complexity_u(table)
            yield None if (d, du) == (d_want, du_want) else {
                "function": spec, "D": d, "D_u": du,
                "expected_D": d_want, "expected_D_u": du_want}
    return {cid: _row(depths())}


def _reduction_rows():
    correct, cost = [], []
    for n in (1, 2):
        m = 1 << n
        table = hazard_free_table(generate(f"ind:{n}"))
        _, tree = query_complexity_u(table)
        solver = tree_solver(tree)
        worst = 0
        for xbits, x in enumerate(_binary_inputs(m)):
            oracle = Oracle(x)
            got = or_via_ind_reduction(n, solver, oracle)
            want = 1 if xbits else 0
            correct.append(None if got == want else {
                "function": f"or:{m}", "input": str(x),
                "got": got, "expected": want,
            })
            worst = max(worst, oracle.query_count)
        # Any sound unresolved-model indexing solver must pay the full
        # classical cost of OR on some input.
        cost.append(None if worst >= m else {
            "function": f"or:{m}", "worst_queries": worst, "required": m})
    return {"or-via-indexing": _row(correct),
            "or-reduction-cost": _row(cost)}


# ---------------------------------------------------------------------------
# Notes shown next to each record.

_NOTES = {
    "kleene-tables": "three-valued and/or/not tables, all 21 entries",
    "exact-depths": "frozen optimal depths for or:1..4, ind:1, ind:2",
    "extension-matches-resolutions":
        "table value equals the agreement of all binary resolutions",
    "refinement-monotone": "a resolved value survives every refinement",
    "s<=s_u": "sensitivity never drops when u inputs join",
    "bs<=bs_u": "block sensitivity never drops when u inputs join",
    "C<=C_u": "certificate size never drops when u inputs join",
    "s_u<=bs_u": "singleton blocks are blocks",
    "C_u<=bs_u*s_u": "certificate size within block sensitivity times sensitivity",
    "C_u<=D_u": "queried positions of a tree certify its answer",
    "bs_u<=D_u": "block sensitivity lower-bounds no deeper than the tree",
    "bs_u<=max(C_u,C_uu)": "block sensitivity within the largest certificate",
    "C_uu<=2*C_u": "an unresolved-value certificate from one 0- and one 1-certificate",
    "C_uu<=D_u": "unresolved-value certificates within tree depth",
    "D<=C*bs": "classical depth within certificate size times block sensitivity",
    "D<=D_u": "resolved inputs only make the task easier",
    "D_u<=n": "querying everything always suffices",
    "bs_u-exceeds-C_u":
        "catalogued exceptions where bs_u tops the resolved-input certificate bound",
    "witness-integrity":
        "reported witnesses revalidated definitionally, trees replayed",
    "solver-correct": "certificate-guided solver output matches the table",
    "solver-within-budget": "distinct queries within bs_1*C_0 + bs_0*C_1",
    "solver-final-claims":
        "no 1-input (then no 0-input) survives when the solver answers u",
    "monotone-population": "recursive enumeration matches the known counts",
    "mind-depths": "frozen optimal depths for the monotone indexing function",
    "monotone-depth-bracket": "D <= D_u <= 2D on monotone functions",
    "monotone-simulation":
        "two classical passes compute the extension within 2D queries",
    "unate-simulation":
        "oriented double pass computes the extension within 2D queries",
    "closure-pointwise":
        "masked solver computes the downward closure within D_u queries",
    "closure-depth": "closure depth within the u-model depth of the source",
    "or-via-indexing": "indexing solver computes or on 2**n bits",
    "or-reduction-cost": "some or input forces 2**n distinct queries",
}


# ---------------------------------------------------------------------------
# Suite assembly.


def _plain_record(cid: str, cases: int, fails: int, ce) -> CheckRecord:
    return CheckRecord(
        check=cid,
        passed=fails == 0,
        cases=cases,
        failures=fails,
        note=_NOTES.get(cid, ""),
        counterexample=ce,
    )


def _inventory_record(merged, total, exhaustive_ns) -> CheckRecord:
    # The one catalogued exception set: bs_u can exceed C_u because the
    # block-sensitivity maximum also ranges over unresolved inputs.
    expected = {1: 0, 2: 0, 3: 80}
    least_spec = "table:e0:3"
    passed = True
    flagged = {}
    counterexample = None
    for (_kind, label, arity), rows in merged.items():
        row = rows["bs_u-exceeds-C_u"]
        name = f"n={arity}" if label == "exhaustive" else f"sampled n={arity}"
        flagged[name] = row[1]
        if label != "exhaustive":
            continue
        if arity in expected and row[1] != expected[arity]:
            passed = False
            counterexample = counterexample or {
                "arity": arity, "flagged": row[1],
                "expected": expected[arity],
            }
        if arity == 3 and row[1]:
            ce = row[2]
            if ce is None or ce.get("function") != least_spec:
                passed = False
                counterexample = counterexample or ce
    details = {"flagged": flagged}
    if 3 in exhaustive_ns:
        details["least"] = least_spec
    return CheckRecord(
        check="bs_u-exceeds-C_u",
        passed=passed,
        cases=total[0],
        failures=total[1],
        note=_NOTES["bs_u-exceeds-C_u"],
        counterexample=counterexample,
        details=details,
    )


def _execute(jobs, workers: int):
    """Run per-function jobs, each a population with the kinds of check
    that read it; fold chunk rows per (kind, label, arity) key in
    submission order."""
    chunks = []
    for kinds, label, arity, bits in jobs:
        if not bits:
            continue
        if workers > 1:
            size = max(1, -(-len(bits) // (workers * 4)))
        else:
            size = len(bits)
        for i in range(0, len(bits), size):
            chunks.append(((label, arity),
                           (kinds, arity, tuple(bits[i:i + size]))))
    # A fork pool starts all of its processes at the first submit, so
    # start no more than there are chunks or CPUs.
    processes = min(workers, len(chunks), os.cpu_count() or 1)
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_chunk_worker,
                                    [payload for _, payload in chunks]))
    else:
        results = [_chunk_worker(payload) for _, payload in chunks]

    merged: dict[tuple, dict] = {}
    for ((label, arity), _payload), by_kind in zip(chunks, results):
        for kind, rows in by_kind.items():
            _fold(merged.setdefault((kind, label, arity), {}), rows)
    return merged


# The parts that check the full population, swept once between them;
# below arity 4 ``monotone`` rides the same sweep.
_SHARED = ("core", "algorithm1", "closure")


def _plan(parts, ns, full_ns, samples, seed):
    """Each part's rows that need no sweep, and the sweep's jobs: the
    full population once for the requested shared parts, with
    ``monotone`` too below arity 4, and the arity-4 monotone functions
    for ``monotone``."""
    parents: dict[str, dict] = {part: {} for part in parts}
    jobs = []
    shared = tuple(part for part in parts if part in _SHARED)
    small = tuple(part for part in parts if part in _SHARED or part == "monotone")
    for n in full_ns:
        kinds = small if n <= _FULL_MAX else shared
        if kinds:
            jobs.append((kinds, "exhaustive", n, tuple(range(1 << (1 << n)))))
    if shared and samples:
        jobs.append((shared, "sampled", _SAMPLE_ARITY,
                     _sample_bits(_SAMPLE_ARITY, samples, seed)))
    if "core" in parts:
        parents["core"].update(_kleene_rows())
        parents["core"].update(_depth_rows(_EXACT_DEPTHS, "exact-depths"))
    if "monotone" in parts:
        parent = parents["monotone"]
        parent.update(_depth_rows(_MIND_DEPTHS, "mind-depths"))
        population = []
        for n in [k for k in ns if k <= _MONOTONE_MAX]:
            pop = monotone_functions(n)
            want = _MONOTONE_COUNTS.get(n)
            population.append(
                None if want is None or len(pop) == want
                else {"arity": n, "count": len(pop), "expected": want})
            population.extend(
                None if is_monotone(f)
                else {"function": f.to_spec(), "monotone": False}
                for f in pop)
            if n > _FULL_MAX:
                jobs.append((("monotone",), "exhaustive", n,
                             tuple(f.bits for f in pop)))
        parent["monotone-population"] = _row(population)
    if "reduction" in parts:
        parents["reduction"].update(_reduction_rows())
    return parents, jobs


def _part_records(part, parent: dict, merged: dict, full_ns) -> list[CheckRecord]:
    """A part's records: its unswept rows, then its swept checks in the
    order they first appear."""
    mine = {key: rows for key, rows in merged.items() if key[0] == part}
    total: dict = {}
    for rows in mine.values():
        _fold(total, rows)

    records = [_plain_record(cid, *row) for cid, row in parent.items()]
    for cid, row in total.items():
        if cid == "bs_u-exceeds-C_u":
            records.append(_inventory_record(mine, row, full_ns))
        else:
            records.append(_plain_record(cid, *row))
    return records


def run_suite(
    suite: str,
    *,
    ns: Sequence[int] = (1, 2, 3),
    samples: int = 0,
    seed: int = 0,
    workers: int | None = None,
    exhaustive: bool = False,
) -> VerificationReport:
    """Sweep one named suite (or all of them) and aggregate the records.

    Full-population parts cover every function with arity in ``ns`` up
    to 3 and, when ``samples`` is positive, that many seeded random
    tables of arity 4.  With ``exhaustive`` set and 4 in ``ns`` they
    additionally sweep all 65536 arity-4 tables.  The
    monotone part checks the unate functions of the full population up
    to arity 3 and the monotone ones of arity 4, never the samples; the
    reduction part uses fixed families only.
    A core, algorithm1 or closure part that would sweep no function is a
    ValueError, not a vacuous pass.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    ns = tuple(sorted(set(ns)))
    if not ns or ns[0] < 1 or ns[-1] > 4:
        raise ValueError("arities must lie in 1..4")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be >= 1")

    parts = list(SUITES) if suite == "all" else [suite]
    full_ns = [n for n in ns if n <= _FULL_MAX]
    if exhaustive and _FULL_MAX + 1 in ns:
        full_ns.append(_FULL_MAX + 1)
    if not full_ns and not samples and any(part in _SHARED for part in parts):
        raise ValueError(
            f"suite {suite} sweeps no function at arities {list(ns)}: its "
            f"tables have n <= {_FULL_MAX}; add --samples, or --exhaustive "
            f"for n = {_FULL_MAX + 1}")

    start = perf_counter()
    parents, jobs = _plan(parts, ns, full_ns, samples, seed)
    merged = _execute(jobs, workers)
    records = [record for part in parts
               for record in _part_records(part, parents[part], merged, full_ns)]
    return VerificationReport(
        suite=suite,
        parameters={
            "ns": list(ns),
            "samples": samples,
            "sample_arity": _SAMPLE_ARITY,
            "seed": seed,
            "workers": workers,
            "exhaustive": exhaustive,
        },
        records=tuple(records),
        passed=all(r.passed for r in records),
        duration_seconds=perf_counter() - start,
    )
