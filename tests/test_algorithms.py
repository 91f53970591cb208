"""Oracle-interactive solvers and model simulations."""

import hashlib
import random
import sys

import numpy as np
import pytest

import reference as R
import uquery
from test_measure_arrays import _mixed_batch
from uquery import (
    BooleanFunction,
    TernaryString,
    downward_closure,
    generate,
    hazard_free_table,
    unate_orientation,
)
from uquery.algorithms import (
    Oracle,
    _algorithm1_trees,
    algorithm1_solve,
    algorithm1_tree,
    downward_closure_solve,
    fill_unknown_oracle,
    indexing_oracle_from_or,
    mask_ones_oracle,
    or_via_ind_reduction,
    transcript_json,
    tree_solver,
    unate_solver,
)
from uquery.core import Orientation
from uquery.depth import _forced_bits, query_complexity, query_complexity_u
from uquery.measures import _tabulate, block_summary, certificate_summary
from uquery.trees import tree_depth, verify_tree


def test_oracle_counts_distinct_queries():
    oracle = Oracle("01u")
    assert oracle.arity == 3
    assert oracle.query(2) == 1
    assert oracle.query(2) == 1  # repeat answered from cache
    assert oracle.query(1) == 0
    assert oracle.query_count == 2
    assert oracle.transcript == ((2, 1), (1, 0))


def test_oracle_rejects_bad_indices():
    oracle = Oracle("01")
    with pytest.raises(ValueError):
        oracle.query(0)
    with pytest.raises(ValueError):
        oracle.query(3)


def test_fill_unknown_oracle():
    wrapped = fill_unknown_oracle(Oracle("u1u"), [0, 0, 1])
    assert [wrapped.query(i) for i in (1, 2, 3)] == [0, 1, 1]


def test_mask_ones_oracle():
    # binary answers: 1 becomes u, 0 stays 0
    wrapped = mask_ones_oracle(Oracle("101"))
    assert [wrapped.query(i) for i in (1, 2, 3)] == [2, 0, 2]


def test_indexing_oracle_from_or():
    # addressing variables read as u; targets forward the inner bits
    inner = Oracle("0100")
    wrapped = indexing_oracle_from_or(inner, 2)
    assert wrapped.arity == 6
    assert [wrapped.query(i) for i in (1, 2)] == [2, 2]
    assert [wrapped.query(i) for i in (3, 4, 5, 6)] == [0, 1, 0, 0]
    # addressing queries cost nothing on the inner oracle
    assert inner.query_count == 4


class _CountingOracle:
    """An Oracle that records how often each index is asked."""

    def __init__(self, hidden: str):
        self._oracle = Oracle(hidden)
        self.arity = self._oracle.arity
        self.asked: dict[int, int] = {}

    def query(self, var: int) -> int:
        self.asked[var] = self.asked.get(var, 0) + 1
        return self._oracle.query(var)


@pytest.mark.parametrize("wrap,hidden", [
    (lambda inner: fill_unknown_oracle(inner, (1, 0, 1)), "u1u"),
    (mask_ones_oracle, "101"),
    (lambda inner: indexing_oracle_from_or(inner, 2), "0110"),
])
def test_wrappers_cache_repeats(wrap, hidden):
    inner = _CountingOracle(hidden)
    wrapped = wrap(inner)
    first = [wrapped.query(i) for i in range(1, wrapped.arity + 1)]
    again = [wrapped.query(i) for i in range(1, wrapped.arity + 1)]
    assert again == first
    assert wrapped.query_count == wrapped.arity
    assert wrapped.transcript == tuple(zip(range(1, wrapped.arity + 1), first))
    assert all(count == 1 for count in inner.asked.values())


def test_frozen_run_and2():
    table = hazard_free_table(generate("and:2"))
    result = algorithm1_solve(table, Oracle("11"))
    assert result.output == 1
    assert result.queries == 2
    assert result.bound == 4
    assert result.transcript == ((1, 1), (2, 1))
    assert result.to_json_dict() == {"output": "1", "queries": 2, "bound": 4}
    assert transcript_json(result.transcript) == [
        {"i": 1, "a": "1"}, {"i": 2, "a": "1"}]


def test_frozen_run_semi_settled():
    # hidden 00u: both resolutions map to 1, so the answer must be 1
    table = hazard_free_table(generate("table:e8:3"))
    result = algorithm1_solve(table, Oracle("00u"))
    assert result.output == 1
    assert result.queries == 3
    assert result.bound == 8


def test_constants_need_no_queries():
    for bits in (0, 0xF):
        table = hazard_free_table(BooleanFunction(2, bits))
        oracle = Oracle("u0")
        result = algorithm1_solve(table, oracle)
        assert result.output == (0 if bits == 0 else 1)
        assert result.queries == 0 and oracle.query_count == 0


def _sweep_functions():
    for n in (1, 2):
        for bits in range(1 << (1 << n)):
            yield n, bits
    rng = random.Random(19)
    for _ in range(12):
        yield 3, rng.getrandbits(8)


@pytest.mark.parametrize("n,bits", list(_sweep_functions()))
def test_solver_sweep(n, bits):
    f = BooleanFunction(n, bits)
    table = hazard_free_table(f)
    ref = R.full_table(bits, n)
    blocks = block_summary(table)
    certs = certificate_summary(table)
    budget = (blocks.by_value[1] * certs.c_u_0
              + blocks.by_value[0] * certs.c_u_1)
    for code in range(3 ** n):
        res = algorithm1_solve(table, Oracle(TernaryString.from_code(code, n)))
        assert res.output == table.values[code]
        assert res.queries <= res.bound == budget
        if res.output == R.U:
            assert R.survivor(ref, res.transcript) is None


# sha256 of repr((output, queries, bound, transcript)) of algorithm1_solve,
# one line per run, over every hidden input of every table with n <= 3 and
# of 30 seeded n = 4 tables.  Recorded from the solver that scanned all
# 3**n decoded inputs per round for the least consistent one.
SOLVE_DIGEST = "e7338cfa683ec6c1801c7740a3d3d1f649bf3d76763fe715d235889d87bc44d6"


def test_solver_runs_byte_identical():
    functions = [BooleanFunction(n, bits) for n in (1, 2, 3)
                 for bits in range(1 << (1 << n))]
    rng = random.Random(5)
    functions += [BooleanFunction(4, rng.getrandbits(16)) for _ in range(30)]
    digest = hashlib.sha256()
    for f in functions:
        table = hazard_free_table(f)
        for code in range(3 ** f.arity):
            res = algorithm1_solve(table, Oracle(TernaryString.from_code(code, f.arity)))
            digest.update(repr((res.output, res.queries, res.bound, res.transcript)).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == SOLVE_DIGEST


def _scan_cases():
    """Every hidden input of every table with n <= 3 and of seeded tables
    at n = 4 and 5, and a seeded sample of hidden inputs at n = 6."""
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            yield BooleanFunction(n, bits), range(3 ** n)
    rng = random.Random(14)
    for n, tables, inputs in ((4, 30, 81), (5, 8, 243), (6, 4, 200)):
        for _ in range(tables):
            yield BooleanFunction(n, rng.getrandbits(1 << n)), sorted(rng.sample(range(3 ** n), inputs))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_solver_matches_the_scan(n):
    for f, codes in _scan_cases():
        if f.arity != n:
            continue
        table = hazard_free_table(f)
        for code in codes:
            hidden = TernaryString.from_code(code, n)
            assert algorithm1_solve(table, Oracle(hidden)) == R.solve_by_scan(table, Oracle(hidden)), \
                (f.to_spec(), str(hidden))


def test_a_solve_decodes_no_more_inputs_than_it_queries(monkeypatch):
    """Once the table's budget is priced, a solve decodes at most one
    input a query: the least consistent inputs are read off the value
    grid, not found among all 3**n decoded inputs.  Every package binding
    of ``TernaryString`` is the class whose ``from_code`` is counted."""
    original = TernaryString.from_code.__func__
    calls = []

    def counted(cls, code, arity):
        calls.append(code)
        return original(cls, code, arity)

    bindings = {module.TernaryString for name, module in sys.modules.items()
                if name.split(".")[0] == "uquery" and hasattr(module, "TernaryString")}
    assert bindings == {uquery.core.TernaryString}
    monkeypatch.setattr(TernaryString, "from_code", classmethod(counted))
    table = hazard_free_table(generate("random:8:1"))
    algorithm1_solve(table, Oracle("0" * 8))  # prices the budget of the table
    calls.clear()
    res = algorithm1_solve(table, Oracle("1u0u1u1u"))
    assert res.queries == 6
    assert len(calls) <= res.queries


def test_budget_is_at_most_twice_cu_bsu():
    for bits in range(256):
        table = hazard_free_table(BooleanFunction(3, bits))
        blocks = block_summary(table)
        certs = certificate_summary(table)
        budget = (blocks.by_value[1] * certs.c_u_0
                  + blocks.by_value[0] * certs.c_u_1)
        assert budget <= 2 * blocks.bs_u * certs.c_u


def test_solver_fallthrough_leaves_no_survivor():
    # parity on a fully unresolved input drains both stages and lands on u
    f = generate("parity:2")
    table = hazard_free_table(f)
    res = algorithm1_solve(table, Oracle("uu"))
    assert res.output == 2 and table.evaluate("uu") == 2
    assert res.transcript == ((1, 2), (2, 2))
    assert R.survivor(R.full_table(f.bits, 2), res.transcript) is None


def test_certificate_solver_matches_extension():
    rng = random.Random(5)
    specs = [BooleanFunction(2, b) for b in range(16)]
    specs += [BooleanFunction(3, rng.getrandbits(8)) for _ in range(10)]
    for f in specs:
        table = hazard_free_table(f)
        for code in range(3 ** f.arity):
            hidden = TernaryString.from_code(code, f.arity)
            oracle = Oracle(hidden)
            assert algorithm1_solve(table, oracle).output == table.evaluate(hidden)
            assert oracle.query_count <= f.arity


def test_tree_solver_matches_extension_within_depth():
    for spec in ("maj:3", "ind:1", "or:3"):
        f = generate(spec)
        table = hazard_free_table(f)
        du, tree = query_complexity_u(table)
        solver = tree_solver(tree)
        for code in range(3 ** f.arity):
            hidden = TernaryString.from_code(code, f.arity)
            oracle = Oracle(hidden)
            assert solver(oracle) == table.evaluate(hidden)
            assert oracle.query_count <= du


def test_monotone_simulation():
    for spec in ("or:3", "and:3", "mind:2"):
        f = generate(spec)
        table = hazard_free_table(f)
        d, tree = query_complexity(table)
        solver = unate_solver(f, Orientation((0,) * f.arity), tree)
        for code in range(3 ** f.arity):
            hidden = TernaryString.from_code(code, f.arity)
            oracle = Oracle(hidden)
            got = solver(oracle)
            assert got == table.evaluate(hidden)
            assert oracle.query_count <= 2 * d


def test_monotone_simulation_rejects_non_monotone():
    f = generate("parity:2")
    _, tree = query_complexity(hazard_free_table(f))
    with pytest.raises(ValueError):
        unate_solver(f, Orientation((0, 0)), tree)


def test_unate_simulation():
    f = generate("table:e8:3")  # unate with all variables inverted
    orientation = unate_orientation(f)
    assert orientation is not None
    table = hazard_free_table(f)
    d, tree = query_complexity(table)
    solver = unate_solver(f, orientation, tree)
    for code in range(27):
        hidden = TernaryString.from_code(code, 3)
        oracle = Oracle(hidden)
        got = solver(oracle)
        assert got == table.evaluate(hidden)
        assert oracle.query_count <= 2 * d


def test_unate_simulation_rejects_bad_orientations():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, bits)
            _, tree = query_complexity(hazard_free_table(f))
            for shift in range(1 << n):
                orientation = Orientation(
                    tuple((shift >> (n - 1 - p)) & 1 for p in range(n)))
                shifted = sum(f.value_at_index(idx ^ shift) << idx
                              for idx in range(1 << n))
                if R.is_monotone(shifted, n):
                    unate_solver(f, orientation, tree)(Oracle("u" * n))
                else:
                    with pytest.raises(ValueError, match="orientation does "
                                       "not make the function monotone"):
                        unate_solver(f, orientation, tree)(Oracle("u" * n))


def test_downward_closure_solver():
    rng = random.Random(23)
    specs = [BooleanFunction(2, b) for b in range(16)]
    specs += [BooleanFunction(3, rng.getrandbits(8)) for _ in range(10)]
    for f in specs:
        table = hazard_free_table(f)
        du, tree = query_complexity_u(table)
        g = downward_closure(f)
        solver = tree_solver(tree)
        for idx in range(1 << f.arity):
            x = format(idx, f"0{f.arity}b")
            oracle = Oracle(x)
            assert downward_closure_solve(f, solver, oracle) \
                == g.value_at_index(idx)
            assert oracle.query_count <= du


def test_or_via_indexing_reduction():
    table = hazard_free_table(generate("ind:2"))
    du, tree = query_complexity_u(table)
    assert du == 6
    solver = tree_solver(tree)
    for idx in range(16):
        x = format(idx, "04b")
        oracle = Oracle(x)
        assert or_via_ind_reduction(2, solver, oracle) == (idx != 0)
    # the all-zero input forces the reduction to read every position
    oracle = Oracle("0000")
    or_via_ind_reduction(2, solver, oracle)
    assert oracle.query_count == 4


def _compile_cases():
    """Every table with n <= 3, and seeded tables at n = 4 to 6."""
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            yield BooleanFunction(n, bits)
    rng = random.Random(17)
    for n, tables in ((4, 20), (5, 6), (6, 3)):
        for _ in range(tables):
            yield BooleanFunction(n, rng.getrandbits(1 << n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_compiled_tree_walks_every_run(n):
    """Walking ``algorithm1_tree`` against an oracle is the oracle driver:
    the same output, query count and transcript on every hidden input.
    The tree computes the extension, within the solver's budget."""
    for f in _compile_cases():
        if f.arity != n:
            continue
        table = hazard_free_table(f)
        tree = algorithm1_tree(table)
        walk = tree_solver(tree)
        for code in range(3 ** n):
            hidden = TernaryString.from_code(code, n)
            res = algorithm1_solve(table, Oracle(hidden))
            oracle = Oracle(hidden)
            assert (walk(oracle), oracle.query_count, oracle.transcript) \
                == (res.output, res.queries, res.transcript), (f.to_spec(), str(hidden))
        assert verify_tree(tree, table) == (True, None)
        assert tree_depth(tree) <= res.bound


def _compiled_together(tables):
    """Algorithm 1's trees of a batch, from the forced bits its measure
    arrays keep a row of each, as the verify harness compiles them."""
    forced = _forced_bits(tables, (0, 1, 2))
    _tabulate(tables, forced)
    return _algorithm1_trees(tables, forced)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_batch_of_every_table_compiles_as_the_reference(n):
    """Every table of arity n <= 3 in one batch: each tree is the one the
    reference compile builds stepping one answer state at a time."""
    tables = [hazard_free_table(BooleanFunction(n, bits)) for bits in range(1 << (1 << n))]
    assert _compiled_together(tables) == [R.algorithm1_tree(table) for table in tables]


@pytest.mark.parametrize("count", [1, 2, 7, 100])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_seeded_batches_compile_as_the_reference(n, count):
    """Seeded batches with constant tables and tables corrupted at their
    all-u entry mixed in (``_mixed_batch``) compile to the reference's
    trees, table by table."""
    tables = _mixed_batch(n, count, 8100 + 10 * n + count)
    assert _compiled_together(tables) == [R.algorithm1_tree(table) for table in tables]


@pytest.mark.parametrize("spec", ["mind:4", "ind:2", "random:8:1"])
def test_a_table_alone_compiles_as_the_reference(spec):
    """A table alone is a batch of one, its forced bits read from the
    memo of measure arrays."""
    table = hazard_free_table(generate(spec))
    assert algorithm1_tree(table) == R.algorithm1_tree(table)


def test_a_round_that_asks_nothing_new_is_refused():
    """A domain inside the asked positions would make a round that asks
    nothing; forced bits claiming that the all-* cell is forced give one
    at the root, and the compile refuses it naming the round's input."""
    table = hazard_free_table(generate("maj:3"))
    with pytest.raises(AssertionError, match="^a round at 000 asks nothing new$"):
        _algorithm1_trees([table], np.full((1, 8), 0xFF, dtype=np.uint8))
