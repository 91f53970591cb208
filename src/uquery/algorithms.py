"""Oracle-interactive procedures for the u-query model.

The central routine is a deterministic certificate-guided solver that
evaluates the hazard-free extension of a known function on an unknown
input revealed one queried position at a time.  It runs two stages:
the first repeatedly queries a minimum 0-certificate of the least
0-valued input consistent with the answers so far, for as long as one
exists, and the second does the same with 1-certificates of consistent
1-valued inputs.  A stage exits the moment the recorded answers force
a value, and control reaches the answer u only once no 0-valued and no
1-valued input remains consistent, which is what makes that answer
sound.  The least consistent input is the table's own
``least_input``: the answers fix a block of its value grid, whose first
hit in C order is the lex-least, so no round decodes the other inputs.
Every round reveals at least one new position, and the total
number of distinct queries stays within bs_1 * C_0 + bs_0 * C_1.

Algorithm 1 has two implementations, checked against each other: the
verify harness makes the oracle driver walk each compiled tree's
deepest path, and the tests compare them on every hidden input.  The
oracle driver behind ``algorithm1_solve`` runs the scalar step
``_algorithm1_step``, from the answers so far to the next round's
queries or to the output, asking an oracle for each round's answers.
It serves one hidden input, where NumPy's fixed call cost on every
round would outweigh the work, and its rounds are ``certificate_u_at``
calls, which the benchmark's tracer counts as solver rounds.
``algorithm1_tree`` asks for every answer at once: the solver never
queries a position twice, so its runs over all hidden inputs are the
paths of one u-model decision tree.  ``_algorithm1_trees`` compiles
those trees for a batch of tables of one arity, a single table being a
batch of one, from one frontier of (table, answers) states that grows a
layer at a time; the states whose round is done step together through
array lookups (``_algorithm1_steps``).  The verify sweep compiles
batches of 128 tables at n = 3 in 12-21 us a table, where stepping one
state at a time took 105 us a table on average, and 100 tables at n = 4
in 24-42 us a table against 313 us; a table alone pays the batch's
fixed NumPy calls, 0.35 ms on maj:3 against 0.16 ms, and takes 3 ms on
random:8:1 against 21 ms (timeit, 2-CPU x86-64).  The solver is a pure
function of table and oracle and does not audit its final-state claim
itself: the ``algorithm1`` verify suite re-derives it from the tree's u
leaves alone.

Also here: ``unate_solver``, the doubled-tree simulation for unate
functions (monotone ones at the all-zero orientation), checked and
built once per function; the downward-closure wrapper that turns a
u-model solver into a classical one; and the reduction computing OR on
2**n bits through any u-model solver for the indexing function.

Every oracle is one class, ``_CachedOracle``, given its answer rule:
it counts distinct queried positions, and repeats are served from its
cache for free.  ``Oracle`` answers from a hidden string, and each
wrapper's rule asks its inner oracle at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Protocol, Sequence

import numpy as np

from .core import (
    STAR,
    UNKNOWN,
    BooleanFunction,
    HazardFreeTable,
    TernaryString,
    as_ternary,
    Orientation,
    _slopes,
)
from .depth import _rows, _values
from .measures import _measure_arrays, block_summary, certificate_summary, certificate_u_at
from .trees import DecisionTree, _first_children, _split_trees


class QueryOracle(Protocol):
    @property
    def arity(self) -> int: ...
    def query(self, var: int) -> int: ...


Solver = Callable[[QueryOracle], int]


class _CachedOracle:
    """Range checks, the answer cache and the log shared by every oracle.

    ``query`` takes a 1-based variable index and asks ``answer`` only
    the first time; the transcript records first-time queries in order,
    and repeats hit the cache and do not count.
    """

    def __init__(self, arity: int, answer: Callable[[int], int]):
        self._arity = arity
        self._answer = answer
        self._answers: dict[int, int] = {}
        self._log: list[tuple[int, int]] = []

    @property
    def arity(self) -> int:
        return self._arity

    def query(self, var: int) -> int:
        if not 1 <= var <= self._arity:
            raise ValueError(f"query index {var} outside 1..{self._arity}")
        if var not in self._answers:
            answer = self._answer(var)
            self._answers[var] = answer
            self._log.append((var, answer))
        return self._answers[var]

    @property
    def query_count(self) -> int:
        return len(self._answers)

    @property
    def transcript(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._log)


class Oracle(_CachedOracle):
    """Answers queries about a hidden ternary string."""

    def __init__(self, hidden: TernaryString | str):
        self._hidden = as_ternary(hidden)
        trits = self._hidden.trits  # not self: no reference cycle per oracle
        super().__init__(len(trits), lambda var: trits[var - 1])

    @property
    def hidden(self) -> TernaryString:
        return self._hidden


# The wrappers below answer each outer query with at most one inner
# query, and cache it like any oracle, so the inner oracle is asked at
# most once per distinct outer index and query-count bounds transfer
# across the reductions.


def fill_unknown_oracle(inner: QueryOracle, fill: Sequence[int]) -> QueryOracle:
    """Substitute fill[var-1] for every u answer of the inner oracle."""
    fill = tuple(fill)

    def answer(var: int) -> int:
        a = inner.query(var)
        return fill[var - 1] if a == UNKNOWN else a

    return _CachedOracle(len(fill), answer)


def mask_ones_oracle(inner: QueryOracle) -> QueryOracle:
    """Downward-closure wrapper over a resolved oracle: 0 -> 0, 1 -> u."""
    return _CachedOracle(inner.arity,
                         lambda var: UNKNOWN if inner.query(var) == 1 else 0)


def indexing_oracle_from_or(or_oracle: QueryOracle, n: int) -> QueryOracle:
    """Present an OR oracle on 2**n bits as an indexing-function input.

    The n addressing variables answer u without consulting the inner
    oracle; target variable n+k answers the k-th OR bit.
    """
    targets = or_oracle.arity
    if targets != 1 << n:
        raise ValueError(f"inner oracle has {targets} bits, expected {1 << n}")
    return _CachedOracle(n + targets,
                         lambda var: UNKNOWN if var <= n else or_oracle.query(var - n))


def transcript_json(transcript: Sequence[tuple[int, int]]) -> list[dict]:
    return [{"i": var, "a": "01u"[answer]} for var, answer in transcript]


def tree_solver(tree: DecisionTree) -> Solver:
    """Turn a decision tree into a solver that walks it against an oracle.
    The first child of each query node is found once for the tree
    (``trees._first_children``); a run reads it and the node arrays a
    step at a time, as Python ints.  Each answer is checked against b: a
    classical tree takes no u."""
    answers, kids = _first_children(tree.var)
    var, leaf, kids = tree.var.item, tree.leaf.item, kids.item

    def run(oracle: QueryOracle) -> int:
        i = 0
        while v := var(i):
            answer = oracle.query(v)
            if answer >= answers:
                raise ValueError("classical tree received a u answer")
            i = kids(i) + answer
        return leaf(i)

    return run


# ---------------------------------------------------------------------------
# The certificate-guided solver.


@dataclass(frozen=True)
class SolveResult:
    output: int
    queries: int
    bound: int
    transcript: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {"output": "01u"[self.output], "queries": self.queries,
                "bound": self.bound}


def _cost_budget(table: HazardFreeTable) -> int:
    # Worst case for the solver: bs_1 rounds of 0-certificates, then
    # bs_0 rounds of 1-certificates.  Both summaries are kept with the
    # table's measure arrays, so many solves on one table, or a report
    # before them, price the budget only once.
    blocks = block_summary(table)
    certs = certificate_summary(table)
    return blocks.by_value[1] * certs.c_u_0 + blocks.by_value[0] * certs.c_u_1


def _algorithm1_step(table: HazardFreeTable, cells: Sequence[int],
                     stage: int | None) -> int | tuple[int, tuple[int, ...]]:
    """One step of Algorithm 1 on a non-constant function: from the answers
    so far to the output, or to the stage and queries of the next round.

    ``cells`` holds the answer at each position, STAR where none was asked,
    and ``stage`` is the stage value of the round that just ended, None
    before the first.  A run that ended a round exits the moment its
    answers force a value: then the coarsest consistent string, u at
    every unasked position, already evaluates to it.  Otherwise the next
    round of the stage, or of stage 1 once no consistent input of value 0
    is left, picks the least consistent input of that value
    (``HazardFreeTable.least_input``) and queries the domain of a minimum
    certificate at it.  Returns the output, or the round's (stage value,
    unasked positions of the domain in sorted order, 1-based).  Once
    neither value has a consistent input the output is u.
    """
    if stage is None:
        stage = 0
    else:
        coarsest = int(table.grid[tuple(UNKNOWN if c == STAR else c for c in cells)])
        if coarsest != UNKNOWN:
            return coarsest
    for want in range(stage, 2):
        x = table.least_input(cells, want)
        if x is None:
            continue
        cert = certificate_u_at(table, x)
        todo = tuple(sorted(v for v in cert.assignment.domain() if cells[v - 1] == STAR))
        # A domain inside the asked positions is certified by the answers,
        # which the forced test before it would have caught.
        if not todo:
            raise AssertionError(f"a round at {x} asks nothing new")
        return want, todo
    return UNKNOWN


@cache
def _domains(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2**n certificate domains in the order ``certificate_u_at`` tries
    them, by size and then in ``combinations`` order, as masks, bit p for
    position p; and per mask, its place in that order."""
    masks = np.array([sum(1 << p for p in S) for size in range(n + 1)
                      for S in combinations(range(n), size)], dtype=np.int64)
    order = np.empty_like(masks)
    order[masks] = np.arange(masks.size)
    for array in (masks, order):
        array.flags.writeable = False  # shared through the cache
    return masks, order


def _block_offsets(free: np.ndarray, n: int) -> np.ndarray:
    """Per row of ``free``, sorted positions, the codes of the inputs that
    are 0 off them, in code order: a setting of the first free position
    is the most significant, so each is added as an outer axis."""
    offsets = np.zeros((len(free), 1), dtype=np.int64)
    for w in (3 ** (n - 1 - free)).T[::-1]:
        offsets = (np.multiply.outer(w, range(3))[:, :, None] + offsets[:, None, :]).reshape(len(free), -1)
    return offsets


def _algorithm1_steps(values: np.ndarray, forced: np.ndarray, owner: np.ndarray,
                      cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_algorithm1_step`` for states of one layer of a batch at once.

    ``values`` holds the batch's values by code, a row per table, and
    ``forced`` its tables' forced bits of {0, 1, u, *}^n (the measure
    arrays' ``forced``), a row each.  State i belongs to table
    ``owner[i]`` and holds the answers ``cells[i]``, STAR where none was
    asked.  The states lie in one layer of the tree, so each has asked as
    many positions.

    A state needs no stage: its block of consistent inputs lies inside
    its parent's, so once no 0-valued input is consistent none ever is
    again, and the least consistent input of value 0, or else of value 1,
    is the one of the stage ``_algorithm1_step`` would be in.  The root,
    which has asked nothing, is the one state stepped before a round, so
    it alone skips the test of its coarsest completion.

    Returns per state the output, or -1 where a round follows, and the
    mask of that round's unasked domain positions, bit p for position p.
    The least consistent input of a value is the first hit in the state's
    block of inputs, its answers plus each code that is 0 on the asked
    positions, in code order.  The round's domain is the first of
    ``_domains`` whose cell, the input on it and * elsewhere, is forced:
    the one ``certificate_u_at`` picks.
    """
    states, n = cells.shape
    pw3, pw4 = 3 ** np.arange(n - 1, -1, -1), 4 ** np.arange(n - 1, -1, -1)
    star = cells == STAR
    values, at = values.reshape(-1), owner * 3 ** n  # each state's table starts at ``at``
    answers = np.where(star, 0, cells) @ pw3  # the code of the answers, 0 at every STAR
    coarsest = values[at + answers + star @ (UNKNOWN * pw3)]
    block = answers[:, None] + _block_offsets(np.nonzero(star)[1].reshape(states, -1), n)
    hits = values[at[:, None] + block]
    rows = np.arange(states)
    x = np.full(states, -1)
    for value in (1, 0):  # 0 last, so that a state with a 0-valued input keeps it
        match = hits == value
        first = match.argmax(axis=1)
        hit = match[rows, first]
        x[hit] = block[rows, first][hit]
    out = np.where((coarsest != UNKNOWN) & ~star.all(axis=1), coarsest,
                   np.where(x < 0, UNKNOWN, -1)).astype(np.int8)
    rounds = np.flatnonzero(out < 0)
    code = (owner[rounds] * 8 * forced.shape[1] + 4 ** n - 1)[:, None]  # the all-* cell's bit
    for step in (x[rounds] // pw3[:, None] % 3 - STAR) * pw4[:, None]:
        code = np.concatenate((code, code + step[:, None]), axis=1)  # column m: the domain of mask m
    masks, order = _domains(n)
    bit = forced.reshape(-1)[code >> 3] >> (code & 7) & 1
    todo = np.zeros(states, dtype=np.int64)
    todo[rounds] = masks[np.where(bit, order, masks.size).min(axis=1)] & (star[rounds] @ (1 << np.arange(n)))
    # A domain inside the asked positions is certified by the answers,
    # which the forced test before it would have caught.
    empty = rounds[todo[rounds] == 0]
    if empty.size:
        raise AssertionError(f"a round at {TernaryString.from_code(int(x[empty[0]]), n)} asks nothing new")
    return out, todo


# States whose step runs in one call: the step's temporaries hold a row
# of up to max(3**free, 2**n) entries a state, here at most 2**17 in all,
# 1 MiB as int64, so that no temporary grows with the frontier.
_STEP_CELLS = 1 << 17


def _algorithm1_trees(tables: Sequence[HazardFreeTable],
                      forced: np.ndarray | None = None) -> list[DecisionTree]:
    """Algorithm 1 over every hidden input at once, as one u-model tree a
    table, for a batch of tables of one arity.

    The solver is deterministic and never queries a position twice, so
    its runs are the root-to-leaf paths of one tree, each leaf holding a
    run's output; a constant function is a leaf alone.  The trees grow
    together a layer at a time from one frontier of answer states, each
    with its table, its answers and the mask of positions its round has
    still to ask.  The states whose round is done take their step
    together (``_algorithm1_steps``), a leaf or a new round; each other
    state is a query node asking the lowest position left in its round,
    and its children, one per answer, make up the next frontier in
    (parent, answer) order.  So each layer holds the tables' nodes in
    table order, as ``_split_trees`` needs.  ``forced`` is the batch's
    forced bits, a uint8 row a table as ``depth._forced_bits`` gives
    them; without it each table's row is read from the memo of measure
    arrays.
    """
    n = tables[0].arity
    trees = [DecisionTree._of([0], [table.function.value_at_index(0)])
             if table.function.is_constant() else None for table in tables]
    live = [t for t, tree in enumerate(trees) if tree is None]
    if not live:
        return trees
    values = _values([tables[t] for t in live])
    bits = forced[live] if forced is not None else _rows([_measure_arrays(tables[t]).forced for t in live])
    owner = np.arange(len(live))
    cells = np.full((len(live), n), STAR, dtype=np.uint8)
    todo = np.zeros(len(live), dtype=np.int64)
    var_layers, leaf_layers, owner_layers = [], [], []
    for free in range(n, -1, -1):
        out = np.full(owner.size, -1, dtype=np.int8)
        steps = np.flatnonzero(todo == 0)
        chunk = max(1, _STEP_CELLS // max(3 ** free, 1 << n))
        for lo in range(0, steps.size, chunk):
            at = steps[lo:lo + chunk]
            out[at], todo[at] = _algorithm1_steps(values, bits, owner[at], cells[at])
        ask = np.flatnonzero(out < 0)
        low = todo[ask] & -todo[ask]  # the lowest position left in each round
        p = np.bitwise_count(low - 1)
        var = np.zeros(owner.size, dtype=np.int64)
        var[ask] = p + 1
        var_layers.append(var)
        leaf_layers.append(np.where(out < 0, 0, out).astype(np.uint8))
        owner_layers.append(owner)
        if not ask.size:
            break
        owner, todo = owner[ask].repeat(3), (todo[ask] ^ low).repeat(3)
        cells = cells[ask].repeat(3, axis=0)
        cells[np.arange(cells.shape[0]), p.repeat(3)] = np.tile(np.arange(3, dtype=np.uint8), ask.size)
    var, leaf, owner = (np.concatenate(layers) for layers in (var_layers, leaf_layers, owner_layers))
    compiled = [DecisionTree._of(var, leaf)] if len(live) == 1 else _split_trees(var, leaf, owner, len(live))
    for t, tree in zip(live, compiled):
        trees[t] = tree
    return trees


def algorithm1_tree(table: HazardFreeTable) -> DecisionTree:
    """Algorithm 1 over every hidden input at once, as one u-model tree:
    the batch compile (``_algorithm1_trees``) of one table."""
    return _algorithm1_trees([table])[0]


def algorithm1_solve(table: HazardFreeTable, oracle: QueryOracle) -> SolveResult:
    """Evaluate the extension of a known function on an oracle-held input.

    Rounds of minimum-certificate queries run at consistent 0-valued
    inputs while any exists, then at consistent 1-valued inputs; each
    round exits early when the answers force a value, and u is returned
    only once neither class has a consistent member.  Constant functions
    are answered immediately with zero queries.  For all others the
    result's ``queries`` never exceeds its ``bound``.
    """
    f = table.function
    n = table.arity
    if oracle.arity != n:
        raise ValueError(f"oracle arity {oracle.arity} != function arity {n}")
    if f.is_constant():
        return SolveResult(f.value_at_index(0), oracle.query_count, 0,
                           tuple(oracle.transcript))

    bound = _cost_budget(table)
    cells = [STAR] * n
    stage = None
    while True:
        step = _algorithm1_step(table, cells, stage)
        if isinstance(step, int):
            return SolveResult(step, oracle.query_count, bound,
                               tuple(oracle.transcript))
        stage, todo = step
        for var in todo:
            cells[var - 1] = oracle.query(var)


_run_algorithm1 = algorithm1_solve  # the benchmark tracer's name, until ROADMAP item 1


# ---------------------------------------------------------------------------
# Simulations and reductions.


def unate_solver(f: BooleanFunction, orientation: Orientation,
                 tree: DecisionTree) -> Solver:
    """A solver for the extension of a unate f from a classical tree.

    ``orientation`` must make x -> f(x xor s) monotone (all zeros for a
    monotone f); it is checked once, here.  Each run walks the tree
    twice: pass one resolves u at variable i to s_i, pass two to 1 - s_i;
    1 on pass one forces 1, 0 on pass two forces 0, and else the value is
    u.  Both passes share the oracle: at most 2 * depth queries.
    """
    if len(orientation.bits) != f.arity:
        raise ValueError("orientation length differs from arity")
    # Complementing variable i swaps its rises and falls.
    if any(rises if b else falls
           for b, (rises, falls) in zip(orientation.bits, _slopes(f))):
        raise ValueError("orientation does not make the function monotone")
    walk = tree_solver(tree)
    fills = (orientation.bits, tuple(1 - b for b in orientation.bits))

    def run(oracle: QueryOracle) -> int:
        low, high = [walk(fill_unknown_oracle(oracle, fill)) for fill in fills]
        if low == 1:
            return 1
        if high == 0:
            return 0
        return UNKNOWN

    return run


def downward_closure_solve(f: BooleanFunction, u_solver: Solver,
                           binary_oracle: QueryOracle) -> int:
    """Compute the downward closure of f on a resolved input.

    The wrapper hides every 1 answer behind u; on such inputs the
    extension of f is 0 exactly when the closure is 0, so the solver's
    0 maps to 0 and both other outputs map to 1.  One inner query per
    outer query: the closure costs no more queries than the u-model.
    """
    if binary_oracle.arity != f.arity:
        raise ValueError("oracle arity differs from function arity")
    out = u_solver(mask_ones_oracle(binary_oracle))
    return 0 if out == 0 else 1


def or_via_ind_reduction(n: int, ind_solver: Solver,
                         or_oracle: QueryOracle) -> int:
    """Compute OR on 2**n bits through a u-model indexing-function solver.

    Addressing variables answer u, target k answers the k-th OR bit; the
    indexing extension is 0 exactly when every OR bit is 0, so output 0
    maps to 0 and anything else to 1.  Any correct indexing solver is
    therefore forced to pay the classical OR cost on some input.
    """
    out = ind_solver(indexing_oracle_from_or(or_oracle, n))
    return 0 if out == 0 else 1
