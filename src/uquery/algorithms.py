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

One step function, ``_algorithm1_step``, takes the answers so far to
the next round's queries or to the output, and two drivers run it.
The oracle driver behind ``algorithm1_solve`` asks an oracle for each
round's answers.  ``algorithm1_tree`` asks for every answer at once:
the solver never queries a position twice, so its runs over all hidden
inputs are the paths of one u-model decision tree, which it builds a
layer at a time.  The solver is a pure function of table and oracle
and does not audit its final-state claim itself: the ``algorithm1``
verify suite re-derives it from the tree's u leaves alone.

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
from typing import Callable, Protocol, Sequence

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
from .measures import block_summary, certificate_summary, certificate_u_at
from .trees import DecisionTree, _answers


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
    Query node k has children 1 + b*k to b*k + b, for its b answers, so
    the solver counts the query nodes up to each node once, in one
    cumsum; a run reads it and the node arrays a step at a time, as
    Python ints.  Each answer is checked against b: a classical tree
    takes no u."""
    answers = _answers(tree.var)
    var, leaf = tree.var.item, tree.leaf.item
    kids = ((tree.var != 0).cumsum() * answers + 1 - answers).item  # first child of each query node

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


def algorithm1_tree(table: HazardFreeTable) -> DecisionTree:
    """Algorithm 1 over every hidden input at once, as one u-model tree.

    The solver is deterministic and never queries a position twice, so
    its runs are the root-to-leaf paths of one tree, each leaf holding a
    run's output; a constant function is a leaf alone.  The tree is built
    a layer at a time from a frontier of answer states, each with the
    stage and the unasked queries of its round: a round becomes a chain
    of query nodes over its domain, and the step at the end of the chain
    gives the next round or the leaf.
    """
    f = table.function
    if f.is_constant():
        return DecisionTree._of([0], [f.value_at_index(0)])
    var, leaf = [], []
    layer = [((STAR,) * table.arity, None, ())]
    while layer:
        below = []
        for cells, stage, todo in layer:
            if not todo:
                step = _algorithm1_step(table, cells, stage)
                if isinstance(step, int):
                    var.append(0)
                    leaf.append(step)
                    continue
                stage, todo = step
            p = todo[0] - 1
            var.append(todo[0])
            leaf.append(0)
            below.extend((cells[:p] + (a,) + cells[p + 1:], stage, todo[1:])
                         for a in (0, 1, UNKNOWN))
        layer = below
    return DecisionTree._of(var, leaf)


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
