"""Definitional checks of reported witnesses: the package's trust base.

Each check re-derives a claim from the definitions, reading only the
hazard-free table (its values, or one block of its grid) and the
witness, never a kernel that produced it: no measure array, no depth
search and no solver.  ``_survivor`` checks a solver's u answer, and
``_witness_problems`` every witness of a measure report, its trees
last.  A batch of reports has its trees checked together: each
report's input witnesses are checked alone (``_input_witness_problem``),
``_replay_trees`` reads the D and D_u witness trees of every report
back from their JSON form, one tree at a time, and replays them all at
once with ``trees.verify_trees``, and ``_tree_witness_problem`` finds
each report's first tree defect.  The scan plans list, per ternary
input, the truth-table indices of its binary resolutions
(``_resolution_plan``) and the codes of its refinements
(``_refinement_plan``).  They depend on the arity alone: the verify
harness builds them once per arity, then checks each table's entries
by reading them, against f's truth bits and against the entries of
their refinements.  This module memoizes nothing; the harness runs all
of its checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .core import (
    STAR,
    UNKNOWN,
    HazardFreeTable,
    PartialAssignment,
    TernaryString,
    as_ternary,
    resolutions,
)
from .trees import tree_depth, tree_from_json_dict, tree_to_json_dict, verify_trees


@dataclass(frozen=True)
class SensitiveBlockWitness:
    """A sensitive block together with the altered input exhibiting it."""

    base: TernaryString
    block: frozenset[int]      # variable indices, 1-based
    altered: TernaryString


@dataclass(frozen=True)
class CertificateWitness:
    """A certificate: consistent strings all evaluate to ``value``."""

    assignment: PartialAssignment
    value: int

    @property
    def size(self) -> int:
        return self.assignment.size


def validate_certificate(table: HazardFreeTable, witness: CertificateWitness) -> bool:
    """Check a certificate on its block of the value grid: the ternary
    strings consistent with it, each assigned cell fixed and each * free,
    must all take the witness's value."""
    cells = witness.assignment.cells
    if len(cells) != table.arity:
        return False
    block = tuple(slice(None) if c == STAR else c for c in cells)
    return bool((table.grid[block] == witness.value).all())


def validate_block_family(
    table: HazardFreeTable,
    base: TernaryString | str,
    family: tuple[SensitiveBlockWitness, ...],
) -> bool:
    """Disjointness plus, per block, the altered string proving sensitivity."""
    base = as_ternary(base)
    n = table.arity
    if len(base) != n:
        return False
    v = table.values[base.code()]
    used: set[int] = set()
    for w in family:
        if w.base != base or not w.block or not all(1 <= i <= n for i in w.block):
            return False
        if used & w.block:
            return False
        used |= w.block
        if len(w.altered) != n:
            return False
        for p in range(n):
            if (p + 1) not in w.block and w.altered[p] != base[p]:
                return False
        if table.values[w.altered.code()] == v:
            return False
    return True


# Scan plans: per ternary code of arity n, in code order, what a
# definitional scan of a table reads.  They depend on n alone.


def _resolution_plan(n: int) -> tuple[tuple[int, ...], ...]:
    """Per code, the truth-table indices of its binary resolutions, in
    the lex order ``resolutions`` lists them in."""
    return tuple(tuple(y.bin_index() for y in resolutions(TernaryString.from_code(code, n)))
                 for code in range(3 ** n))


def _refinement_plan(n: int) -> tuple[tuple[int, ...], ...]:
    """Per code, the codes of its refinements: each u replaced by 0, 1
    or u, in ``product`` order over its u positions, the code itself
    last."""
    plan = []
    for code in range(3 ** n):
        x = TernaryString.from_code(code, n)
        spots = x.u_positions()
        refinements = []
        for fill in product((0, 1, UNKNOWN), repeat=len(spots)):
            y = list(x.trits)
            for p, t in zip(spots, fill):
                y[p] = t
            refinements.append(TernaryString(tuple(y)).code())
        plan.append(tuple(refinements))
    return tuple(plan)


def _sensitivity_problem(table: HazardFreeTable, key: str, d: dict, want: int,
                         alphabet: Sequence[int]) -> str | None:
    # Definitional recount: a position is sensitive when any other
    # digit of the alphabet there changes the table value.
    x = as_ternary(d["input"])
    v, trits = table.values[x.code()], x.trits
    count = sum(
        any(table.values[TernaryString(trits[:p] + (a,) + trits[p + 1:]).code()] != v
            for a in alphabet if a != trits[p])
        for p in range(len(x)))
    if count != want:
        return f"{key} input attains a different sensitivity"
    if want > 0 and d["variable"] is None:
        return f"{key} witness names no variable"
    return None


def _family_problem(table: HazardFreeTable, key: str, d: dict,
                    want: int, cls: int | None) -> str | None:
    base = as_ternary(d["input"])
    if cls is not None and table.values[base.code()] != cls:
        return f"{key} input has the wrong value"
    fam = tuple(
        SensitiveBlockWitness(base, frozenset(blk), as_ternary(alt))
        for blk, alt in zip(d["blocks"], d["altered"])
    )
    if len(fam) != want:
        return f"{key} family size differs from the reported value"
    if not validate_block_family(table, base, fam):
        return f"{key} family fails validation"
    return None


def _certificate_problem(table: HazardFreeTable, key: str, d: dict,
                         want: int, classes: tuple[int, ...]) -> str | None:
    x = as_ternary(d["input"])
    v = table.values[x.code()]
    if v not in classes:
        return f"{key} input has the wrong value"
    pa = PartialAssignment.parse(d["certificate"])
    if pa.size != want:
        return f"{key} certificate size differs from the reported value"
    if not pa.is_consistent(x):
        return f"{key} certificate conflicts with its input"
    if not validate_certificate(table, CertificateWitness(pa, v)):
        return f"{key} certificate fails validation"
    return None


def _tree_problem(table: HazardFreeTable, key: str, d: dict, want: int,
                  model_replay: tuple) -> str | None:
    model, (tree, (ok, bad)) = model_replay
    if d["depth"] != want or tree_depth(tree) != want:
        return f"{model} tree depth differs from the reported value"
    return None if ok else f"{model} tree misevaluates {bad}"


def _first_problem(table: HazardFreeTable, checks) -> str | None:
    """The first defect among witness checks, each (check, key, reported
    value, witness, argument); a value reported above 0 needs a witness."""
    for check, key, want, d, arg in checks:
        if d is None:
            problem = f"{key} reported {want} without a witness" if want else None
        elif "input" in d and len(d["input"]) != table.arity:
            problem = f"{key} input has the wrong length"
        else:
            problem = check(table, key, d, want, arg)
        if problem:
            return problem
    return None


def _input_witness_problem(table: HazardFreeTable, m) -> str | None:
    """First defect in the witnesses of the measure report m other than
    its trees, each an input validated definitionally.  The classical
    witnesses s, bs and C are binary inputs, checked like their u-model
    counterparts with the alphabet {0, 1}."""
    checks = (
        (_sensitivity_problem, "s_u", m.s_u, (0, 1, UNKNOWN)),
        (_family_problem, "bs_u", m.bs_u, None),
        (_family_problem, "bs_u_0", m.bs_u_0, 0),
        (_family_problem, "bs_u_1", m.bs_u_1, 1),
        (_family_problem, "bs_u_uval", m.bs_u_uval, UNKNOWN),
        (_certificate_problem, "C_u_0", m.C_u_0, (0,)),
        (_certificate_problem, "C_u_1", m.C_u_1, (1,)),
        (_certificate_problem, "C_u", m.C_u, (0, 1)),
        (_certificate_problem, "C_u_uval", m.C_u_uval, (UNKNOWN,)),
        (_sensitivity_problem, "s", m.s, (0, 1)),
        (_family_problem, "bs", m.bs, None),
        (_certificate_problem, "C", m.C, (0, 1)),
    )
    return _first_problem(table, ((check, key, want, m.witnesses[key], arg) for check, key, want, arg in checks))


_TREE_MODELS = {"D": "classical", "D_u": "u-model"}


def _tree_claims(m) -> tuple:
    """The D and D_u claims of the measure report m: per key, the value
    reported and its witness, None when missing."""
    return tuple((key, getattr(m, key), m.witnesses[key]) for key in _TREE_MODELS)


def _replay_trees(tables: Sequence[HazardFreeTable], claims: Sequence[tuple]) -> list[tuple]:
    """Per table's tree claims (``_tree_claims``), each witness tree read
    back from its JSON form, the form a report is written in, with its
    verdict, (ok, least counterexample); None for a missing witness.
    Every claim's tree, each against its table, is replayed at once
    (``trees.verify_trees``)."""
    read = [tuple(None if d is None else tree_from_json_dict(tree_to_json_dict(d["tree"]))
                  for _, _, d in claim) for claim in claims]
    present = [(tree, table) for trees, table in zip(read, tables) for tree in trees if tree is not None]
    verdicts = iter(verify_trees(*zip(*present)) if present else ())
    return [tuple(None if tree is None else (tree, next(verdicts)) for tree in trees) for trees in read]


def _tree_witness_problem(table: HazardFreeTable, claims: tuple, replays: tuple) -> str | None:
    """First defect in a report's D and D_u claims (``_tree_claims``),
    given their trees' replays (``_replay_trees``)."""
    return _first_problem(table, ((_tree_problem, key, want, d, (_TREE_MODELS[key], replay))
                                  for (key, want, d), replay in zip(claims, replays)))


def _witness_problems(table: HazardFreeTable, m) -> str | None:
    """First defect in the witnesses of the measure report m, validated
    definitionally: its inputs in turn, then its D and D_u trees,
    replayed against the table."""
    claims = _tree_claims(m)
    return _input_witness_problem(table, m) or \
        _tree_witness_problem(table, claims, _replay_trees([table], [claims])[0])


def _survivor(table: HazardFreeTable,
              transcript: Sequence[tuple[int, int]]) -> TernaryString | None:
    """The least 1-valued input that agrees with every answer of the
    transcript, else the least such 0-valued one, else None.

    A solver may answer u only when this is None.  The answers are the
    cells of ``HazardFreeTable.least_input``, STAR at the unasked
    positions.  The test reads the table and the transcript alone, never
    the solver's own state.
    """
    cells = [STAR] * table.arity
    for var, answer in transcript:
        cells[var - 1] = answer
    x = table.least_input(cells, 1)
    return x if x is not None else table.least_input(cells, 0)
