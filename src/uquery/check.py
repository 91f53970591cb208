"""Definitional checks of reported witnesses: the package's trust base.

Each check re-derives a claim from the definitions, reading only the
hazard-free table (its values, or one block of its grid) and the
witness, never a kernel that produced it: no measure array, no depth
search and no solver.  ``_witness_problems`` checks every witness of a
measure report, ``_survivor`` a solver's u answer, ``_resolution_value``
a table entry against the resolutions of f, and ``trees.verify_tree``
replays the witness trees.  The verify harness runs all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .core import (
    STAR,
    UNKNOWN,
    BooleanFunction,
    HazardFreeTable,
    PartialAssignment,
    TernaryString,
    as_ternary,
)
from .trees import tree_depth, tree_from_json_dict, tree_to_json_dict, verify_tree


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


def _resolution_value(f: BooleanFunction, x: TernaryString) -> int:
    """Extension value by brute enumeration of all binary resolutions."""
    n = f.arity
    spots = [p for p in range(n) if x[p] == UNKNOWN]
    base = 0
    for p in range(n):
        if x[p] == 1:
            base |= 1 << (n - 1 - p)
    seen: set[int] = set()
    for fill in product((0, 1), repeat=len(spots)):
        idx = base
        for k, p in enumerate(spots):
            if fill[k]:
                idx |= 1 << (n - 1 - p)
        seen.add(f.value_at_index(idx))
        if len(seen) == 2:
            return UNKNOWN
    return seen.pop()


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
                  model: str) -> str | None:
    # The tree is checked as read back from its JSON form, the form the
    # report is written in.
    tree = tree_from_json_dict(tree_to_json_dict(d["tree"]))
    if d["depth"] != want or tree_depth(tree) != want:
        return f"{model} tree depth differs from the reported value"
    ok, bad = verify_tree(tree, table)
    return None if ok else f"{model} tree misevaluates {bad}"


def _witness_problems(table: HazardFreeTable, m) -> str | None:
    """First defect in the witnesses of the measure report m, validated
    definitionally; a measure reported above 0 needs a witness.

    The classical witnesses s, bs and C are binary inputs, checked like
    their u-model counterparts with the alphabet {0, 1}.
    """
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
        (_tree_problem, "D", m.D, "classical"),
        (_tree_problem, "D_u", m.D_u, "u-model"),
    )
    for check, key, want, arg in checks:
        d = m.witnesses[key]
        if d is None:
            problem = f"{key} reported {want} without a witness" if want else None
        elif "input" in d and len(d["input"]) != table.arity:
            problem = f"{key} input has the wrong length"
        else:
            problem = check(table, key, d, want, arg)
        if problem:
            return problem
    return None


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
