"""The four workloads: the CLI commands each one runs and how each output is checked.

A workload turns ``(seed, seconds, small)`` into a list of operations.  An
operation is one ``uquery`` command line plus a check of its exit code and
stdout; the check raises ``CheckFailed`` or returns the units of work the
command completed (1 per command, or the reported cases for ``verify``).
Operations that share a request index are one request, the unit of the
latency percentiles.  The list depends only on its arguments, never on
measured time, so two runs with the same arguments do the same work:
``seconds`` sets how many passes fit, from each workload's nominal cost on a
2-CPU x86-64 machine, and ``small`` swaps in tiny inputs for the smoke tests.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

from uquery.core import PartialAssignment, TernaryString, generate, hazard_free_table
from uquery.measures import (
    CertificateWitness,
    SensitiveBlockWitness,
    sensitivity_u_at,
    validate_block_family,
    validate_certificate,
)
from uquery.trees import evaluate_tree, tree_depth, tree_from_json_dict, verify_tree
from uquery.verification import SUITES

# sha256 of the whole `measures SPEC --witnesses` stdout of the fixed specs.
MEASURES_DIGESTS = {
    "maj:7": "e7ac8beaa1720c6af21bc4307d79b1146bebd26376ef6a7eda634cfd656094a9",
    "ind:2": "4b6a4cfb2cf6f029a530e92ae91cca2634a9b8e5f91bcf48fefbd42a74629902",
    "maj:5": "97b40f76f327a978a0e7c1edfd74a516fc1a42fe76bcda5d7891d995e1a1af4d",
    "ind:1": "547ac514d3dae787a3ad377d781739d2b462fc1a0ce39c8f562b195fede2af61",
}

# Exact (D, D_u) of the fixed tree-search specs.
PINNED_DEPTHS = {
    "ind:3": (4, 11), "mind:4": (5, 5), "maj:11": (11, 11),
    "ind:2": (3, 6), "mind:2": (3, 3), "maj:5": (5, 5),
}


class CheckFailed(Exception):
    """An operation's output failed its check."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, str], int]
    request: int  # operations with one index make one request


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _fields(out: str) -> dict[str, str]:
    pairs = (re.match(r"^(\w+) ?= ?(.*)$", line) for line in out.splitlines())
    return {m.group(1): m.group(2) for m in pairs if m}


# ---------------------------------------------------------------------------
# Checks.


def _check_certificate(table, name: str, wit: dict | None, size: int) -> None:
    if wit is None:
        _require(size == 0, f"{name}: no witness for size {size}")
        return
    x = TernaryString.parse(wit["input"])
    cert = PartialAssignment.parse(wit["certificate"])
    _require(cert.is_consistent(x), f"{name}: certificate not consistent with input")
    _require(cert.size == size, f"{name}: certificate size {cert.size} != {size}")
    value = table.values[x.code()]
    _require(validate_certificate(table, CertificateWitness(cert, value)),
             f"{name}: certificate does not certify")


def _check_family(table, name: str, wit: dict | None, size: int) -> None:
    if wit is None:
        _require(size == 0, f"{name}: no witness for size {size}")
        return
    base = TernaryString.parse(wit["input"])
    family = tuple(
        SensitiveBlockWitness(base, frozenset(block), TernaryString.parse(alt))
        for block, alt in zip(wit["blocks"], wit["altered"]))
    _require(len(family) == size, f"{name}: family of {len(family)} != {size}")
    _require(validate_block_family(table, base, family),
             f"{name}: block family does not validate")


def check_measures(spec: str) -> Callable[[int, str], int]:
    def check(rc: int, out: str) -> int:
        _require(rc == 0, f"measures {spec}: exit {rc}")
        digest = MEASURES_DIGESTS.get(spec)
        if digest is not None:
            got = hashlib.sha256(out.encode()).hexdigest()
            _require(got == digest, f"measures {spec}: stdout digest {got}")
        fields = _fields(out)
        num = {k: int(v) for k, v in fields.items() if v.lstrip("-").isdigit()}
        wit = json.loads(fields["witnesses"])
        f = generate(spec)
        table = hazard_free_table(f)
        n = f.arity
        _require(num["arity"] == n, f"measures {spec}: arity")
        for key in ("C_u_0", "C_u_1", "C_u", "C_u_uval", "C"):
            _check_certificate(table, key, wit[key], num[key])
        for key in ("bs_u", "bs_u_0", "bs_u_1", "bs_u_uval", "bs"):
            _check_family(table, key, wit[key], num[key])
        s_u_x = TernaryString.parse(wit["s_u"]["input"])
        _require(sensitivity_u_at(table, s_u_x) == num["s_u"], "s_u witness")
        du = tree_from_json_dict(wit["D_u"]["tree"])
        _require(tree_depth(du) == num["D_u"] == wit["D_u"]["depth"], "D_u depth")
        _require(verify_tree(du, table)[0], f"measures {spec}: D_u tree misevaluates")
        d = tree_from_json_dict(wit["D"]["tree"])
        _require(tree_depth(d) == num["D"] == wit["D"]["depth"], "D depth")
        for idx in range(1 << n):
            y = TernaryString(tuple((idx >> (n - 1 - p)) & 1 for p in range(n)))
            _require(evaluate_tree(d, y) == f.value_at_index(idx),
                     f"measures {spec}: D tree misevaluates {y}")
        return 1
    return check


def check_solve(rc: int, out: str) -> int:
    _require(rc == 0, f"solve: exit {rc}")
    fields = _fields(out)
    _require(fields.get("output") in ("0", "1", "u"), "solve: no output")
    queries, bound = int(fields["queries"]), int(fields["bound"])
    _require(queries <= bound, f"solve: {queries} queries over bound {bound}")
    return 1


def check_tree(spec: str, model: str) -> Callable[[int, str], int]:
    def check(rc: int, out: str) -> int:
        _require(rc == 0, f"tree {spec} --model {model}: exit {rc}")
        depth = int(_fields(out)["depth"])
        pinned = PINNED_DEPTHS.get(spec)
        if pinned is not None:
            want = pinned[0] if model == "binary" else pinned[1]
            _require(depth == want, f"tree {spec} --model {model}: depth {depth} != {want}")
        return 1
    return check


def check_verify(suite: str) -> Callable[[int, str], int]:
    def check(rc: int, out: str) -> int:
        _require(rc == 0, f"verify {suite}: exit {rc}")
        lines = out.splitlines()
        _require(bool(lines) and lines[-1].startswith(f"suite {suite}: PASS"),
                 f"verify {suite}: no PASS verdict")
        cases = [int(m.group(1)) for m in
                 (re.match(r"^PASS \S+: (\d+) cases", line) for line in lines) if m]
        _require(bool(cases), f"verify {suite}: no records")
        return sum(cases)
    return check


# ---------------------------------------------------------------------------
# Workloads.


@dataclass(frozen=True)
class Workload:
    name: str
    probes: int             # extra fresh processes that run only the first operation
    first_s: float          # nominal seconds of the first operation
    spans: tuple[str, ...]  # spans the traced run must see called
    # (seed, seconds, small, traced) -> operations; ``traced`` selects the
    # operation list of the traced run and of the untraced run it is compared with.
    build: Callable[[int, float, bool, bool], list[Op]]

    def ops(self, seed: int, seconds: float, small: bool, traced: bool) -> list[Op]:
        if not traced:
            seconds -= self.probes * self.first_s
        return self.build(seed, seconds, small, traced)


def _passes(seconds: float, pass_s: float) -> int:
    return max(1, round(seconds / pass_s))


def _seeds(seed: int, count: int) -> list[int]:
    """Seeds of the random functions, one per pass, drawn from the run's seed."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def _measures_ops(seed: int, seconds: float, small: bool, traced: bool) -> list[Op]:
    # A request is one pass over the four functions; each pass draws its own
    # random functions, so that a run averages over several.
    fixed, arities = (["maj:5", "ind:1"], (4, 5)) if small else (["maj:7", "ind:2"], (7, 8))
    ops = []
    for p, s in enumerate(_seeds(seed, _passes(seconds, 6.0))):
        for spec in fixed + [f"random:{n}:{s}" for n in arities]:
            ops.append(Op(("measures", spec, "--witnesses"), check_measures(spec), p))
    return ops


def _hidden_inputs(rng: random.Random, arity: int, count: int) -> list[str]:
    """Alternately uniform over {0,1,u}^n and over {0,1}^n."""
    return ["".join(rng.choice("01u" if i % 2 == 0 else "01") for _ in range(arity))
            for i in range(count)]


def _solve_ops(seed: int, seconds: float, small: bool, traced: bool) -> list[Op]:
    # The first solve prices the function's budget (about 5.5 s), as every
    # fresh `uquery solve` does; the 300 later solves (15 beyond the p95) take
    # about 17 ms each.  The function is fixed and the seed draws the hidden
    # inputs: solve latency differs by up to 2x between random functions, so
    # a seeded function would make the latency percentiles a draw of the seed.
    arity, later = (5, 40) if small else (8, 150 if traced else 300)
    rng = random.Random(seed)
    return [Op(("solve", f"random:{arity}:1", h), check_solve, i)
            for i, h in enumerate(_hidden_inputs(rng, arity, 1 + later))]


def _tree_ops(seed: int, seconds: float, small: bool, traced: bool) -> list[Op]:
    # A request is one pass over the four functions in both models.
    fixed, arity = (["ind:2", "mind:2", "maj:5"], 6) if small else (["ind:3", "mind:4", "maj:11"], 12)
    ops = []
    for p, s in enumerate(_seeds(seed, _passes(seconds, 11.0))):
        for spec in fixed + [f"random:{arity}:{s}"]:
            for model in ("u", "binary"):
                ops.append(Op(("tree", spec, "--model", model), check_tree(spec, model), p))
    return ops


def _verify_ops(seed: int, seconds: float, small: bool, traced: bool) -> list[Op]:
    passes = _passes(seconds, 5.5 if traced else 3.5)
    n_range, samples = ("1..2", 3) if small else ("1..3", 100)
    common = ("--n", n_range, "--samples", str(samples), "--seed", str(seed))
    # One process, no pool: with two pool workers on a 2-CPU virtual machine
    # the wall time varied by a quarter between runs, and no loop timed in
    # this process tracked it (README.md, "Scaled times").
    common += ("--workers", "1")
    if traced:
        # `verify all` is one run_suite span, so the traced run (and the
        # untraced run it is compared with) goes one suite at a time.
        runs = [(("verify", suite) + common, suite) for suite in SUITES] * passes
    else:
        runs = [(("verify", "all") + common, "all")] * passes
    return [Op(argv, check_verify(suite), i) for i, (argv, suite) in enumerate(runs)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "measures-mid", 2, 0.8,
        ("core.hazard_free_table", "measures.block_summary",
         "measures.certificate_summary", "measures.s_u", "measures.standard_measures",
         "measures.measure_report", "trees.query_complexity_u",
         "trees.query_complexity", "cli.main"),
        _measures_ops),
    Workload(
        "solve-stream", 1, 5.5,
        ("core.hazard_free_table", "algorithms.budget", "measures.block_summary",
         "measures.certificate_summary", "measures.certificate_u_at",
         "algorithms.algorithm1_solve", "cli.main"),
        _solve_ops),
    Workload(
        "tree-search", 2, 1.5,
        ("core.hazard_free_table", "trees.query_complexity_u",
         "trees.query_complexity", "trees.verify_tree", "cli.main"),
        _tree_ops),
    Workload(
        "verify-sweep", 1, 4.1,
        ("core.hazard_free_table", "measures.block_summary",
         "measures.certificate_summary", "measures.certificate_u_at",
         "measures.s_u", "measures.standard_measures", "measures.measure_report",
         "trees.query_complexity_u", "trees.query_complexity", "trees.verify_tree",
         "algorithms.budget", "algorithms.algorithm1_solve", "cli.main",
         *(f"verification.{suite}" for suite in SUITES)),
        _verify_ops),
)}
