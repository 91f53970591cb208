"""Command line surface: gen, eval, measures, solve, tree, verify.

Every command prints deterministic text for fixed arguments; wall-clock
timing appears only inside JSON reports written with --json.  Exit
codes: 0 on success, 1 when a verification or consistency check fails,
2 for usage errors (bad specs, bad inputs, inapplicable methods,
unwritable output paths).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Sequence

from .algorithms import (
    Oracle,
    algorithm1_solve,
    transcript_json,
    tree_solver,
    unate_solver,
)
from .core import (
    TernaryString,
    as_ternary,
    generate,
    hazard_free_table,
    parse_spec,
    unate_orientation,
)
from .depth import query_complexity, query_complexity_u
from .measures import measure_report
from .trees import (
    DecisionTree,
    serialize_tree,
    verify_tree,
    write_indented_tree,
)
from .verification import SUITES, run_suite

# --cap has this environment fallback, uppercased with the project prefix.
ENV_CAP = "UQUERY_CAP"


def _resolve_cap(args) -> int | None:
    if args.cap is not None:
        return args.cap
    text = os.environ.get(ENV_CAP)
    if text is None:
        return None
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"{ENV_CAP} must be an integer, got {text!r}") from None


# The payload value _write_json replaces with the tree of that index.
_TREE_SLOT = "\0tree%d"


def _write_json(path: str, payload: dict, trees: Sequence[DecisionTree] = ()) -> None:
    """Write ``json.dump(payload, indent=2, sort_keys=True)`` and a newline,
    where ``trees[k]`` stands in the payload as ``_TREE_SLOT % k``.  Those
    trees are written by ``write_indented_tree`` at the nesting of their
    slot: the ``json`` module's indenting encoder is pure Python, and on a
    tree of 100k nodes takes ten times as long.  A path that cannot be
    written is a usage error."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    pieces = re.split(r'"\\u0000tree(\d+)"', text)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(pieces[0])
            for k in range(1, len(pieces), 2):
                line = pieces[k - 1].rpartition("\n")[2]
                nesting = (len(line) - len(line.lstrip(" "))) // 2
                write_indented_tree(trees[int(pieces[k])], handle, nesting)
                handle.write(pieces[k + 1])
            handle.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _input_for(f, text: str) -> TernaryString:
    x = as_ternary(text)
    if len(x) != f.arity:
        raise ValueError(
            f"input length {len(x)} does not match arity {f.arity}")
    return x


def cmd_gen(args) -> int:
    cap = _resolve_cap(args)
    meta = parse_spec(args.spec)
    f = generate(args.spec, cap=cap)
    table = "".join(str(f.value_at_index(i)) for i in range(1 << f.arity))
    print(f"spec = {f.to_spec()}")
    print(f"family = {meta['family']}")
    print(f"params = {json.dumps(meta['params'], sort_keys=True)}")
    print(f"arity = {f.arity}")
    print(f"table = {table}")
    if args.out:
        _write_json(args.out, {
            "spec": f.to_spec(),
            "family": meta["family"],
            "params": meta["params"],
            "arity": f.arity,
            "table": table,
        })
    return 0


def cmd_eval(args) -> int:
    cap = _resolve_cap(args)
    f = generate(args.spec, cap=cap)
    x = _input_for(f, args.input)
    table = hazard_free_table(f, cap=cap)
    print("01u"[table.evaluate(x)])
    return 0


def cmd_measures(args) -> int:
    cap = _resolve_cap(args)
    f = generate(args.spec, cap=cap)
    report = measure_report(hazard_free_table(f, cap=cap), with_witnesses=args.witnesses)
    print(f"function = {f.to_spec()}")
    print(f"arity = {f.arity}")
    print(report.to_text())
    if args.witnesses:
        print(f"witnesses = {json.dumps(report.witnesses, sort_keys=True)}")
    if args.json_path:
        payload = {"function": f.to_spec(), "arity": f.arity}
        payload.update(report.to_json_dict())
        if args.witnesses:
            payload["witnesses"] = witnesses = dict(report.witnesses)
            for k, key in enumerate(("D", "D_u")):
                witnesses[key] = {**witnesses[key], "tree": _TREE_SLOT % k}
        # The report's own tree dicts go before the tree texts are built.
        trees = report.witness_trees
        del report
        _write_json(args.json_path, payload, trees)
    return 0


def cmd_solve(args) -> int:
    cap = _resolve_cap(args)
    f = generate(args.spec, cap=cap)
    hidden = _input_for(f, args.hidden)
    table = hazard_free_table(f, cap=cap)
    oracle = Oracle(hidden)

    if args.method == "algorithm1":
        res = algorithm1_solve(table, oracle)
        output, bound = res.output, res.bound
    elif args.method == "tree":
        depth, tree = query_complexity_u(table)
        output, bound = tree_solver(tree)(oracle), depth
    else:  # monotone is unate at the all-zero orientation
        orientation = unate_orientation(f)
        if orientation is None or args.method == "monotone" and any(orientation.bits):
            raise ValueError(
                f"the {args.method} method needs a {args.method} function; "
                "use algorithm1 or tree instead")
        depth, tree = query_complexity(table)
        output = unate_solver(f, orientation, tree)(oracle)
        bound = 2 * depth

    shown = " ".join(f"{var}:{'01u'[ans]}" for var, ans in oracle.transcript)
    print(f"output = {'01u'[output]}")
    print(f"queries = {oracle.query_count}")
    print(f"bound = {bound}")
    print(f"transcript = {shown or '-'}")
    if args.json_path:
        _write_json(args.json_path, {
            "function": f.to_spec(),
            "hidden": str(hidden),
            "method": args.method,
            "output": "01u"[output],
            "queries": oracle.query_count,
            "bound": bound,
            "transcript": transcript_json(oracle.transcript),
        })
    expected = table.evaluate(hidden)
    if output != expected:
        print(f"error: output {'01u'[output]} differs from the table value "
              f"{'01u'[expected]}", file=sys.stderr)
        return 1
    return 0


def cmd_tree(args) -> int:
    cap = _resolve_cap(args)
    f = generate(args.spec, cap=cap)
    table = hazard_free_table(f, cap=cap)
    if args.model == "u":
        depth, tree = query_complexity_u(table)
    else:
        depth, tree = query_complexity(table)
    ok, bad = verify_tree(tree, table)
    if not ok:
        print(f"error: optimal tree misevaluates {bad}", file=sys.stderr)
        return 1
    print(f"function = {f.to_spec()}")
    print(f"model = {args.model}")
    print(f"depth = {depth}")
    if args.out:
        _write_json(args.out, {"depth": depth, "function": f.to_spec(),
                               "model": args.model, "tree": _TREE_SLOT % 0}, [tree])
    else:
        print(f"tree = {serialize_tree(tree)}")
    return 0


def _parse_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text, 10), int(hi_text, 10)
        else:
            lo = hi = int(text, 10)
    except ValueError:
        raise ValueError(
            f"--n expects a value like 3 or a range like 1..3, got {text!r}"
        ) from None
    if lo > hi:
        raise ValueError(f"empty arity range {text!r}")
    return tuple(range(lo, hi + 1))


def cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        ns=_parse_range(args.n_range),
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        exhaustive=args.exhaustive,
    )
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check}: {r.cases} cases, {r.failures} failures"
              f" ({r.note})")
        if r.details is not None:
            print(f"     details: {json.dumps(r.details, sort_keys=True)}")
        if not r.passed and r.counterexample is not None:
            print("     counterexample: "
                  f"{json.dumps(r.counterexample, sort_keys=True)}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"suite {report.suite}: {verdict} ({len(report.records)} checks)")
    if args.json_path:
        _write_json(args.json_path, report.to_json_dict())
    return 0 if report.passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser, built on first use and reused: it reads no
    environment default and no action appends to a shared list."""
    top = argparse.ArgumentParser(
        prog="uquery",
        description="Hazard-free extensions, query-complexity measures, "
                    "oracle solvers and their verification suites.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def cap_flag(p):
        p.add_argument("--cap", type=int, default=None, metavar="ARITY",
                       help=f"max arity guard (env fallback {ENV_CAP})")

    p = sub.add_parser("gen", help="resolve a function spec to its table form")
    p.add_argument("spec", help="e.g. or:3, ind:2, table:e8:3, random:3:42")
    p.add_argument("--out", metavar="PATH", help="write a JSON description")
    cap_flag(p)
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("eval", help="evaluate the hazard-free extension")
    p.add_argument("spec")
    p.add_argument("input", help="ternary string over 0/1/u, e.g. 0u1")
    cap_flag(p)
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("measures", help="full measure report for a function")
    p.add_argument("spec")
    p.add_argument("--witnesses", action="store_true",
                   help="include attaining inputs, families and trees")
    p.add_argument("--json", dest="json_path", metavar="PATH")
    cap_flag(p)
    p.set_defaults(run=cmd_measures)

    p = sub.add_parser("solve", help="run an oracle solver on a hidden input")
    p.add_argument("spec")
    p.add_argument("hidden", help="ternary string the oracle answers from")
    p.add_argument("--method", default="algorithm1",
                   choices=("algorithm1", "tree", "monotone", "unate"))
    p.add_argument("--json", dest="json_path", metavar="PATH")
    cap_flag(p)
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("tree", help="exact optimal decision tree and depth")
    p.add_argument("spec")
    p.add_argument("--model", default="u", choices=("u", "binary"))
    p.add_argument("--out", metavar="PATH", help="write the tree as JSON")
    cap_flag(p)
    p.set_defaults(run=cmd_tree)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("all",) + SUITES)
    p.add_argument("--n", dest="n_range", default="1..3", metavar="LO..HI",
                   help="arities to sweep (default 1..3)")
    p.add_argument("--samples", type=int, default=0, metavar="COUNT",
                   help="seeded random arity-4 tables to add")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None, metavar="COUNT",
                   help="worker processes (default: available processors)")
    p.add_argument("--exhaustive", action="store_true",
                   help="with --n reaching 4: sweep all 65536 tables")
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write the machine-readable report")
    p.set_defaults(run=cmd_verify)
    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
