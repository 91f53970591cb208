"""Spans around uquery's layer entry points, recorded from outside the package.

``Tracer.install`` wraps each entry point in ``ENTRY_POINTS`` and puts the
wrapper in place of *every* binding of the original function inside the
``uquery`` package: ``cli``, ``algorithms`` and ``verification`` import layer
functions by name, so patching only the defining module would leave those
calls untimed.  Each call records a span (name, start, end, parent);
``layer_metrics`` turns the spans and counters into the per-layer metrics.

Spans nest because the package is single-threaded when traced (``verify``
is traced with ``--workers 1``).  A span's self time is its duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from uquery.verification import SUITES


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _tree_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        for key in ("on0", "on1", "onU"):
            child = getattr(node, key, None)
            if child is not None:
                stack.append(child)
    return count


def _count_tree(tracer: "Tracer", args, result) -> None:
    tracer.counts["trees.tree_nodes"] += _tree_nodes(result[1])


def _count_table_inputs(name: str):
    def after(tracer: "Tracer", args, result) -> None:
        tracer.counts[name + ".inputs"] += 3 ** args[0].arity
    return after


def _count_verify_tree(tracer: "Tracer", args, result) -> None:
    tracer.counts["trees.verify_tree.inputs"] += 3 ** args[1].arity


def _count_solve(tracer: "Tracer", args, result) -> None:
    tracer.counts["algorithms.queries"] += result.queries
    tracer.counts["algorithms.bound"] += result.bound


def _count_cases(tracer: "Tracer", args, result) -> None:
    tracer.counts["verification.cases"] += sum(r.cases for r in result.records)


def _suite_span(args, kwargs) -> str:
    return "verification." + (args[0] if args else kwargs["suite"])


@dataclass(frozen=True)
class EntryPoint:
    module: str
    attr: str
    span: str | Callable
    after: Callable | None = None


# Every wrapped function, the span it records and the counters it updates.
ENTRY_POINTS = (
    EntryPoint("uquery.core", "hazard_free_table", "core.hazard_free_table"),
    EntryPoint("uquery.measures", "_sensitivity_scan", "measures.s_u"),
    EntryPoint("uquery.measures", "block_summary", "measures.block_summary",
               _count_table_inputs("measures.block_summary")),
    EntryPoint("uquery.measures", "certificate_summary",
               "measures.certificate_summary",
               _count_table_inputs("measures.certificate_summary")),
    EntryPoint("uquery.measures", "certificate_u_at", "measures.certificate_u_at"),
    EntryPoint("uquery.measures", "standard_measures", "measures.standard_measures"),
    EntryPoint("uquery.measures", "measure_report", "measures.measure_report"),
    EntryPoint("uquery.trees", "query_complexity_u", "trees.query_complexity_u",
               _count_tree),
    EntryPoint("uquery.trees", "query_complexity", "trees.query_complexity",
               _count_tree),
    EntryPoint("uquery.trees", "verify_tree", "trees.verify_tree",
               _count_verify_tree),
    EntryPoint("uquery.algorithms", "_cost_budget", "algorithms.budget"),
    # The shared solver body behind algorithm1_solve, certificate_solver and
    # instrumented_claims_check, so that verify's solver runs count too.
    EntryPoint("uquery.algorithms", "_run_algorithm1",
               "algorithms.algorithm1_solve", _count_solve),
    EntryPoint("uquery.verification", "run_suite", _suite_span, _count_cases),
    EntryPoint("uquery.cli", "main", "cli.main"),
)

# A call made directly from the named enclosing span is part of that span's
# per-input scan and is not recorded on its own: certificate_u_at spans count
# pointwise use (the solver's rounds), not the 3**n calls of the summary.
FOLDED = {"measures.certificate_u_at": "measures.certificate_summary"}

# Span name -> whether its metric is self time (True) or total time (False).
TIMED = {
    "core.hazard_free_table": False,
    "measures.block_summary": False,
    "measures.certificate_summary": False,
    "measures.certificate_u_at": False,
    "measures.s_u": False,
    "measures.standard_measures": False,
    "measures.measure_report": True,
    "trees.query_complexity_u": False,
    "trees.query_complexity": False,
    "trees.verify_tree": False,
    "algorithms.budget": False,
    "algorithms.algorithm1_solve": True,
    "cli.main": True,
    **{f"verification.{suite}": False for suite in SUITES},
}

CALLED = (
    "core.hazard_free_table", "measures.block_summary",
    "measures.certificate_summary", "measures.certificate_u_at",
    "trees.query_complexity_u", "trees.query_complexity",
    "algorithms.algorithm1_solve",
)

COUNTED = (
    "measures.block_summary.inputs", "measures.certificate_summary.inputs",
    "trees.verify_tree.inputs", "trees.tree_nodes", "algorithms.rounds",
    "algorithms.queries", "verification.cases",
)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def _wrap(self, entry: EntryPoint, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = (entry.span(args, kwargs) if callable(entry.span)
                    else entry.span)
            parent = tracer._parent_name()
            if name in FOLDED and FOLDED[name] == parent:
                return fn(*args, **kwargs)
            if name == "measures.certificate_u_at" and \
                    parent == "algorithms.algorithm1_solve":
                tracer.counts["algorithms.rounds"] += 1
            index = len(tracer.spans)
            span = Span(name, 0.0, parent=tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].child_s += span.total_s
            if entry.after is not None:
                # Counting (a tree walk, say) is charged to no layer: it is
                # booked as a child of the caller's span, outside this one.
                begin = perf_counter()
                entry.after(tracer, args, result)
                if span.parent is not None:
                    tracer.spans[span.parent].child_s += perf_counter() - begin
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Replace every package binding of each entry point; returns how many."""
        for entry in ENTRY_POINTS:
            original = getattr(sys.modules[entry.module], entry.attr)
            wrapper = self._wrap(entry, original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "uquery" or name.startswith("uquery.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        return len(self._restore)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: span times in seconds, call and work counts."""
        times = {name: 0.0 for name in TIMED}
        for span in self.spans:
            times[span.name] += span.self_s if TIMED[span.name] else span.total_s
        out: dict[str, float] = {}
        for name, use_self in TIMED.items():
            out[f"{name}.{'self_s' if use_self else 's'}"] = times[name]
        for name in CALLED:
            out[f"{name}.calls"] = self.calls(name)
        for name in COUNTED:
            out[name] = self.counts[name]
        bound = self.counts["algorithms.bound"]
        out["algorithms.queries_per_bound"] = (
            self.counts["algorithms.queries"] / bound if bound else 0.0)
        return out

    def self_time_total(self) -> float:
        return sum(span.self_s for span in self.spans)
