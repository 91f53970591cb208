"""One workload process: import uquery, build the inputs, run and check every operation.

Started by ``run.py`` in a fresh interpreter for every measurement, so no
cache survives from one run into the next (``algorithms._cost_budget`` is an
``lru_cache`` keyed by table content) and peak memory is this process's own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,first,timed,untraced,traced} --spawned-at T [--small]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; ``setup_s`` runs from there until the inputs are built.  Mode
``setup`` stops there, ``first`` runs only the first operation.  The result
is one JSON object on the last line of stdout.

The speed of a shared machine drifts, by up to half and within seconds,
for interpreted code and CPU time alike.  So the worker also times a fixed
pure-Python loop (``Sampler``) while it runs: every ``SETUP_SAMPLE_EVERY_S``
during set-up and, in modes ``first`` and ``timed``, every ``SAMPLE_EVERY_S``
during operations, from a timer signal; and at least every
``CALIBRATE_EVERY_S`` between operations and at the end.  The time the samples
take is subtracted from set-up and from each operation's latency and CPU time.
The worker reports, for set-up and for each operation, the loop time during it
(the mean of the samples taken during it, else of the samples just before and
just after it), and ``run.py`` scales each time by that.  A loop timed before
and after a multi-second operation, or after set-up, tracks its speed poorly;
one timed while it runs tracks it closely.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CALIBRATE_EVERY_S = 0.5
SAMPLE_EVERY_S = 0.2
SETUP_SAMPLE_EVERY_S = 0.04


def _reference_work() -> int:
    # Interpreted Python of the kind uquery runs: a loop over small tuples.
    total = 0
    for i in range(20000):
        trits = (i % 3, i // 3 % 3, i // 9 % 3)
        total += sum(trits) ^ len(trits)
    return total


class Sampler:
    """Timings of the reference loop, each stamped with when it was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent_s = 0.0      # wall time spent sampling
        self.spent_cpu_s = 0.0  # CPU time spent sampling

    def sample(self, *_signal_args) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        _reference_work()
        loop_s = time.perf_counter() - start
        self.samples.append((start, loop_s))
        self.spent_s += loop_s
        self.spent_cpu_s += time.process_time() - cpu

    def start(self, every_s: float) -> None:
        """Also sample every ``every_s``, whatever the program is doing."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def during(self, start: float, end: float) -> float:
        """The loop time while [start, end] ran."""
        inside = [v for t, v in self.samples if start <= t <= end]
        if inside:
            return sum(inside) / len(inside)
        before = [v for t, v in self.samples if t < start][-1:]
        after = [v for t, v in self.samples if t > end][:1]
        return sum(before + after) / len(before + after)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    sampler = Sampler()
    sampler.sample()
    sampler.start(SETUP_SAMPLE_EVERY_S)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "first", "timed", "untraced", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "uquery" / "__init__.py").is_file():
        print(f"error: no uquery package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import uquery
    import uquery.cli
    if Path(uquery.__file__).resolve().parent != (SRC / "uquery").resolve():
        print(f"error: imported uquery from {uquery.__file__}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, CheckFailed

    traced = args.mode in ("untraced", "traced")
    ops = WORKLOADS[args.workload].ops(args.seed, args.seconds, args.small, traced)
    setup_s = time.monotonic() - args.spawned_at - sampler.spent_s
    sampler.stop()
    result: dict = {"setup_s": setup_s,
                    "setup_ref_s": sum(v for _, v in sampler.samples) / len(sampler.samples),
                    "numpy": numpy.__version__, "python": sys.version.split()[0]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "first":
        ops = ops[:1]
    result["requests"] = [op.request for op in ops]
    tracer = Tracer()
    if args.mode == "traced":
        result["bindings"] = tracer.install()
    latencies, cpu_s, work, failures, spans = [], [], [], [], []
    sampler.sample()
    if args.mode in ("first", "timed"):
        sampler.start(SAMPLE_EVERY_S)
    for op in ops:
        if time.perf_counter() - sampler.samples[-1][0] > CALIBRATE_EVERY_S:
            sampler.sample()
        out, err = io.StringIO(), io.StringIO()
        spent_s, spent_cpu_s = sampler.spent_s, sampler.spent_cpu_s
        cpu_before = _cpu_s()
        tracer.active = args.mode == "traced"
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = uquery.cli.main(list(op.argv))
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        end, cpu_after = time.perf_counter(), _cpu_s()
        spent_s, spent_cpu_s = sampler.spent_s - spent_s, sampler.spent_cpu_s - spent_cpu_s
        tracer.active = False
        latencies.append(end - start - spent_s)
        cpu_s.append(cpu_after - cpu_before - spent_cpu_s)
        spans.append((start, end))
        try:
            if rc is None:
                raise CheckFailed(f"{' '.join(op.argv)}: raised {err.getvalue()[-300:]}")
            work.append(op.check(rc, out.getvalue()))
        except (CheckFailed, KeyError, ValueError) as exc:
            work.append(0)
            failures.append(f"{' '.join(op.argv)}: {exc!r}")
    sampler.stop()
    sampler.sample()
    result.update(
        latencies=latencies,
        cpu_s=cpu_s,
        ref_s=[sampler.during(start, end) for start, end in spans],
        work=work,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.mode == "traced":
        tracer.uninstall()
        result.update(layers=tracer.layer_metrics(),
                      self_s_total=tracer.self_time_total(),
                      calls={name: tracer.calls(name)
                             for name in WORKLOADS[args.workload].spans})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
