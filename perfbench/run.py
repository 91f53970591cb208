"""uquery benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  Each
measurement runs in a fresh interpreter (``worker.py``), which calls
``uquery.cli.main(argv)`` in-process with stdout captured and checks every
operation's output.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Before the workload process,
``SETUP_PROBES`` fresh interpreters only set up, and the first few of them
(``Workload.probes``) also run the first operation; ``setup_s`` and
``first_answer_s`` are medians over those probes and the workload process.
Every time is scaled to ``REFERENCE_S``, the time of the worker's reference
loop on a calm 2-CPU x86-64 machine: a time measured while the loop took
``ref`` (timed during it, see ``worker.py``) is reported as
``time * REFERENCE_S / ref``.  The unscaled values are printed on a ``#`` line.

``--trace 1`` runs the workload twice in two fresh interpreters, once plain
and once with spans around every layer entry point (``tracer.py``), each for
half of ``--seconds``, and reports the per-layer metrics of the traced run and
its overhead against the plain one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 6
DEADLINE_S = 170.0
REFERENCE_S = 0.0045


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str, small: bool,
            deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    if small:
        argv.append("--small")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # The worker leads its own process group, so any process it started goes too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{mode} worker for {workload} ran past the deadline")
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"{mode} worker for {workload} exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scale(times: list[float], refs: list[float], scaled: bool) -> list[float]:
    return [t * REFERENCE_S / ref if scaled else t for t, ref in zip(times, refs)]


def latencies(run: dict, scaled: bool) -> list[float]:
    return scale(run["latencies"], run["ref_s"], scaled)


def later_requests(run: dict, lat: list[float]) -> list[float]:
    """Latency of each request after the one holding the first answer."""
    total: dict[int, float] = {}
    for t, request in zip(lat, run["requests"]):
        total[request] = total.get(request, 0.0) + t
    later = [t for request, t in total.items() if request != run["requests"][0]]
    return later or list(total.values())


def end_to_end(timed: dict, probes: list[dict], scaled: bool = True) -> dict:
    runs = probes + [timed]
    lat = latencies(timed, scaled)
    later = later_requests(timed, lat)
    firsts = [latencies(run, scaled)[0] for run in runs if run.get("latencies")]
    setups = [scale([run["setup_s"]], [run["setup_ref_s"]], scaled)[0] for run in runs]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(timed["work"]) / sum(lat), "1/s"),
        "first_answer_s": (statistics.median(firsts), "s"),
        "op_p50_s": (statistics.median(later), "s"),
        "op_p95_s": (percentile(later, 0.95), "s"),
        "cpu_s": (sum(scale(timed["cpu_s"], timed["ref_s"], scaled)), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }


LAYER_UNITS = {"calls": "count", "inputs": "count", "tree_nodes": "count",
               "rounds": "count", "queries": "count", "cases": "count",
               "queries_per_bound": "ratio"}


def per_layer(plain: dict, traced: dict) -> dict:
    out = {name: (value, LAYER_UNITS.get(name.rsplit(".", 1)[1], "s"))
           for name, value in traced["layers"].items()}
    # Layer times share the traced process's clock, so the wall time stays
    # unscaled; the overhead compares two processes, so it is scaled.
    out["trace.wall_s"] = (sum(traced["latencies"]), "s")
    out["trace.overhead"] = (
        sum(latencies(traced, True)) / sum(latencies(plain, True)) - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "uquery" / "__init__.py").is_file():
        print(f"error: no uquery package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    deadline = time.monotonic() + DEADLINE_S

    def run(mode: str, seconds: float) -> dict:
        return _worker(args.workload, args.seed, seconds, mode, args.small, deadline)
    try:
        if args.trace:
            plain = run("untraced", args.seconds / 2)
            timed = run("traced", args.seconds / 2)
            metrics = per_layer(plain, timed)
            runs = [plain, timed]
        else:
            first = WORKLOADS[args.workload].probes
            probes = [run("first" if i < first else "setup", args.seconds)
                      for i in range(SETUP_PROBES)]
            timed = run("timed", args.seconds)
            metrics = end_to_end(timed, probes)
            runs = probes + [timed]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in runs for f in r.get("failures", ())]
    attempted = sum(len(r.get("latencies", ())) for r in runs)
    machine = {"nproc": os.cpu_count(), "machine": platform.machine(),
               "python": timed["python"], "numpy": timed["numpy"]}
    print(f"# machine: {json.dumps(machine)}")
    print(f"# workload {args.workload} seed {args.seed}: {len(timed['latencies'])} "
          f"operations in {len(set(timed['requests']))} requests; "
          f"{len(later_requests(timed, timed['latencies']))} later-request latency samples")
    if not args.trace:
        unscaled = end_to_end(timed, probes, scaled=False)
        print(f"# unscaled: {json.dumps({k: v for k, (v, _) in unscaled.items()})}")
        print(f"# reference loop: median {statistics.median(timed['ref_s']):.6f} s "
              f"during operations, scaled to {REFERENCE_S} s")
    else:
        print(f"# spans called: {json.dumps(timed['calls'])}")
        print(f"# self time total {timed['self_s_total']:.4f} s of "
              f"{metrics['trace.wall_s'][0]:.4f} s traced; "
              f"{timed['bindings']} bindings patched")
    for failure in failures[:10]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
