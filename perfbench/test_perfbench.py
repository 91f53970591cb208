"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import COUNTED, Tracer  # noqa: E402
from worker import Sampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = [name for name in (m["name"] for m in SPEC["per_layer"])
         if name.endswith((".calls", ".inputs")) or name in COUNTED]


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args, "--small"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced(name: str) -> dict:
    return run._worker(name, 3, 8, "traced", True, time.monotonic() + 120)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted(name, trace, kind):
    result = _bench("--workload", name, "--seed", "3", "--seconds", "8",
                    "--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_exact_and_complete(name):
    first, second = _traced(name), _traced(name)
    assert not first["failures"]
    # Every span the workload should exercise records at least one call.
    assert all(first["calls"][span] >= 1 for span in WORKLOADS[name].spans), first["calls"]
    # Work counts repeat bit for bit.
    assert {k: first["layers"][k] for k in EXACT} == {k: second["layers"][k] for k in EXACT}
    # Self times never add up to more than the traced wall time.
    assert first["self_s_total"] <= sum(first["latencies"])


def test_every_binding_is_patched():
    import uquery.algorithms
    import uquery.cli
    import uquery.measures
    import uquery.verification

    originals = (uquery.cli.measure_report, uquery.algorithms.certificate_u_at,
                 uquery.verification.query_complexity_u, uquery.measures.block_summary)
    tracer = Tracer()
    tracer.install()
    try:
        patched = (uquery.cli.measure_report, uquery.algorithms.certificate_u_at,
                   uquery.verification.query_complexity_u, uquery.measures.block_summary)
        assert all(p.__wrapped__ is o for p, o in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert uquery.cli.measure_report is originals[0]


def test_operation_scaled_by_loop_timed_during_it():
    sampler = Sampler()
    sampler.samples = [(0.0, 1.0), (1.5, 3.0), (2.5, 5.0), (4.0, 7.0)]
    assert sampler.during(1.0, 3.0) == 4.0  # the two timings inside
    assert sampler.during(3.0, 3.5) == 6.0  # none inside: the ones either side


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tree-search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip()
