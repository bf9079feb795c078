"""Self-test of the benchmark harness at tiny size (about 20 seconds).

    python3 perfbench/selftest.py

Checks that:

1. every workload prints every metric ``BENCHMARK.json`` names, with its
   unit, in both modes (``--trace 0``: end-to-end; ``--trace 1``:
   per-layer), and passes its correctness gates;
2. a corrupted oracle (one descriptor dropped from it) trips a gate;
3. the traced run's wrappers are gone before any untraced run, and the
   per-layer table plus residual sums to the traced wall.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SEED = run.DEFAULT_SEED
failures = []


def check(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def metric_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def check_emitted_metrics() -> None:
    expected = {0: metric_units("end_to_end"), 1: metric_units("per_layer")}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            label = f"{workload} --trace {trace}"
            if completed.returncode != 0:
                check(False, f"{label} exited {completed.returncode}: {completed.stderr[-500:]}")
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} result keys")
            check(result["correct"] and result["attempted"] >= 1, f"{label} gates pass")
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            check(units == expected[trace], f"{label} emits every named metric with its unit")


def check_corrupted_oracle() -> None:
    workload = harness.tiny(harness.WORKLOADS["zipf_telemetry"])
    result = harness.measure(workload, SEED, 0, trace=False, min_passes=1, oracle_drop=1)
    tripped = sorted(name for name, ok in result["gates"].items() if not ok)
    check("completed_eq_offered" in tripped,
          f"an oracle missing one descriptor trips a gate (tripped: {tripped})")


def check_wrappers_removed() -> None:
    workload = harness.tiny(harness.WORKLOADS["failover_replicated"])
    check(tracer.wrapped_boundaries() == [], "no wrappers before the traced run")
    traced = harness.measure(workload, SEED, 0, trace=True, min_passes=1)
    check(traced["metrics"]["engine.rows"][0] > 0, "the traced run recorded work")
    check(tracer.wrapped_boundaries() == [], "wrappers are gone after the traced run")
    spans = json.loads((ROOT / traced["trace_file"]).read_text())["spans"]
    check(len(spans) > 0, "the trace file holds spans")
    table_ms = sum(row["self_ms"] for row in traced["table"])
    share = sum(row["share"] for row in traced["table"])
    check(abs(share - 1.0) < 1e-9 and table_ms > 0, "table rows plus residual sum to the wall")
    untraced = harness.measure(workload, SEED, 0, trace=False, min_passes=1)
    check(all(untraced["gates"].values()), "an untraced run after a traced one passes its gates")


def main() -> int:
    check_emitted_metrics()
    check_corrupted_oracle()
    check_wrappers_removed()
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
