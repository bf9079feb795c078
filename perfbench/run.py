"""End-to-end fleet benchmark: one command, every metric by name and unit.

Usage, from the repository root::

    python3 perfbench/run.py --workload zipf_telemetry --seed 7 --seconds 25 --trace 0

Every measurement runs in a fresh child process (``harness.py``).  With
``--trace 0`` the command first starts ``SETUP_PROBES`` children that only
time ``import repro`` plus fleet construction, then one child that measures
the workload with no tracing; it prints the end-to-end metrics.  With
``--trace 1`` one child runs untraced passes and then the same number of
traced passes, prints the per-layer metrics and a per-layer table whose rows
and residual sum to the traced wall, and writes every span and counter to
``perfbench/out/trace_<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness gate is named on standard error and the command exits with 1.
See ``perfbench/README.md`` for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS = HERE / "harness.py"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from harness import WORKLOADS  # noqa: E402  (stdlib-only; imports no repro)

DEFAULT_SEED = 7
HELD_OUT_SEED = 1009  # gain claims must also hold here; never tune on it
SETUP_PROBES = 4  # plus the measuring child's own sample: median of five
PROBE_TIMEOUT_S = 20
DEADLINE_S = 175  # the whole command, probes included, ends within this


def child_env(workload: str) -> dict:
    """Environment of a measuring child: sequential executor, pinned hashing,
    and the column backend the workload names."""
    env = dict(os.environ)
    env.pop("REPRO_PARALLEL", None)
    env.pop("REPRO_NO_NUMPY", None)
    if WORKLOADS[workload].no_numpy:
        env["REPRO_NO_NUMPY"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list, workload: str, timeout: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HARNESS), *args],
        cwd=ROOT,
        env=child_env(workload),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"measuring process exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def report(workload: str, result: dict, metrics: dict, setups=None) -> None:
    """Human-readable lines ahead of the JSON result line."""
    facts = result["facts"]
    print(f"# workload {workload}: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(
        f"# passes={result['passes']} segments={result['segments']} "
        f"rows={result['attempted']} failed={result['failed']}"
    )
    if "host_clock" in result:
        clock = result["host_clock"]
        print(f"# unscaled host clock: ingest {clock['ingest_kdesc_s_unscaled']:.4g} kdesc/s; "
              "calibration loop ms per pass: "
              + ", ".join(f"{value:.3f}" for value in clock["calibration_ms_per_pass"]))
    if setups is not None:
        print("# setup_s samples, scaled (unscaled): " + ", ".join(
            f"{setup['setup_s']:.4f} ({setup['setup_s_unscaled']:.4f})" for setup in setups))
    for name, entry in metrics.items():
        samples = f"  (n={entry['samples']})" if "samples" in entry else ""
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}{samples}")
    if "table" in result:
        print(f"# per-layer self time, traced passes ({result['trace_file']})")
        for row in result["table"]:
            print(f"#   {row['name']:34s} {row['self_ms']:12.2f} ms {row['share']:7.1%}"
                  f"  calls={row['calls']}")
        print(f"#   {'total (= traced wall)':34s} "
              f"{sum(row['self_ms'] for row in result['table']):12.2f} ms")
    for name, ok in result["gates"].items():
        print(f"# gate {name}: {'ok' if ok else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_child([*common, "--probe-setup"], args.workload, PROBE_TIMEOUT_S))
    result = run_child(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
        args.workload,
        DEADLINE_S - (time.monotonic() - start),
    )

    metrics = {}
    if not args.trace:
        setups.append(result["setup"])
        metrics["setup_s"] = {
            "value": statistics.median(setup["setup_s"] for setup in setups), "unit": "s",
            "samples": len(setups),
        }
    for name, entry in result["metrics"].items():
        metrics[name] = {"value": entry[0], "unit": entry[1]}
        if len(entry) > 2:
            metrics[name]["samples"] = entry[2]
    report(args.workload, result, metrics, setups if not args.trace else None)

    OUT_DIR.mkdir(exist_ok=True)
    record = {**result, "metrics": metrics, "setup_samples": setups}
    (OUT_DIR / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    correct = all(result["gates"].values())
    for name, ok in result["gates"].items():
        if not ok:
            print(f"correctness gate failed: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
