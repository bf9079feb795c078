"""One measurement process of the fleet benchmark.

``run.py`` starts this file in a fresh interpreter for every measurement, so
``setup_s`` can time ``import repro`` from nothing and so ``REPRO_NO_NUMPY``
can select the column backend before the package is imported.  Nothing from
``repro`` is imported at module level for the same reason.

A *pass* replays one workload's pre-generated input block through a freshly
built fleet: fixed-size segments cut with ``slice_rows`` go to
``ClusterCoordinator.ingest`` from a single caller with no think time, and
the workload's periodic operations (exporter passes, merged queries, control
steps, fail→join cycles) run between segments.  That replay loop is the
timed region; after it the gates check the fleet's books against an oracle
computed from the input block.  A run repeats passes, every one on the same
input, while another still fits in ``--seconds``.

Invoked as ``python3 perfbench/harness.py --workload NAME --seed N
--seconds S --trace 0|1`` it prints one JSON document; with
``--probe-setup`` it only times import plus fleet construction.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402  (stdlib-only; safe before repro)

MEAN_GAP_PS = 70_000  # the scenario library's mean inter-packet gap
CALIBRATION_LOOPS = 10_000
# The calibration loop's time on an uncontended host: 2-vCPU Firecracker VM,
# Python 3.11.7 (its fastest runs measured 1.21 ms).
CALIBRATION_REF_MS = 1.25
CALIBRATION_WINDOW = 4  # samples either side of a step set its host speed
MIN_PASSES = 2  # a step's fastest repeat needs at least two repeats


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    telemetry: bool
    replication: int
    segment_rows: int
    pass_segments: int
    query_every: Optional[int] = None  # segments between merged queries
    export_every: Optional[int] = None  # segments between exporter passes
    timeout_divisor: Optional[int] = None  # flow timeout = pass duration / this
    obs_windows: Optional[int] = None  # windows per pass; adds alerts + control
    cycles: int = 0  # fail→join cycles per pass, at fixed segment indices
    checkpoint_interval: Optional[int] = None
    no_numpy: bool = False

    @property
    def pass_rows(self) -> int:
        return self.segment_rows * self.pass_segments

    def cycle_segments(self) -> List[int]:
        step = self.pass_segments // (self.cycles + 1)
        return [step * (index + 1) for index in range(self.cycles)]


ZIPF_TELEMETRY = Workload(
    name="zipf_telemetry",
    scenario="zipf_mix",
    telemetry=True,
    replication=1,
    segment_rows=256,
    pass_segments=100,
    query_every=32,
)
WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        ZIPF_TELEMETRY,
        Workload(
            name="churn_flowtable",
            scenario="churn",
            telemetry=False,
            replication=1,
            segment_rows=1024,
            pass_segments=104,
            export_every=8,
            timeout_divisor=64,
        ),
        Workload(
            name="failover_replicated",
            scenario="hotspot_shift",
            telemetry=True,
            replication=2,
            segment_rows=256,
            pass_segments=100,
            query_every=16,
            obs_windows=16,
            cycles=5,
            checkpoint_interval=1024,
        ),
        replace(ZIPF_TELEMETRY, name="zipf_stdlib", no_numpy=True),
    )
}


def tiny(workload: Workload) -> Workload:
    """The self-test size: same shape, a few hundred rows per pass."""
    return replace(
        workload,
        segment_rows=32,
        pass_segments=16,
        query_every=workload.query_every and 8,
        export_every=workload.export_every and 4,
        checkpoint_interval=workload.checkpoint_interval and 64,
    )


# --------------------------------------------------------------------------- #
# Fleet, oracle, gates
# --------------------------------------------------------------------------- #


def build_fleet(workload: Workload, seed: int, duration_ps: int):
    """The coordinator (and control loop) every pass starts from."""
    from repro.cluster import ClusterControl, ClusterCoordinator, RebalancePolicy
    from repro.obs import Observability

    obs = None
    if workload.obs_windows:
        obs = Observability(window_ps=max(1, duration_ps // workload.obs_windows), alerts=True)
    timeout_us = None
    if workload.timeout_divisor:
        timeout_us = duration_ps / workload.timeout_divisor / 1e6
    coordinator = ClusterCoordinator(
        nodes=4,
        shards_per_node=1,
        telemetry=workload.telemetry,
        telemetry_seed=seed,
        flow_timeout_us=timeout_us,
        replication=workload.replication,
        checkpoint_interval=workload.checkpoint_interval,
        obs=obs,
    )
    control = ClusterControl(coordinator, rebalance=RebalancePolicy()) if obs else None
    return coordinator, control


@dataclass
class Oracle:
    """Exact answers computed from the generated input, not the program."""

    rows: int
    bytes: int
    top10: List[bytes]


def build_oracle(block, drop: int = 0) -> Oracle:
    """Per-flow byte totals over the block; ``drop`` omits trailing rows
    (the self-test's corrupted oracle)."""
    keys = block.packed_keys()
    lengths = block.lengths.tolist()
    count = len(keys) - drop
    per_flow: Dict[bytes, int] = {}
    for key, length in zip(keys[:count], lengths[:count]):
        per_flow[key] = per_flow.get(key, 0) + length
    ranked = sorted(per_flow.items(), key=lambda item: (-item[1], item[0]))
    return Oracle(rows=count, bytes=sum(lengths[:count]), top10=[key for key, _ in ranked[:10]])


def check_gates(
    workload: Workload, coordinator, merged, oracle: Oracle, exported: int
) -> Dict[str, bool]:
    """Each gate by name; ``merged`` is the fleet's merged telemetry (or None)."""
    books = coordinator.flow_books()
    gates = {
        "books_balanced": bool(books["balanced"]),
        "completed_eq_offered": coordinator.cluster_totals()["completed"] == oracle.rows,
    }
    if merged is not None:
        gates["telemetry_packets_eq_offered"] = merged.packets == oracle.rows
        gates["telemetry_bytes_eq_offered"] = merged.bytes == oracle.bytes
    if workload.replication > 1:
        gates["no_flows_lost"] = coordinator.flows_lost == 0
    if workload.export_every:
        gates["exported_plus_active_eq_created"] = (
            exported + coordinator.active_flows == books["flows_created"]
        )
    return gates


def top10_recall(merged, oracle: Oracle) -> float:
    answer = {hitter.key for hitter in merged.top_talkers(10)}
    return len(answer & set(oracle.top10)) / max(1, len(oracle.top10))


# --------------------------------------------------------------------------- #
# One pass
# --------------------------------------------------------------------------- #


def _query(coordinator) -> None:
    merged = coordinator.merged_telemetry()
    merged.top_talkers(10)
    merged.superspreaders()
    merged.port_scan_suspects()


def _last_ts(block) -> int:
    return int(block.timestamps[len(block) - 1])


def calibration_ms() -> float:
    """Time one fixed pure-Python loop that touches nothing of the program."""
    start = time.perf_counter_ns()
    value = 0
    for i in range(CALIBRATION_LOOPS):
        value ^= (i * 2654435761) & 0xFFFFFFFF
    return (time.perf_counter_ns() - start) / 1e6


class Steps:
    """Wall time of every loop step of a pass, keyed ``(kind, segment index)``.

    Passes replay identical input through identically built fleets, so a
    key names the same work in every pass of a run.  Between steps the
    loop runs :func:`calibration_ms`; its time tracks how fast the host
    is running this process at that moment (a shared host slows everyone
    down together, by up to ~40% for tens of seconds).  :meth:`scaled`
    expresses each step at the reference host speed.
    """

    def __init__(self) -> None:
        self.raw: List[tuple] = []  # (key, ms, calibration samples so far)
        self.calibration: List[float] = []
        self.calibration_ns = 0

    def time(self, kind: str, index: int, fn, *args):
        start = time.perf_counter_ns()
        result = fn(*args)
        elapsed = (time.perf_counter_ns() - start) / 1e6
        self.raw.append(((kind, index), elapsed, len(self.calibration)))
        return result

    def calibrate(self) -> None:
        elapsed = calibration_ms()
        self.calibration_ns += int(elapsed * 1e6)
        self.calibration.append(elapsed)

    def scaled(self) -> Dict[tuple, float]:
        """Step ms times ``CALIBRATION_REF_MS`` over the median calibration
        time of the samples around the step."""
        samples = self.calibration
        result = {}
        for key, elapsed, index in self.raw:
            lo, hi = max(0, index - CALIBRATION_WINDOW), index + CALIBRATION_WINDOW
            window = sorted(samples[lo:hi])
            result[key] = elapsed * CALIBRATION_REF_MS / window[len(window) // 2]
        return result


def run_pass(workload: Workload, seed: int, block, oracle: Oracle, tracer=None) -> dict:
    """Build a fleet, replay the block through the timed loop, check the gates."""
    rows = workload.segment_rows
    duration = _last_ts(block) - int(block.timestamps[0])
    # Every pass starts from the same collector state: objects alive now are
    # moved out of the collector's view, so collections fall at the same
    # steps in every pass and a step's repeats stay comparable.
    gc.collect()
    gc.freeze()
    coordinator, control = build_fleet(workload, seed, duration)
    cycle_at = set(workload.cycle_segments())
    steps = Steps()
    retired: list = []
    exported = 0

    steps.calibrate()
    if tracer is not None:
        tracer.active = True
    calibrated_ns = steps.calibration_ns
    loop_start = time.perf_counter_ns()
    for index in range(workload.pass_segments):
        if tracer is not None:
            tracer.trace_id = index
        segment = steps.time(
            "slice", index, block.slice_rows, index * rows, (index + 1) * rows
        )
        steps.time("ingest", index, coordinator.ingest, segment)
        if control is not None:
            steps.time("control", index, control.step)
        if workload.export_every and (index + 1) % workload.export_every == 0:
            steps.time("export", index, coordinator.run_housekeeping, _last_ts(segment))
            exported += len(steps.time("drain", index, coordinator.drain_exported))
        if workload.query_every and (index + 1) % workload.query_every == 0:
            steps.time("query", index, _query, coordinator)
        if index in cycle_at:
            victim = sorted(coordinator.nodes)[0]
            retired.append(coordinator.nodes[victim])
            steps.time("fail", index, coordinator.fail_node, victim)
            steps.time("join", index, coordinator.add_node, f"join{len(retired)}")
        steps.calibrate()
    # Walls exclude the calibration loops run in between.
    loop_ns = time.perf_counter_ns() - loop_start - (steps.calibration_ns - calibrated_ns)
    if tracer is not None:
        tracer.active = False

    exported += len(coordinator.drain_exported())
    merged = coordinator.merged_telemetry() if workload.telemetry else None
    gates = check_gates(workload, coordinator, merged, oracle, exported)
    totals = coordinator.cluster_totals()
    nodes = list(coordinator.nodes.values()) + retired
    routed = [coordinator.routed[node_id] for node_id in coordinator.nodes]
    facts = {
        "rows": oracle.rows,
        "completed": totals["completed"],
        "hits": totals["hits"],
        "new_flows": totals["new_flows"],
        "insert_failures": sum(node.insert_failures for node in nodes),
        "sim_mdesc_s": coordinator.throughput_mdesc_s,
        "node_skew": max(routed) * len(routed) / max(1, sum(routed)),
        "flows_migrated": coordinator.flows_migrated,
        "flows_restored": coordinator.flows_restored,
        "control_flows_moved": control.flows_moved if control is not None else 0,
        "top10_recall": top10_recall(merged, oracle) if merged is not None else 0.0,
    }

    return {
        "loop_ns": loop_ns,
        "steps": steps.scaled(),
        "raw_steps": {key: elapsed for key, elapsed, _ in steps.raw},
        "calibration_ms": statistics.median(steps.calibration),
        "gates": gates,
        "facts": facts,
    }


# --------------------------------------------------------------------------- #
# A run: passes until the time budget is spent
# --------------------------------------------------------------------------- #


def run_passes(workload, seed, block, oracle, seconds, min_passes, count=None, tracer=None):
    """Repeat passes while another one still fits in ``seconds`` at the mean
    pass time so far, and at least ``min_passes`` times (or exactly
    ``count`` times when given)."""
    passes = []
    start = time.perf_counter()
    while True:
        if count is not None:
            if len(passes) >= count:
                break
        elif len(passes) >= min_passes:
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        passes.append(run_pass(workload, seed, block, oracle, tracer))
    return passes


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def fastest_steps(passes: List[dict], field: str = "steps") -> Dict[tuple, float]:
    """Each step's fastest time over the run's passes.

    Every pass does the same work at the same step, so the spread between
    repeats of one step is the host's doing, not the program's.
    """
    best: Dict[tuple, float] = {}
    for record in passes:
        for key, ms in record[field].items():
            if key not in best or ms < best[key]:
                best[key] = ms
    return best


def pooled(passes: List[dict], kind: str) -> List[float]:
    """Every scaled sample of one step kind, over all passes; an exporter
    pass is its housekeeping step plus the drain that follows it."""
    samples = []
    for record in passes:
        for key, ms in record["steps"].items():
            if key[0] == kind:
                samples.append(ms + record["steps"][("drain", key[1])] if kind == "export" else ms)
    return samples


def failed_rows(record: dict) -> int:
    """Descriptors of one pass not completed, plus new-flow insert failures."""
    facts = record["facts"]
    return facts["rows"] - facts["completed"] + facts["insert_failures"]


def end_to_end(workload: Workload, passes: List[dict]) -> Dict[str, tuple]:
    """The user-visible metrics of a run, as ``name -> (value, unit, samples)``.

    Each step counts with its fastest (host-speed scaled) repeat: the
    segment percentiles are over the per-segment times, and the throughput
    divides a pass's rows by the sum over every step of the loop.
    """
    best = fastest_steps(passes)
    segments = [ms for (kind, _), ms in best.items() if kind == "ingest"]
    offered = sum(record["facts"]["rows"] for record in passes)
    failed = sum(failed_rows(record) for record in passes)
    return {
        # rows per millisecond is thousands of descriptors per second
        "ingest_kdesc_s": (workload.pass_rows / sum(best.values()), "kdesc/s", len(passes)),
        "segment_ms_p50": (percentile(segments, 0.5), "ms", len(segments)),
        "segment_ms_p90": (percentile(segments, 0.9), "ms", len(segments)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "completed_frac": ((offered - failed) / offered, "ratio", len(passes)),
    }


def host_clock(workload: Workload, passes: List[dict]) -> dict:
    """The unscaled figures, for the record next to the scaled metrics."""
    return {
        "ingest_kdesc_s_unscaled": workload.pass_rows
        / sum(fastest_steps(passes, "raw_steps").values()),
        "calibration_ms_per_pass": [record["calibration_ms"] for record in passes],
    }


def operations(passes: List[dict]) -> Dict[str, tuple]:
    """Operator-call latencies: the median of all scaled samples, 0 where
    the workload never makes the call."""

    def p50(kind: str) -> float:
        samples = pooled(passes, kind)
        return percentile(samples, 0.5) if samples else 0.0

    return {
        "query_ms_p50": (p50("query"), "ms"),
        "export_pass_ms_p50": (p50("export"), "ms"),
        "failover_ms_p50": (p50("fail"), "ms"),
        "join_ms_p50": (p50("join"), "ms"),
    }


def per_layer(passes: List[dict], baseline: List[dict], tracer) -> Dict[str, tuple]:
    """Per-layer metrics of the traced passes, per pass, as ``name -> (value, unit)``."""
    count = len(passes)
    stats = tracer.stats

    def ms(name: str, field: str = "total_ns") -> float:
        stat = stats.get(name)
        return getattr(stat, field) / 1e6 / count if stat else 0.0

    def calls(name: str) -> float:
        stat = stats.get(name)
        return stat.calls / count if stat else 0.0

    def extra(name: str) -> float:
        stat = stats.get(name)
        return stat.extra / count if stat else 0.0

    def fact(key: str) -> float:
        return sum(record["facts"][key] for record in passes) / count

    traced_wall = sum(record["loop_ns"] for record in passes)

    def scaled_wall(records: List[dict]) -> float:
        # per pass, at the reference host speed, so the overhead compares
        # tracing cost rather than two moments of a noisy host
        return statistics.mean(
            record["loop_ns"] * CALIBRATION_REF_MS / record["calibration_ms"] for record in records
        )
    spreader_calls = calls("telemetry.spreader_update")
    ring = ("ring.lookup_column", "ring.lookup", "ring.lookup_n")
    return {
        "coordinator.ingest_self_ms": (ms("coordinator.ingest", "self_ns"), "ms"),
        "parallel.run_self_ms": (ms("parallel.run", "self_ns"), "ms"),
        "ring.lookup_ms": (sum(ms(name) for name in ring), "ms"),
        "ring.lookup_calls": (sum(calls(name) for name in ring), "count"),
        "columns.slice_ms": (ms("columns.slice_rows"), "ms"),
        "columns.take_ms": (ms("columns.take"), "ms"),
        "engine.batch_self_ms": (ms("engine.process_batch", "self_ns"), "ms"),
        "engine.rows": (fact("completed"), "count"),
        "engine.hit_frac": (fact("hits") / max(1.0, fact("completed")), "ratio"),
        "engine.new_flows": (fact("new_flows"), "count"),
        "engine.insert_failures": (fact("insert_failures"), "count"),
        "engine.housekeeping_ms": (ms("engine.run_housekeeping"), "ms"),
        "engine.flows_expired": (extra("engine.run_housekeeping"), "count"),
        "engine.drain_ms": (ms("engine.drain_exported"), "ms"),
        "engine.records_exported": (extra("engine.drain_exported"), "count"),
        "telemetry.observe_self_ms": (ms("telemetry.observe_outcomes", "self_ns"), "ms"),
        "telemetry.cm_update_ms": (ms("telemetry.cm_update"), "ms"),
        "telemetry.cm_update_calls": (calls("telemetry.cm_update"), "count"),
        "telemetry.hh_update_ms": (ms("telemetry.hh_update"), "ms"),
        "telemetry.hh_evictions": (extra("telemetry.hh_update"), "count"),
        "telemetry.spreader_update_ms": (ms("telemetry.spreader_update"), "ms"),
        "telemetry.spreader_evictions": (extra("telemetry.spreader_update"), "count"),
        "telemetry.spreader_evictions_per_update": (
            extra("telemetry.spreader_update") / spreader_calls if spreader_calls else 0.0,
            "ratio",
        ),
        "telemetry.merge_ms": (ms("telemetry.merge"), "ms"),
        "telemetry.merge_calls": (calls("telemetry.merge"), "count"),
        **operations(baseline),
        "top10_recall": (fact("top10_recall"), "ratio"),
        "failed_frac": (sum(failed_rows(record) for record in passes) / fact("rows") / count,
                        "ratio"),
        "replica.replicate_ms": (ms("replica.replicate"), "ms"),
        "replica.packets": (extra("replica.replicate"), "count"),
        "columns.to_outcomes_ms": (ms("columns.to_outcomes"), "ms"),
        "persist.checkpoint_ms": (ms("persist.checkpoint_node"), "ms"),
        "persist.checkpoints": (calls("persist.checkpoint_node"), "count"),
        "persist.checkpoint_bytes": (extra("persist.checkpoint_node"), "bytes"),
        "node.extract_ms": (ms("node.extract_flows"), "ms"),
        "node.absorb_ms": (ms("node.absorb_flows"), "ms"),
        "node.restore_ms": (ms("node.restore_flow"), "ms"),
        "membership.flows_migrated": (fact("flows_migrated"), "count"),
        "membership.flows_restored": (fact("flows_restored"), "count"),
        "control.step_ms": (ms("control.step"), "ms"),
        "control.actions": (extra("control.step"), "count"),
        "control.flows_moved": (fact("control_flows_moved"), "count"),
        "obs.advance_ms": (ms("obs.advance"), "ms"),
        "obs.windows_closed": (extra("obs.advance"), "count"),
        "coordinator.node_skew": (fact("node_skew"), "ratio"),
        "engine.sim_mdesc_s_model": (fact("sim_mdesc_s"), "Mdesc/s"),
        "trace.overhead_frac": (scaled_wall(passes) / scaled_wall(baseline) - 1.0, "ratio"),
        "trace.residual_frac": ((traced_wall - tracer.top_level_ns) / traced_wall, "ratio"),
    }


def layer_table(passes: List[dict], tracer) -> List[dict]:
    """Self time per span/counter name plus the residual; sums to the wall."""
    wall = sum(record["loop_ns"] for record in passes)
    rows = [
        {"name": name, "self_ms": stat.self_ns / 1e6, "calls": stat.calls}
        for name, stat in tracer.stats.items()
    ]
    rows.sort(key=lambda row: -row["self_ms"])
    rows.append({"name": "(residual: no span)", "self_ms": (wall - tracer.top_level_ns) / 1e6,
                 "calls": 0})
    for row in rows:
        row["share"] = row["self_ms"] * 1e6 / wall
    return rows


# --------------------------------------------------------------------------- #
# Facts and entry points
# --------------------------------------------------------------------------- #


def host_facts(workload: Workload, seed: int) -> dict:
    from repro.columns import using_numpy

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    rev = "unknown (not a git checkout)"
    try:
        toplevel, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(toplevel).resolve() == ROOT:
            rev = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "column_backend": "numpy" if using_numpy() else "stdlib",
        "git_rev": rev,
        "seed": seed,
        "scenario": workload.scenario,
        "rows_per_segment": workload.segment_rows,
        "segments_per_pass": workload.pass_segments,
        "rows_per_pass": workload.pass_rows,
    }


def time_setup(workload: Workload, seed: int) -> Dict[str, float]:
    """Seconds to import ``repro`` and build the fleet, from a fresh process:
    unscaled, and at the reference host speed (calibration loops run just
    before and after, outside the timed span)."""
    calibration = [calibration_ms() for _ in range(3)]
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.cluster  # noqa: F401
    import repro.obs  # noqa: F401

    build_fleet(workload, seed, workload.pass_rows * MEAN_GAP_PS)
    elapsed = time.perf_counter() - start
    calibration += [calibration_ms() for _ in range(3)]
    return {
        "setup_s": elapsed * CALIBRATION_REF_MS / statistics.median(calibration),
        "setup_s_unscaled": elapsed,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            min_passes: int = MIN_PASSES, oracle_drop: int = 0) -> dict:
    setup = time_setup(workload, seed)
    if tracing.wrapped_boundaries():
        raise RuntimeError("tracing wrappers are installed before an untraced run")
    from repro.traffic import scenario_block

    block = scenario_block(workload.scenario, workload.pass_rows, seed)
    oracle = build_oracle(block, drop=oracle_drop)
    result = {"facts": host_facts(workload, seed), "setup": setup}
    if not trace:
        passes = run_passes(workload, seed, block, oracle, seconds, min_passes)
        result["metrics"] = end_to_end(workload, passes)
        result["host_clock"] = host_clock(workload, passes)
    else:
        passes = run_passes(workload, seed, block, oracle, seconds / 2, 1)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = run_passes(workload, seed, block, oracle, 0, 1, count=len(passes),
                                tracer=tracer)
        result["metrics"] = per_layer(traced, passes, tracer)
        result["table"] = layer_table(traced, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace_{workload.name}.json"
        trace_file.write_text(json.dumps({"facts": result["facts"], **tracer.to_json()}))
        result["trace_file"] = str(trace_file.relative_to(ROOT))
        passes = passes + traced
    gates: Dict[str, bool] = {}
    for record in passes:
        for name, ok in record["gates"].items():
            gates[name] = gates.get(name, True) and ok
    result["gates"] = gates
    result["passes"] = len(passes)
    result["segments"] = len(passes) * workload.pass_segments
    result["attempted"] = sum(record["facts"]["rows"] for record in passes)
    result["failed"] = sum(failed_rows(record) for record in passes)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe-setup", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    if args.probe_setup:
        print(json.dumps(time_setup(workload, args.seed)))
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     min_passes=1 if args.tiny else MIN_PASSES)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
