"""Outside-in tracing of the ingest path: wrappers on the layers' public calls.

Nothing inside the program is instrumented.  :func:`installed` replaces the
class attributes listed in :data:`BOUNDARIES` with timing wrappers for the
duration of a ``with`` block and puts the originals back on exit, so a
traced run and an untraced run in the same process execute the same code
apart from the wrappers.  Wrappers must be installed *before* the fleet is
built: a node hands ``pipeline.observe_outcomes`` to its engine as a bound
method at construction, so a fleet built earlier keeps calling the
unwrapped function.

Two kinds of boundary:

* **span** — batch-level calls.  Each call records ``(id, parent, trace,
  name, start_ns, end_ns)``; ``trace`` is the segment index the loop set,
  so all spans of one segment share it.  Spans are kept in memory.
* **count** — per-row calls (sketch updates, single-key ring lookups,
  single-flow restores).  A span per row would cost more than the work, so
  these only add to a call count and a nanosecond total.

A span's *self time* is its duration minus the time covered by the spans
and counted calls made inside it.  Summed over every span and counter,
self times equal the time covered by the top-level spans, so a table of
them plus the uncovered residual adds up to the measured wall.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

_MARK = "__perfbench_wrapped__"


@dataclass(frozen=True)
class Boundary:
    """One wrapped class attribute and the name its records carry."""

    module: str
    cls: str
    attr: str
    name: str
    kind: str = "span"  # "span", "count" or "evict" (count + eviction delta)
    # Work count taken from the call's arguments and result, summed per name
    # (flows extracted, bytes checkpointed, windows closed, ...).
    extra: Optional[Callable] = None


BOUNDARIES = (
    # cluster.coordinator
    Boundary("repro.cluster.coordinator", "ClusterCoordinator", "ingest", "coordinator.ingest"),
    Boundary(
        "repro.cluster.coordinator", "ClusterCoordinator", "checkpoint_node",
        "persist.checkpoint_node", extra=lambda args, result: result["size_bytes"],
    ),
    Boundary("repro.cluster.coordinator", "ClusterCoordinator", "run_housekeeping",
             "coordinator.run_housekeeping"),
    Boundary("repro.cluster.coordinator", "ClusterCoordinator", "drain_exported",
             "coordinator.drain_exported"),
    Boundary("repro.cluster.coordinator", "ClusterCoordinator", "merged_telemetry",
             "coordinator.merged_telemetry"),
    Boundary("repro.cluster.coordinator", "ClusterCoordinator", "fail_node",
             "coordinator.fail_node"),
    Boundary("repro.cluster.coordinator", "ClusterCoordinator", "add_node", "coordinator.add_node"),
    # cluster.ring
    Boundary("repro.cluster.ring", "HashRing", "lookup_column", "ring.lookup_column"),
    Boundary("repro.cluster.ring", "HashRing", "lookup", "ring.lookup", kind="count"),
    Boundary("repro.cluster.ring", "HashRing", "lookup_n", "ring.lookup_n", kind="count"),
    # columns
    Boundary("repro.columns.block", "DescriptorBlock", "slice_rows", "columns.slice_rows"),
    Boundary("repro.columns.block", "DescriptorBlock", "take", "columns.take"),
    Boundary("repro.columns.block", "OutcomeBlock", "to_outcomes", "columns.to_outcomes"),
    # parallel
    Boundary("repro.parallel", "IngestExecutor", "run", "parallel.run"),
    # cluster.node
    Boundary("repro.cluster.node", "ClusterNode", "process_batch", "node.process_batch"),
    Boundary("repro.cluster.node", "ClusterNode", "replicate", "replica.replicate",
             extra=lambda args, result: result),
    Boundary("repro.cluster.node", "ClusterNode", "extract_flows", "node.extract_flows",
             extra=lambda args, result: len(result)),
    Boundary("repro.cluster.node", "ClusterNode", "absorb_flows", "node.absorb_flows",
             extra=lambda args, result: result[0]),
    Boundary("repro.cluster.node", "ClusterNode", "restore_flow", "node.restore_flow",
             kind="count", extra=lambda args, result: int(bool(result))),
    # engine.sharded
    Boundary("repro.engine.sharded", "ShardedFlowLUT", "process_batch", "engine.process_batch"),
    Boundary("repro.engine.sharded", "ShardedFlowLUT", "run_housekeeping",
             "engine.run_housekeeping", extra=lambda args, result: result),
    Boundary("repro.engine.sharded", "ShardedFlowLUT", "drain_exported",
             "engine.drain_exported", extra=lambda args, result: len(result)),
    # telemetry
    Boundary("repro.telemetry.pipeline", "TelemetryPipeline", "observe_outcomes",
             "telemetry.observe_outcomes"),
    Boundary("repro.telemetry.pipeline", "TelemetryPipeline", "merge", "telemetry.merge"),
    Boundary("repro.telemetry.pipeline", "TelemetryPipeline", "top_talkers", "telemetry.query"),
    Boundary("repro.telemetry.pipeline", "TelemetryPipeline", "superspreaders", "telemetry.query"),
    Boundary("repro.telemetry.pipeline", "TelemetryPipeline", "port_scan_suspects",
             "telemetry.query"),
    Boundary("repro.telemetry.sketches", "CountMinSketch", "update", "telemetry.cm_update",
             kind="count"),
    Boundary("repro.telemetry.heavy_hitters", "SpaceSavingTracker", "update",
             "telemetry.hh_update", kind="evict"),
    Boundary("repro.telemetry.superspreader", "SuperSpreaderDetector", "update",
             "telemetry.spreader_update", kind="evict"),
    # cluster.control, obs.windows
    Boundary("repro.cluster.control", "ClusterControl", "step", "control.step",
             extra=lambda args, result: len(result)),
    Boundary("repro.obs.windows", "WindowedRegistry", "advance", "obs.advance",
             extra=lambda args, result: len(result)),
)

# Span record layout (lists, so closing a span is an in-place update).
_ID, _PARENT, _TRACE, _NAME, _START, _END, _CHILD = range(7)


class Stat:
    """Per-name totals: calls, inclusive ns, self ns and the work count."""

    __slots__ = ("calls", "total_ns", "self_ns", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.extra = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "extra": self.extra,
        }


class Tracer:
    """In-memory span and counter store; records only while ``active``.

    One open-span stack: the benchmark drives the sequential executor, so
    every wrapped call runs on the calling thread.
    """

    def __init__(self) -> None:
        self.active = False
        self.trace_id = 0
        self.spans: List[list] = []
        self.stats: Dict[str, Stat] = {}
        self.top_level_ns = 0
        self._stack: List[list] = []

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def open(self, name: str) -> list:
        parent = self._stack[-1][_ID] if self._stack else None
        record = [len(self.spans), parent, self.trace_id, name, time.perf_counter_ns(), 0, 0]
        self.spans.append(record)
        self._stack.append(record)
        return record

    def close(self, record: list, extra: int = 0) -> None:
        record[_END] = end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - record[_START]
        stat = self.stat(record[_NAME])
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration - record[_CHILD]
        stat.extra += extra
        if self._stack:
            self._stack[-1][_CHILD] += duration
        else:
            self.top_level_ns += duration

    def count(self, name: str, duration: int, extra: int = 0) -> None:
        stat = self.stat(name)
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration
        stat.extra += extra
        if self._stack:
            self._stack[-1][_CHILD] += duration
        else:
            self.top_level_ns += duration

    def to_json(self) -> dict:
        """Spans as ``[id, parent, trace, name, start_ns, end_ns]`` plus stats."""
        return {
            "span_fields": ["id", "parent", "trace", "name", "start_ns", "end_ns"],
            "spans": [record[:_CHILD] for record in self.spans],
            "stats": {name: stat.as_dict() for name, stat in sorted(self.stats.items())},
            "top_level_ns": self.top_level_ns,
        }


def _wrap(fn: Callable, boundary: Boundary, tracer: Tracer) -> Callable:
    name = boundary.name
    extra = boundary.extra
    clock = time.perf_counter_ns

    if boundary.kind == "span":

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(record, extra(args, result) if extra and result is not None else 0)

    elif boundary.kind == "count":

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            tracer.count(name, clock() - start, extra(args, result) if extra else 0)
            return result

    elif boundary.kind == "evict":

        def wrapper(self, *args, **kwargs):
            if not tracer.active:
                return fn(self, *args, **kwargs)
            before = self.evictions
            start = clock()
            result = fn(self, *args, **kwargs)
            tracer.count(name, clock() - start, self.evictions - before)
            return result

    else:
        raise ValueError(f"unknown boundary kind {boundary.kind!r}")
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, _MARK, True)
    return wrapper


def _resolve(boundary: Boundary):
    cls = getattr(importlib.import_module(boundary.module), boundary.cls)
    if boundary.attr not in cls.__dict__:
        raise AttributeError(
            f"{boundary.cls}.{boundary.attr} is inherited; wrapping it on this class "
            "would leave a copy of the original there after the wrapper is removed"
        )
    return cls


def wrapped_boundaries() -> List[str]:
    """Names of the boundaries whose class attribute is currently a wrapper."""
    return [
        f"{b.cls}.{b.attr}"
        for b in BOUNDARIES
        if getattr(_resolve(b).__dict__[b.attr], _MARK, False)
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the block's duration; restore on exit."""
    originals = []
    try:
        for boundary in BOUNDARIES:
            cls = _resolve(boundary)
            original = cls.__dict__[boundary.attr]
            if getattr(original, _MARK, False):
                raise RuntimeError(f"{boundary.cls}.{boundary.attr} is already wrapped")
            originals.append((cls, boundary.attr, original))
            setattr(cls, boundary.attr, _wrap(original, boundary, tracer))
        yield tracer
    finally:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)
