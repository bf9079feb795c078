"""Sharded fast-path execution over independent Flow LUT instances.

The paper's Flow LUT is a line-rate design, but one timed instance can only
model one device.  Scaling the reproduction towards production traffic means
doing what deployments do: partition the flow space by hash across ``N``
independent Flow LUTs — each with its own sequencer, DLU pair, update blocks
and DDR3 memory sets — and drive them with *batches* of descriptors instead
of one packet at a time.

:class:`ShardedFlowLUT` implements that layer.  Shard selection hashes the
descriptor key (CRC-32, independent of the per-shard H3 bucket hashing), so
every packet of a flow lands on the same shard and the aggregate hit / miss /
new-flow accounting is identical to a single LUT serving the whole stream.
Because the shards are independent devices running in parallel, the
aggregate wall-clock of a workload is the *slowest shard's* simulated time,
which is what :attr:`ShardedFlowLUT.throughput_mdesc_s` reports.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.columns import backend as col_backend
from repro.columns.block import DescriptorBlock, OutcomeBlock
from repro.columns.hashing import crc32_partition
from repro.core.config import FlowLUTConfig
from repro.core.flow_lut import FlowLUT, LookupOutcome
from repro.core.flow_state import FlowRecord, FlowStateTable
from repro.hashing.crc import CRC32
from repro.net.parser import PacketDescriptor
from repro.obs.metrics import MetricsRegistry
from repro.obs.plane import Observability


def _slice_column(column, indices):
    """Rows ``indices`` of a hash column (fancy-index or list fallback)."""
    np = col_backend.np
    if np is not None:
        return np.asarray(column)[np.asarray(indices, dtype=np.int64)]
    return [column[i] for i in indices]


class ShardedFlowLUT:
    """``N`` independent Flow LUTs behind one batched lookup API.

    Parameters
    ----------
    shards: number of Flow LUT instances (each a full dual-path device with
        its own memory sets and simulator).
    config: per-shard architecture configuration; defaults to the paper's
        prototype, like :class:`~repro.core.flow_lut.FlowLUT` itself.
    on_batch: optional callback invoked with every merged batch of
        :class:`LookupOutcome` objects (the telemetry plane rides this).
    input_queue_depth: per-shard descriptor FIFO depth.
    obs: a :class:`~repro.obs.metrics.MetricsRegistry` — or a full
        :class:`~repro.obs.plane.Observability` plane — to instrument the
        batch path with: per-batch stage timings (``repro_engine_stage_ns``:
        steer → probe → drain → telemetry on object batches, hash → steer →
        probe → pack → telemetry on columnar blocks), per-shard
        ingest counters (``repro_engine_shard_descriptors_total``), and
        per-batch outcome counters (``repro_engine_outcomes_total`` by
        ``result=hit|miss|new_flow``).  A plane additionally wires its
        windowed registry (advanced with the last descriptor timestamp of
        every batch) and its span recorder (emit-based batch traces from
        the clock reads the stage histograms already take).
        ``None`` (the default) disables instrumentation; the disabled
        path pays one ``is None`` branch per batch.
    obs_labels: extra label values stamped on every engine metric (the
        cluster layer passes ``node=<id>`` so per-node series coexist in
        one fleet registry).
    windows: override the plane's windowed registry — ``False`` suppresses
        per-batch window advance (the cluster coordinator does this and
        advances once per time-ordered ingest segment instead, since its
        node-major batch order would misattribute deltas).
    spans: override the plane's span recorder (``False`` suppresses).
    """

    def __init__(
        self,
        shards: int = 4,
        config: Optional[FlowLUTConfig] = None,
        on_batch: Optional[Callable[[List[LookupOutcome]], None]] = None,
        input_queue_depth: int = 32,
        obs: Optional[MetricsRegistry] = None,
        obs_labels: Optional[Dict[str, str]] = None,
        windows=None,
        spans=None,
    ) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.config = config or FlowLUTConfig()
        self.num_shards = shards
        self.on_batch = on_batch
        self.shards: List[FlowLUT] = [
            FlowLUT(self.config, input_queue_depth=input_queue_depth)
            for _ in range(shards)
        ]
        self.batches = 0
        if isinstance(obs, Observability):
            if windows is None:
                windows = obs.windows
            if spans is None:
                spans = obs.spans
            obs = obs.metrics
        self.obs = obs
        self._obs_windows = windows if (obs is not None and windows) else None
        self._obs_spans = spans if (obs is not None and spans) else None
        if obs is not None:
            labels = dict(obs_labels or {})
            label_names = tuple(labels)
            stage_hist = obs.histogram(
                "repro_engine_stage_ns",
                "Host-side duration of each batch stage (hash/steer/probe/drain/pack/telemetry)",
                labels=(*label_names, "stage"),
            )
            # Children are bound once here so the per-batch cost is a few
            # attribute accesses, not label-dict hashing.  Object batches
            # time steer/probe/drain/telemetry; columnar batches time
            # hash/steer/probe/pack/telemetry.
            self._obs_stages = {
                stage: stage_hist.labels(**labels, stage=stage)
                for stage in ("hash", "steer", "probe", "drain", "pack", "telemetry")
            }
            shard_counter = obs.counter(
                "repro_engine_shard_descriptors_total",
                "Descriptors ingested per shard",
                labels=(*label_names, "shard"),
            )
            self._obs_shards = [
                shard_counter.labels(**labels, shard=str(index))
                for index in range(shards)
            ]
            self._obs_batches = obs.counter(
                "repro_engine_batches_total",
                "Merged descriptor batches processed",
                labels=label_names,
            ).labels(**labels)
            outcome_counter = obs.counter(
                "repro_engine_outcomes_total",
                "Lookup outcomes by result (hit/miss/new_flow)",
                labels=(*label_names, "result"),
            )
            self._obs_outcomes = {
                result: outcome_counter.labels(**labels, result=result)
                for result in ("hit", "miss", "new_flow")
            }
            self._obs_prev_outcomes = (0, 0, 0)
            self._obs_clock = obs.clock

    # ------------------------------------------------------------------ #
    # Partitioning
    # ------------------------------------------------------------------ #

    def shard_of(self, key_bytes: bytes) -> int:
        """The shard a flow key is pinned to (CRC-32 of the packed key).

        CRC-32 is deliberately a different hash family from the per-shard H3
        bucket hashing, so shard placement does not correlate with bucket
        placement inside a shard.  The hash is the repo-wide
        :data:`repro.hashing.crc.CRC32` — the same implementation the
        cluster ring and the vectorised column partitioner use, so all
        three steering layers provably agree.
        """
        return CRC32.hash(key_bytes) % self.num_shards

    def partition(self, descriptors: Sequence) -> List[List]:
        """Split a descriptor batch into per-shard sub-batches (order kept)."""
        groups: List[List] = [[] for _ in range(self.num_shards)]
        for descriptor in descriptors:
            groups[self.shard_of(descriptor.key_bytes)].append(descriptor)
        return groups

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def preload(self, keys) -> int:
        """Functionally pre-populate the shards (no simulated time)."""
        groups: List[List[bytes]] = [[] for _ in range(self.num_shards)]
        for key in keys:
            key_bytes = key.key_bytes if isinstance(key, PacketDescriptor) else key
            groups[self.shard_of(key_bytes)].append(key_bytes)
        return sum(shard.preload(group) for shard, group in zip(self.shards, groups))

    def process_batch(self, descriptors):
        """Run one batch through all shards and merge the outcomes.

        Accepts either a ``Sequence[PacketDescriptor]`` (the timed
        reference path) or a :class:`~repro.columns.DescriptorBlock` (the
        columnar hot path, returning an
        :class:`~repro.columns.OutcomeBlock`).

        The object path partitions once, drives each shard through its
        sub-batch (submitting under backpressure, then draining in-flight
        lookups and batched updates), and merges the per-shard outcome
        streams in completion-time order.  The columnar path hashes the
        whole block once (CRC-32 steering tokens plus both H3 bucket
        columns — every shard shares the same seed, so the bucket columns
        are computed once and sliced per shard), steers rows with the
        vectorised partitioner, bulk-probes each shard, and scatters the
        per-shard outcomes back into original row order.  Either way,
        dispatch cost is paid per batch, not per packet.
        """
        if isinstance(descriptors, DescriptorBlock):
            return self._process_block(descriptors)
        if not descriptors:
            return []
        if self.obs is None:
            starts = [len(shard.results) for shard in self.shards]
            for shard, group in zip(self.shards, self.partition(descriptors)):
                for descriptor in group:
                    shard.submit_blocking(descriptor)
                shard.drain()
            merged = list(
                heapq.merge(
                    *(
                        shard.results[start:]
                        for shard, start in zip(self.shards, starts)
                    ),
                    key=lambda outcome: outcome.complete_ps,
                )
            )
            self.batches += 1
            if self.on_batch is not None:
                self.on_batch(merged)
            return merged
        # Instrumented path: identical work, with the four stages timed.
        # Stage spans are accumulated with raw clock reads (two per stage
        # per shard at most) rather than context managers, keeping the
        # enabled overhead to a handful of perf_counter_ns calls per batch.
        # The same clock reads double as span boundaries when this batch is
        # sampled for tracing — tracing never takes reads of its own.
        clock = self._obs_clock
        stages = self._obs_stages
        spans = self._obs_spans
        traced = False
        parent = None
        if spans is not None:
            traced, parent = spans.batch_parent()
        shard_marks: List[Tuple[int, int, int, int, int]] = []
        starts = [len(shard.results) for shard in self.shards]
        t0 = clock()
        groups = self.partition(descriptors)
        t_steer = clock()
        stages["steer"].observe(t_steer - t0)
        probe_ns = 0
        drain_ns = 0
        for index, (shard, group, shard_counter) in enumerate(
            zip(self.shards, groups, self._obs_shards)
        ):
            t1 = clock()
            for descriptor in group:
                shard.submit_blocking(descriptor)
            t2 = clock()
            shard.drain()
            t3 = clock()
            drain_ns += t3 - t2
            probe_ns += t2 - t1
            if group:
                shard_counter.inc(len(group))
                if traced:
                    shard_marks.append((index, t1, t2, t3, len(group)))
        stages["probe"].observe(probe_ns)
        t4 = clock()
        merged = list(
            heapq.merge(
                *(
                    shard.results[start:]
                    for shard, start in zip(self.shards, starts)
                ),
                key=lambda outcome: outcome.complete_ps,
            )
        )
        # The outcome merge retires the batch like the per-shard drains do.
        t5 = clock()
        stages["drain"].observe(drain_ns + (t5 - t4))
        self.batches += 1
        self._obs_batches.inc()
        self._count_outcomes()
        telemetry_marks = None
        if self.on_batch is not None:
            t6 = clock()
            self.on_batch(merged)
            t7 = clock()
            stages["telemetry"].observe(t7 - t6)
            telemetry_marks = (t6, t7)
        if traced:
            self._emit_object_spans(
                parent, t0, t_steer, shard_marks, t5, telemetry_marks, len(descriptors)
            )
        if self._obs_windows is not None:
            self._obs_windows.advance(descriptors[-1].timestamp_ps)
        return merged

    def _count_outcomes(self) -> None:
        """Credit this batch's hit/miss/new-flow deltas to the counters."""
        hits = misses = flows = 0
        for shard in self.shards:
            hits += shard.hits
            misses += shard.misses
            flows += shard.new_flows
        prev_hits, prev_misses, prev_flows = self._obs_prev_outcomes
        if hits != prev_hits:
            self._obs_outcomes["hit"].inc(hits - prev_hits)
        if misses != prev_misses:
            self._obs_outcomes["miss"].inc(misses - prev_misses)
        if flows != prev_flows:
            self._obs_outcomes["new_flow"].inc(flows - prev_flows)
        self._obs_prev_outcomes = (hits, misses, flows)

    def _emit_object_spans(
        self, parent, t0, t_steer, shard_marks, t_done, telemetry_marks, count
    ) -> None:
        """Turn the object path's stage marks into one batch span tree."""
        spans = self._obs_spans
        end = telemetry_marks[1] if telemetry_marks else t_done
        if parent is None:
            parent = spans.emit("ingest_batch", t0, end, None, packets=count)
        spans.emit("steer", t0, t_steer, parent)
        for index, t1, t2, t3, packets in shard_marks:
            shard_span = spans.emit("shard", t1, t3, parent, shard=index, packets=packets)
            spans.emit("probe", t1, t2, shard_span)
            spans.emit("drain", t2, t3, shard_span)
        if telemetry_marks:
            spans.emit("telemetry", telemetry_marks[0], telemetry_marks[1], parent)

    def _steer_block(self, block: DescriptorBlock):
        """Hash once, partition rows, and slice per-shard sub-blocks.

        Returns ``(hash_ns_marker, parts)`` where ``parts`` pairs each
        non-empty shard with ``(indices, sub_block, hash_columns)``.
        """
        count = len(block)
        idx1_col, idx2_col = self.shards[0].table.column_hash_indices(
            block.key_data, count, block.key_width
        )
        if self.num_shards == 1:
            return [(0, range(count), block, (idx1_col, idx2_col))]
        groups = crc32_partition(block.key_data, count, block.key_width, self.num_shards)
        parts = []
        for shard_index, indices in enumerate(groups):
            if len(indices) == 0:
                continue
            sub = block.take(indices)
            columns = (_slice_column(idx1_col, indices), _slice_column(idx2_col, indices))
            parts.append((shard_index, indices, sub, columns))
        return parts

    def _process_block(self, block: DescriptorBlock) -> OutcomeBlock:
        if self.obs is not None:
            return self._process_block_instrumented(block)
        parts = self._steer_block(block)
        outcomes = [
            (indices, self.shards[shard_index].process_block(sub, hash_columns=columns))
            for shard_index, indices, sub, columns in parts
        ]
        if len(outcomes) == 1 and len(outcomes[0][1]) == len(block):
            merged = outcomes[0][1]
        else:
            merged = OutcomeBlock.merge_scatter(block, outcomes)
        self.batches += 1
        if self.on_batch is not None:
            self.on_batch(merged)
        return merged

    def _process_block_instrumented(self, block: DescriptorBlock) -> OutcomeBlock:
        # Columnar twin of the instrumented object path: identical work,
        # with the hash / steer / probe / pack stages timed with raw clock
        # reads (drain has no columnar counterpart — the bulk probe is
        # functional, nothing stays in flight).
        clock = self._obs_clock
        stages = self._obs_stages
        spans = self._obs_spans
        traced = False
        parent = None
        if spans is not None:
            traced, parent = spans.batch_parent()
        shard_marks: List[Tuple[int, int, int, int]] = []
        count = len(block)
        t0 = clock()
        idx1_col, idx2_col = self.shards[0].table.column_hash_indices(
            block.key_data, count, block.key_width
        )
        t1 = clock()
        stages["hash"].observe(t1 - t0)
        if self.num_shards == 1:
            parts = [(0, range(count), block, (idx1_col, idx2_col))]
        else:
            groups = crc32_partition(block.key_data, count, block.key_width, self.num_shards)
            parts = []
            for shard_index, indices in enumerate(groups):
                if len(indices) == 0:
                    continue
                sub = block.take(indices)
                columns = (_slice_column(idx1_col, indices), _slice_column(idx2_col, indices))
                parts.append((shard_index, indices, sub, columns))
        t2 = clock()
        stages["steer"].observe(t2 - t1)
        outcomes = []
        probe_ns = 0
        for shard_index, indices, sub, columns in parts:
            t3 = clock()
            outcome = self.shards[shard_index].process_block(sub, hash_columns=columns)
            t3_end = clock()
            probe_ns += t3_end - t3
            outcomes.append((indices, outcome))
            self._obs_shards[shard_index].inc(len(sub))
            if traced:
                shard_marks.append((shard_index, t3, t3_end, len(sub)))
        stages["probe"].observe(probe_ns)
        t4 = clock()
        if len(outcomes) == 1 and len(outcomes[0][1]) == len(block):
            merged = outcomes[0][1]
        else:
            merged = OutcomeBlock.merge_scatter(block, outcomes)
        t5 = clock()
        stages["pack"].observe(t5 - t4)
        self.batches += 1
        self._obs_batches.inc()
        self._count_outcomes()
        telemetry_marks = None
        if self.on_batch is not None:
            t6 = clock()
            self.on_batch(merged)
            t7 = clock()
            stages["telemetry"].observe(t7 - t6)
            telemetry_marks = (t6, t7)
        if traced:
            self._emit_block_spans(
                parent, t0, t1, t2, shard_marks, t4, t5, telemetry_marks, count
            )
        if self._obs_windows is not None and count:
            self._obs_windows.advance(int(block.timestamps[count - 1]))
        return merged

    def _emit_block_spans(
        self, parent, t0, t1, t2, shard_marks, t4, t5, telemetry_marks, count
    ) -> None:
        """Turn the columnar path's stage marks into one batch span tree."""
        spans = self._obs_spans
        end = telemetry_marks[1] if telemetry_marks else t5
        if parent is None:
            parent = spans.emit("ingest_batch", t0, end, None, packets=count, columnar=True)
        spans.emit("hash", t0, t1, parent)
        spans.emit("steer", t1, t2, parent)
        for shard_index, ta, tb, packets in shard_marks:
            shard_span = spans.emit("shard", ta, tb, parent, shard=shard_index, packets=packets)
            spans.emit("probe", ta, tb, shard_span)
        spans.emit("pack", t4, t5, parent)
        if telemetry_marks:
            spans.emit("telemetry", telemetry_marks[0], telemetry_marks[1], parent)

    def drain(self) -> None:
        """Drain every shard (in-flight lookups and pending burst writes)."""
        for shard in self.shards:
            shard.drain()

    # ------------------------------------------------------------------ #
    # Flow state, aging and migration
    # ------------------------------------------------------------------ #

    def attach_flow_state(self, timeout_us: Optional[float] = None) -> List[FlowStateTable]:
        """Give every shard its own flow-state table; returns the tables.

        ``timeout_us`` defaults to the configuration's housekeeping timeout.
        Flow state is per shard — flows are pinned to shards by key hash, so
        no record ever needs to be visible across shard boundaries — and
        enables :meth:`run_housekeeping` plus the cluster layer's live-flow
        migration.  Calling this again replaces the tables (records in the
        old ones are abandoned), so attach before processing traffic.
        """
        timeout = timeout_us if timeout_us is not None else self.config.flow_timeout_us
        for shard in self.shards:
            shard.flow_state = FlowStateTable(timeout_us=timeout)
        return [shard.flow_state for shard in self.shards]

    @property
    def flow_states(self) -> List[Optional[FlowStateTable]]:
        return [shard.flow_state for shard in self.shards]

    def flow_records(self) -> Iterator[FlowRecord]:
        """Every live flow record across all shards (needs attached state)."""
        for shard in self.shards:
            if shard.flow_state is not None:
                yield from shard.flow_state

    @property
    def active_flows(self) -> int:
        """Live flow records across all shards (0 without attached state)."""
        return sum(
            len(shard.flow_state) for shard in self.shards if shard.flow_state is not None
        )

    def live_flow_pairs(self) -> List[Tuple[bytes, Optional[FlowRecord]]]:
        """Every live ``(engine_key_bytes, record)`` pair across all shards.

        The non-destructive counterpart of the cluster layer's
        ``extract_flows``: the same pairs, but the records stay in place.
        Snapshots (:mod:`repro.persist`) and replica promotion filters are
        built from this view.  The walk follows each shard's *live-key
        map*, so keys installed without flow state (``preload``) appear
        with a ``None`` record — a snapshot must carry them or a warm
        restart would silently forget table entries.  Records without a
        table entry (deleted mid-migration) cannot appear, exactly as
        extraction skips them.
        """
        pairs: List[Tuple[bytes, Optional[FlowRecord]]] = []
        for shard in self.shards:
            pairs.extend(shard.live_flow_pairs())
        return pairs

    def drain_exported(self) -> List[FlowRecord]:
        """Drain every shard's export stream, in flow-termination order.

        The engine-level NetFlow hook: terminated and expired records are
        collected across shards (each shard's stream is cleared — see
        :meth:`~repro.core.flow_state.FlowStateTable.drain_exported`) and
        returned ordered by ``(last_seen_ps, first_seen_ps, key)``, so an
        exporter emits one deterministic record stream regardless of how
        flows were sharded.
        """
        drained: List[FlowRecord] = []
        for shard in self.shards:
            if shard.flow_state is not None:
                drained.extend(shard.flow_state.drain_exported())
        drained.sort(key=lambda r: (r.last_seen_ps, r.first_seen_ps, r.key.pack()))
        return drained

    def delete_flow(self, key_bytes: bytes) -> bool:
        """Remove one flow entry on its owning shard (routed, not fanned out)."""
        return self.shards[self.shard_of(key_bytes)].delete_flow(key_bytes)

    def restore_flow(self, record: FlowRecord, key_bytes: Optional[bytes] = None) -> bool:
        """Re-home a migrated flow record onto its owning shard.

        ``key_bytes`` is the engine key the record was stored under on its
        previous owner (defaults to the standard 5-tuple packing).
        """
        if key_bytes is None:
            key_bytes = record.key.pack()
        return self.shards[self.shard_of(key_bytes)].restore_flow(record, key_bytes)

    def run_housekeeping(
        self,
        now_ps: Optional[int] = None,
        expired_out: Optional[List[Tuple[bytes, FlowRecord]]] = None,
    ) -> int:
        """One aging pass over every shard; returns total flows removed.

        Fans out to each shard's :meth:`~repro.core.flow_lut.FlowLUT.
        run_housekeeping` (expire idle records, delete their table entries)
        and sums the removals.  ``now_ps`` should be the workload clock (the
        latest descriptor timestamp) because record idle times are measured
        in descriptor timestamps; it defaults to each shard's simulated time.
        ``expired_out`` collects the expired ``(key_bytes, record)`` pairs
        across all shards (see the single-LUT method).
        """
        return sum(shard.run_housekeeping(now_ps, expired_out) for shard in self.shards)

    # ------------------------------------------------------------------ #
    # Aggregate accounting
    # ------------------------------------------------------------------ #

    @property
    def submitted(self) -> int:
        return sum(shard.submitted for shard in self.shards)

    @property
    def completed(self) -> int:
        return sum(shard.completed for shard in self.shards)

    @property
    def hits(self) -> int:
        return sum(shard.hits for shard in self.shards)

    @property
    def misses(self) -> int:
        return sum(shard.misses for shard in self.shards)

    @property
    def new_flows(self) -> int:
        return sum(shard.new_flows for shard in self.shards)

    @property
    def insert_failures(self) -> int:
        return sum(shard.insert_failures for shard in self.shards)

    @property
    def miss_rate(self) -> float:
        completed = self.completed
        return self.misses / completed if completed else 0.0

    @property
    def shard_completed(self) -> List[int]:
        """Descriptors completed per shard (the load-balance picture)."""
        return [shard.completed for shard in self.shards]

    @property
    def load_imbalance(self) -> float:
        """Busiest shard's load over the mean (1.0 means perfectly even).

        Before any descriptor has completed there is no load to compare, so
        the ratio is defined as 0.0 — never a division error or NaN.
        """
        loads = self.shard_completed
        total = sum(loads)
        if total <= 0:
            return 0.0
        return max(loads) * len(loads) / total

    @property
    def elapsed_ps(self) -> int:
        """Wall-clock of the parallel array: the slowest shard's elapsed time."""
        return max((shard.elapsed_ps for shard in self.shards), default=0)

    @property
    def throughput_mdesc_s(self) -> float:
        """Aggregate processing rate in million descriptors per second.

        All shards run concurrently in hardware, so the array completes the
        whole stream in the slowest shard's time.
        """
        elapsed = self.elapsed_ps
        if elapsed <= 0:
            return 0.0
        return self.completed * 1e6 / elapsed

    def report(self) -> dict:
        return {
            "shards": self.num_shards,
            "batches": self.batches,
            "submitted": self.submitted,
            "completed": self.completed,
            "hits": self.hits,
            "misses": self.misses,
            "new_flows": self.new_flows,
            "insert_failures": self.insert_failures,
            "miss_rate": self.miss_rate,
            "throughput_mdesc_s": self.throughput_mdesc_s,
            "shard_completed": self.shard_completed,
            "load_imbalance": self.load_imbalance,
            "per_shard": [shard.report() for shard in self.shards],
        }
