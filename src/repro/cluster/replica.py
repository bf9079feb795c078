"""Passive flow-state replicas for k>=2 ring replication.

With replication enabled, every packet a primary node processes is also
accounted — functionally, off the timed path — on the backup node(s) of
its key's ring replica set.  The backup does not run the packet through
its own Flow LUT (that would double every hit/miss in the global books);
it keeps a :class:`ReplicaStore`: plain flow-record copies keyed by the
*engine* key bytes, mirroring exactly what the primary's flow-state table
accumulates.  On the primary's failure the coordinator promotes the
matching entries onto the keys' new owners, which is what makes failover
lossless for replicated flows.

Replica entries are copies, so several stores may hold *segments* of the
same flow after membership changes re-point the backup mid-life; each
packet updates exactly one store, so the segments partition the packet
stream and :meth:`~repro.core.flow_state.FlowRecord.absorb` reassembles
the full record at promotion time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from repro.core.flow_state import FlowRecord
from repro.telemetry.pipeline import EXACT_BYTES_PER_FLOW

REPLICA_BYTES_PER_FLOW = EXACT_BYTES_PER_FLOW
"""Provisioned bytes per replica entry (engine key + counters +
timestamps) — the exact-path per-flow budget, shared so the replication
memory overhead stays comparable against the primary tables."""


def _new_record(key, timestamp_ps: int) -> FlowRecord:
    return FlowRecord(flow_id=0, key=key, first_seen_ps=timestamp_ps, last_seen_ps=timestamp_ps)


def _account(record: FlowRecord, length_bytes: int, timestamp_ps: int, tcp_flags: int) -> None:
    """Add one mirrored packet to a replica record (both ingest shapes)."""
    record.packets += 1
    record.bytes += length_bytes
    record.last_seen_ps = max(record.last_seen_ps, timestamp_ps)
    record.tcp_flags |= tcp_flags


class ReplicaStore:
    """Backup copies of live flow records, keyed by engine key bytes.

    Replica records carry ``flow_id`` 0 — flow IDs are location-derived,
    so a promoted record receives whatever ID its new table placement
    yields (exactly like migration).
    """

    def __init__(self) -> None:
        self._records: Dict[bytes, FlowRecord] = {}
        self.updates = 0
        self.promoted = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key_bytes: bytes) -> bool:
        return key_bytes in self._records

    def observe_outcome(self, outcome) -> bool:
        """Mirror one primary lookup outcome into the backup copy.

        Only outcomes that produced a flow ID are mirrored — an outcome
        the primary could not place (table overflow) created no record
        there, and replicating it would let a failover "restore" a flow
        that never existed.  Returns whether the outcome was mirrored.
        """
        if outcome.flow_id is None:
            return False
        descriptor = outcome.descriptor
        key_bytes = descriptor.key_bytes
        timestamp = getattr(descriptor, "timestamp_ps", 0)
        record = self._records.get(key_bytes)
        if record is None:
            record = self._records[key_bytes] = _new_record(descriptor.key, timestamp)
        _account(
            record,
            getattr(descriptor, "length_bytes", 0),
            timestamp,
            getattr(descriptor, "tcp_flags", 0),
        )
        self.updates += 1
        return True

    def observe_block(self, outcomes) -> int:
        """Mirror a columnar :class:`~repro.columns.OutcomeBlock`, row by row.

        Rows are applied in order with the same rule as
        :meth:`observe_outcome`: rows without a flow ID (``-1``) are
        skipped.  A :class:`~repro.net.fivetuple.FlowKey` is built only for
        a row that creates a record.  Returns the number of rows mirrored.
        """
        block = outcomes.block
        keys = block.keys()
        lengths = block.lengths.tolist()
        timestamps = block.timestamps.tolist()
        flags = block.flags.tolist()
        records = self._records
        mirrored = 0
        for row, flow_id in enumerate(outcomes.flow_ids.tolist()):
            if flow_id < 0:
                continue
            key_bytes = keys[row]
            timestamp = timestamps[row]
            record = records.get(key_bytes)
            if record is None:
                record = records[key_bytes] = _new_record(block.flow_key(row), timestamp)
            _account(record, lengths[row], timestamp, flags[row])
            mirrored += 1
        self.updates += mirrored
        return mirrored

    def seed(self, key_bytes: bytes, record: FlowRecord) -> None:
        """Install a copy of the primary's full ``record`` (plane resync).

        The caller's record keeps living in a flow-state table; the store
        keeps an independent copy so later replica updates never mutate
        live primary state.  A full record supersedes anything held for
        the key, so seeding overwrites — segments only ever meet at
        *promotion* time (``fail_node``), never here.
        """
        self._records[key_bytes] = replace(record, flow_id=0)

    def clear(self) -> int:
        """Forget every entry (the coordinator is resyncing the plane);
        the lifetime counters are kept.  Returns the entries dropped."""
        count = len(self._records)
        self._records.clear()
        return count

    def drop(self, key_bytes: bytes) -> bool:
        """Forget a flow (its primary expired or terminated it)."""
        if self._records.pop(key_bytes, None) is not None:
            self.dropped += 1
            return True
        return False

    def pop_matching(
        self, predicate: Callable[[bytes], bool]
    ) -> List[Tuple[bytes, FlowRecord]]:
        """Remove and return every ``(key_bytes, record)`` the predicate
        selects — the promotion path when those keys' primary failed."""
        taken = [(key, record) for key, record in self._records.items() if predicate(key)]
        for key, _ in taken:
            del self._records[key]
        self.promoted += len(taken)
        return taken

    @property
    def memory_bytes(self) -> int:
        """Provisioned replica storage (entries times the per-flow budget)."""
        return len(self._records) * REPLICA_BYTES_PER_FLOW

    def stats(self) -> dict:
        return {
            "entries": len(self._records),
            "updates": self.updates,
            "promoted": self.promoted,
            "dropped": self.dropped,
            "memory_bytes": self.memory_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReplicaStore(entries={len(self._records)}, updates={self.updates})"
