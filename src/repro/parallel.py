"""Per-node ingest work: the unit between steering and the barrier.

:class:`~repro.cluster.ClusterCoordinator` steers a stream segment, then
hands one :class:`NodeWork` per owning node (membership order) to
:meth:`IngestExecutor.run`, which runs each node's sub-batches on the caller
thread.  Order-sensitive effects (replication mirroring, checkpoint
triggers, the windowed-clock ``advance``) are applied by the coordinator's
barrier afterwards, in the same membership order.

Ingest is sequential by design: measured in host wall-clock, thread and
process pools came within 1.04x of this loop at best (see the README).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.columns.block import DescriptorBlock, OutcomeBlock


@dataclass
class NodeWork:
    """One node's share of a stream segment."""

    node_id: str
    node: object  # ClusterNode (untyped to keep this module import-light)
    group: object  # Sequence of descriptors, or a DescriptorBlock slice
    batch_size: int
    packets: int
    collect_outcomes: bool  # keep each sub-batch's outcomes for barrier replication


@dataclass
class NodeSegmentResult:
    """What one node's work hands to the coordinator's barrier."""

    node_id: str
    # Per sub-batch, when collect_outcomes: an OutcomeBlock for a block
    # group, a list of LookupOutcome objects for a descriptor list.
    outcomes: Optional[List[Union[OutcomeBlock, list]]]


def execute_node_work(work: NodeWork) -> NodeSegmentResult:
    """Run one node's sub-batches of ``batch_size`` through its engine.

    Each sub-batch's outcomes (as the engine returned them, columnar for a
    block) are kept when the barrier will replicate them.  The ``node``
    span opens on the engine's own recorder, so the engine's batch spans
    nest under it; inside a sampled-away ``ingest_batch`` root it is
    suppressed with the rest of the subtree.
    """
    node = work.node
    spans = node.engine._obs_spans
    group = work.group
    count = work.packets
    size = work.batch_size
    outcomes: Optional[list] = [] if work.collect_outcomes else None
    columnar = isinstance(group, DescriptorBlock)
    with (
        spans.root("node", node=work.node_id, packets=count)
        if spans is not None
        else nullcontext()
    ):
        for offset in range(0, count, size):
            if columnar:
                batch = node.process_batch(group.slice_rows(offset, offset + size))
            else:
                batch = node.process_batch(group[offset : offset + size])
            if outcomes is not None:
                outcomes.append(batch)
    return NodeSegmentResult(node_id=work.node_id, outcomes=outcomes)


class IngestExecutor:
    """Runs every :class:`NodeWork` of a segment on the caller thread."""

    def run(self, works: Sequence[NodeWork]) -> List[NodeSegmentResult]:
        return [execute_node_work(work) for work in works]
