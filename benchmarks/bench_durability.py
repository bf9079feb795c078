"""Durability layer — lossless k=2 failover, checkpoint loss windows.

No paper reference: this is the durability tier above the PR-3 cluster
layer (``repro.persist`` checkpoints plus ring replication).  Three
properties are checked:

1. **Replication is lossless** — with ``replication=2``, a forced mid-run
   node failure on ``node_failover`` reports ``flows_lost == 0`` and
   ``telemetry_packets_lost == 0``, and the cluster-wide merged top-k
   equals the no-failure run's top-k exactly.  The price is measured, not
   hidden: the replica stores and backup pipelines' memory and the
   host-side ingest slowdown are reported against the unreplicated
   baseline.
2. **Checkpointing bounds the loss window** — with automatic checkpoints
   every ``P`` packets, a failure loses at most the since-last-checkpoint
   delta: ``telemetry_packets_lost <= P``, and the lost flows are only
   those the latest checkpoint had not captured.
3. **The books always balance** — in every mode the global outcome totals
   (``hits + misses == packets``) and the flow-conservation identity
   (``created == live + exported + folded + lost``) hold across the
   failure and recovery.

Property 1 is checked on both ingest shapes: descriptor lists, and
``DescriptorBlock`` slices, whose backups consume the primary's columnar
outcomes.

Set ``DURABILITY_BENCH_PACKETS`` to shrink or grow the workload (CI smoke
runs use a small value).
"""

import os
import time

from repro.cluster import ClusterCoordinator
from repro.net.parser import DescriptorExtractor
from repro.reporting import format_table, merged_top_k, run_durability_comparison
from repro.telemetry import TelemetryConfig
from repro.traffic import scenario_block, scenario_descriptors

PACKETS = int(os.environ.get("DURABILITY_BENCH_PACKETS", "4000"))
SEED = 47
TOP_K = 10
TELEMETRY = TelemetryConfig(heavy_hitter_capacity=max(1024, 2 * PACKETS))
CHECKPOINT_INTERVAL = max(64, PACKETS // 16)


def _descriptors():
    return scenario_descriptors(
        "node_failover", PACKETS, seed=SEED, extractor=DescriptorExtractor()
    )


def _build(**overrides) -> ClusterCoordinator:
    return ClusterCoordinator(
        nodes=4,
        telemetry_config=TELEMETRY,
        telemetry_seed=SEED,
        batch_size=128,
        **overrides,
    )


def _run_with_failure(coordinator: ClusterCoordinator):
    """Ingest the stream, failing the busiest node at the halfway point."""
    descriptors = _descriptors()
    started = time.perf_counter()
    coordinator.ingest(descriptors[: PACKETS // 2])
    victim = max(coordinator.nodes, key=lambda n: coordinator.nodes[n].active_flows)
    live_at_failure = coordinator.nodes[victim].active_flows
    event = coordinator.fail_node(victim)
    coordinator.ingest(descriptors[PACKETS // 2 :])
    return event, live_at_failure, time.perf_counter() - started


def _top_k(coordinator: ClusterCoordinator):
    # The same deterministic ordering the durability experiment reports.
    return merged_top_k(coordinator, TOP_K)


def _assert_books_balance(coordinator: ClusterCoordinator):
    totals = coordinator.cluster_totals()
    assert totals["completed"] == coordinator.ingested == PACKETS
    assert totals["hits"] + totals["misses"] == totals["completed"]
    books = coordinator.flow_books()
    assert books["balanced"], books
    return books


def test_k2_replication_makes_failover_lossless(bench_emit):
    # Two anchors: a no-failure run for the top-k reference, and an
    # unprotected run with the *same* failure for the wall-clock
    # denominator (so the ratio isolates replication's overhead).
    baseline = _build()
    baseline.ingest(_descriptors())
    baseline_top = _top_k(baseline)
    _, _, unprotected_wall = _run_with_failure(_build())

    replicated = _build(replication=2)
    event, live_at_failure, replicated_wall = _run_with_failure(replicated)

    # Lossless: every live flow of the victim was promoted from replicas,
    # every telemetry packet reassembled from the backup pipelines.
    assert live_at_failure > 0
    assert event["recovery"] == "replicas"
    assert event["restored"] == live_at_failure
    assert replicated.flows_lost == 0
    assert replicated.telemetry_packets_lost == 0
    assert replicated.merged_telemetry().packets == PACKETS
    assert _top_k(replicated) == baseline_top
    _assert_books_balance(replicated)

    # The cost is reported, not hidden: replica state occupies real memory
    # and the extra per-packet mirroring costs host wall-clock.
    memory_overhead = replicated.replica_memory_bytes
    assert memory_overhead > 0
    slowdown = replicated_wall / unprotected_wall if unprotected_wall > 0 else 0.0
    print()
    print(format_table(
        [
            {
                "packets": PACKETS,
                "flows_restored": replicated.flows_restored,
                "replicated_pkts": replicated.replicated_packets,
                "replica_mem_kB": round(memory_overhead / 1024, 1),
                "ingest_slowdown": round(slowdown, 2),
                f"top{TOP_K}_match": True,
            }
        ],
        title="k=2 replication — lossless failover and its cost (node_failover)",
    ))
    bench_emit("durability", {
        "k2_flows_restored": replicated.flows_restored,
        "k2_replica_memory_bytes": memory_overhead,
        "k2_ingest_slowdown": round(slowdown, 3),
    })


def _ingest_blocks(coordinator: ClusterCoordinator, fail_at_half: bool):
    """The ``node_failover`` schedule on block ingest, in ``batch_size``
    slices: the replication plane stays columnar (backups receive
    ``OutcomeBlock`` rows).  Returns the failure event, if any."""
    block = scenario_block("node_failover", PACKETS, seed=SEED)
    event = None
    for offset in range(0, PACKETS, 128):
        if fail_at_half and event is None and offset >= PACKETS // 2:
            victim = max(coordinator.nodes, key=lambda n: coordinator.nodes[n].active_flows)
            assert coordinator.nodes[victim].active_flows > 0
            event = coordinator.fail_node(victim)
        coordinator.ingest(block.slice_rows(offset, offset + 128))
    return event


def test_k2_block_ingest_replication_is_lossless():
    baseline = _build()
    _ingest_blocks(baseline, fail_at_half=False)

    replicated = _build(replication=2)
    event = _ingest_blocks(replicated, fail_at_half=True)

    assert event["recovery"] == "replicas"
    assert replicated.replicated_packets > 0
    assert replicated.flows_lost == 0
    assert replicated.telemetry_packets_lost == 0
    assert replicated.merged_telemetry().packets == PACKETS
    assert _top_k(replicated) == _top_k(baseline)
    _assert_books_balance(replicated)


def test_checkpoint_interval_bounds_the_loss_window(bench_emit):
    interval = CHECKPOINT_INTERVAL
    coordinator = _build(checkpoint_interval=interval)
    event, live_at_failure, _ = _run_with_failure(coordinator)

    # The victim had been checkpointed (the stream half exceeds the
    # interval per node), so recovery replayed its latest snapshot.
    assert coordinator.checkpoints_taken > 0
    assert event["recovery"] == "checkpoint"

    # Losses shrink to the since-last-checkpoint delta: at most `interval`
    # telemetry packets, and only the flows the checkpoint missed.
    assert coordinator.telemetry_packets_lost <= interval
    assert 0 <= coordinator.flows_lost <= live_at_failure
    assert event["restored"] == coordinator.flows_restored > 0
    assert coordinator.flows_lost + coordinator.flows_restored == live_at_failure
    _assert_books_balance(coordinator)

    print()
    print(format_table(
        [
            {
                "packets": PACKETS,
                "interval": interval,
                "checkpoints": coordinator.checkpoints_taken,
                "ckpt_kB": round(coordinator.checkpoint_bytes / 1024, 1),
                "flows_at_failure": live_at_failure,
                "flows_restored": coordinator.flows_restored,
                "flows_lost": coordinator.flows_lost,
                "tel_pkts_lost": coordinator.telemetry_packets_lost,
            }
        ],
        title="checkpointing — loss window vs interval (node_failover)",
    ))
    bench_emit("durability", {
        "checkpoint_interval": interval,
        "checkpoints_taken": coordinator.checkpoints_taken,
        "checkpoint_bytes": coordinator.checkpoint_bytes,
        "checkpoint_flows_lost": coordinator.flows_lost,
        "checkpoint_tel_pkts_lost": coordinator.telemetry_packets_lost,
    })


def test_durability_comparison_experiment(benchmark, bench_emit):
    intervals = (CHECKPOINT_INTERVAL, 4 * CHECKPOINT_INTERVAL)
    result = benchmark.pedantic(
        lambda: run_durability_comparison(
            packet_count=max(600, PACKETS // 2),
            checkpoint_intervals=intervals,
            seed=SEED,
        ),
        rounds=1,
        iterations=1,
    )
    rows = result["rows"]
    print()
    print(format_table(rows, title="durability comparison — checkpoint interval vs k=2"))

    assert {row["scenario"] for row in rows} == {"node_failover", "churn"}
    for row in rows:
        assert row["balanced"], row
        if row["mode"] == "replica_k2":
            assert row["flows_lost"] == 0
            assert row["telemetry_pkts_lost"] == 0
            assert row[f"top{TOP_K}_match"]
            assert row["extra_memory_kB"] > 0
        elif row["mode"].startswith("checkpoint@"):
            interval = int(row["mode"].split("@", 1)[1])
            assert row["telemetry_pkts_lost"] <= interval
    benchmark.extra_info["rows"] = rows
    bench_emit("durability", {
        f"{row['scenario']}_{row['mode']}_ingest_slowdown": row["ingest_slowdown"]
        for row in rows
    })
