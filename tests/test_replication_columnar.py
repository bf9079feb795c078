"""Columnar replication plane: backups consume the primary's ``OutcomeBlock``.

On block ingest the coordinator hands each backup node an
:meth:`OutcomeBlock.take <repro.columns.OutcomeBlock.take>` of its rows
instead of materialised :class:`~repro.core.flow_lut.LookupOutcome`
objects.  This battery pins that path to the object-replication reference
and covers what it relies on:

* block-path replication == the same block run with replication forced
  back through ``to_outcomes()`` and the object ``replicate`` — replica
  stores (dict order, every record field), backup and merged telemetry
  snapshot bytes after ``fail_node`` / ``add_node``, flow books and
  events — on three scenarios, both column backends, with pinned keys so
  the pinned ``backups_of`` branch runs.  (Descriptor-list ingest is not
  a valid reference: the sharded engine merges object outcomes in
  completion order, so Space-Saving and replica insertion order differ
  legitimately.)
* the overflow guard: rows without a flow ID mirror no replica record,
  and a failover restores no flow the primary never held;
* ``OutcomeBlock.take`` against ``to_outcomes`` indexing;
* the stacked :class:`~repro.columns.H3ColumnHasher` family against the
  scalar :class:`~repro.hashing.h3.H3Hash` per function.
"""

from collections import Counter

import pytest

from repro.cluster import ClusterCoordinator
from repro.columns import H3ColumnHasher, OutcomeBlock, backend
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.hashing.h3 import H3Hash
from repro.persist import dumps
from repro.sim.rng import make_rng
from repro.traffic import scenario_block

CONFIG = small_test_config()
PACKETS = 1600
SEGMENT = 200


@pytest.fixture(params=("numpy", "stdlib"))
def column_backend(request, monkeypatch):
    """Run the test once per column backend (stdlib via the np patch)."""
    if request.param == "stdlib":
        monkeypatch.setattr(backend, "np", None)
    elif backend.np is None:  # pragma: no cover - numpy-less environment
        pytest.skip("numpy backend unavailable")
    return request.param


def _object_replication(monkeypatch):
    """Route block replication back through ``to_outcomes`` objects."""
    columnar_replicate = ClusterCoordinator._replicate

    def replicate(self, primary_id, outcomes):
        if isinstance(outcomes, OutcomeBlock):
            outcomes = outcomes.to_outcomes()
        columnar_replicate(self, primary_id, outcomes)

    monkeypatch.setattr(ClusterCoordinator, "_replicate", replicate)


def _telemetry_bytes(cluster):
    """Every node's backup pipelines plus the merged view, as snapshot bytes."""
    snapshot = []
    for node_id in sorted(cluster.nodes):
        node = cluster.nodes[node_id]
        for primary_id, pipeline in node.backup_pipelines.items():
            snapshot.append((node_id, primary_id, dumps(pipeline)))
    snapshot.append(("merged", None, dumps(cluster.merged_telemetry())))
    return snapshot


def _drive(scenario):
    """A k=2 block-ingest run with pins, a failure and a join."""
    cluster = ClusterCoordinator(
        nodes=4, config=CONFIG, telemetry_seed=5, replication=2, batch_size=64
    )
    block = scenario_block(scenario, PACKETS, seed=5)
    heavy = [key for key, _ in Counter(block.keys()).most_common(3)]
    captured = {}
    for index, offset in enumerate(range(0, PACKETS, SEGMENT)):
        cluster.ingest(block.slice_rows(offset, offset + SEGMENT))
        if index == 1:
            cluster.pin_flows({heavy[0]: "node3", heavy[1]: "node0", heavy[2]: "node3"})
        elif index == 3:
            cluster.fail_node("node1")
            captured["after_fail"] = _telemetry_bytes(cluster)
        elif index == 5:
            cluster.add_node("late-joiner")
            captured["after_join"] = _telemetry_bytes(cluster)
    captured["end"] = _telemetry_bytes(cluster)
    captured["replicas"] = {
        node_id: [
            (key, vars(record))
            for key, record in node.replica_flows.pop_matching(lambda key: True)
        ]
        for node_id, node in sorted(cluster.nodes.items())
    }
    captured["books"] = cluster.flow_books()
    captured["events"] = cluster.events
    captured["replicated_packets"] = cluster.replicated_packets
    return captured


@pytest.mark.parametrize("scenario", ["hotspot_shift", "node_failover", "syn_flood"])
def test_block_replication_matches_object_replication(scenario, column_backend, monkeypatch):
    columnar = _drive(scenario)
    with monkeypatch.context() as patch:
        _object_replication(patch)
        reference = _drive(scenario)
    assert columnar["replicated_packets"] > 0
    assert any(columnar["replicas"].values())
    for name in ("after_fail", "after_join", "end", "replicas", "books", "events",
                 "replicated_packets"):
        assert columnar[name] == reference[name], name


def test_replica_records_equal_primary_records(column_backend):
    # With a fixed membership each flow's one backup sees every packet the
    # primary accounted, so its copy matches the primary's record field for
    # field (flow IDs aside: replicas carry 0).
    cluster = ClusterCoordinator(nodes=4, config=CONFIG, telemetry_seed=2, replication=2)
    block = scenario_block("zipf_mix", 1200, seed=2)
    for offset in range(0, len(block), 300):
        cluster.ingest(block.slice_rows(offset, offset + 300))
    primary = {
        key: record
        for node in cluster.nodes.values()
        for key, record in node.engine.live_flow_pairs()
    }
    replicas = {
        key: record
        for node in cluster.nodes.values()
        for key, record in node.replica_flows.pop_matching(lambda key: True)
    }
    assert replicas.keys() == primary.keys()
    for key, record in replicas.items():
        assert vars(record) == {**vars(primary[key]), "flow_id": 0}


def test_overflow_rows_mirror_no_replica_record(column_backend):
    config = small_test_config(num_flows=64, cam_entries=2)
    cluster = ClusterCoordinator(nodes=4, config=config, telemetry_seed=3, replication=2)
    block = scenario_block("uniform_random", 1200, seed=3)
    for offset in range(0, len(block), 300):
        cluster.ingest(block.slice_rows(offset, offset + 300))

    failures = sum(node.insert_failures for node in cluster.nodes.values())
    assert failures > 0
    assert cluster.replicated_packets == len(block)
    # Every replicated row with a flow ID updated exactly one replica record;
    # the overflow rows updated none.
    updates = sum(node.replica_flows.updates for node in cluster.nodes.values())
    assert updates == len(block) - failures
    held = {
        key for node in cluster.nodes.values() for key, _ in node.engine.live_flow_pairs()
    }
    never_held = set(block.keys()) - held
    assert never_held
    for node in cluster.nodes.values():
        assert not any(key in node.replica_flows for key in never_held)

    # The tiny tables cannot take every promoted flow either; whatever the
    # failover does restore was live on the victim.
    victim = max(cluster.nodes, key=lambda node_id: cluster.nodes[node_id].active_flows)
    victim_flows = cluster.nodes[victim].active_flows
    event = cluster.fail_node(victim)
    assert event["recovery"] == "replicas"
    assert event["restored"] + event["lost"] == victim_flows
    live_after = {
        key for node in cluster.nodes.values() for key, _ in node.engine.live_flow_pairs()
    }
    assert live_after <= held
    assert cluster.flow_books()["balanced"]


def _outcome_block(scenario, count, seed):
    lut = FlowLUT(small_test_config(num_flows=128, cam_entries=2))
    return lut.process_block(scenario_block(scenario, count, seed=seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_outcome_block_take_matches_to_outcomes(seed, column_backend):
    outcomes = _outcome_block("zipf_mix", 300, seed)
    assert any(outcome.flow_id is None for outcome in outcomes.to_outcomes())
    reference = outcomes.to_outcomes()
    rng = make_rng(seed)
    cases = [
        [],
        [0],
        [len(outcomes) - 1, 0, len(outcomes) - 1],
        [rng.randrange(len(outcomes)) for _ in range(97)],
        list(range(len(outcomes))),
    ]
    for indices in cases:
        taken = outcomes.take(indices)
        assert len(taken) == len(indices)
        assert taken.to_outcomes() == [reference[i] for i in indices]


@pytest.mark.parametrize("functions", [1, 2, 4])
@pytest.mark.parametrize("count", [0, 1, 23, 256, 4096])
def test_h3_family_hasher_matches_scalar(functions, count, column_backend):
    width = 13
    family = [
        H3Hash(key_bits=8 * width, output_bits=32, seed=100 + index)
        for index in range(functions)
    ]
    rng = make_rng(functions * 10_000 + count)
    data = bytes(rng.getrandbits(8) for _ in range(count * width))
    keys = [data[i * width : (i + 1) * width] for i in range(count)]
    expected = [[h3.hash(key) for h3 in family] for key in keys]

    hasher = H3ColumnHasher(family, width)
    hashes = hasher.hash_column(data, count)
    assert [[int(value) for value in row] for row in hashes] == expected
    buckets = hasher.bucket_columns(data, count, 1021)
    assert buckets == [[row[f] % 1021 for row in expected] for f in range(functions)]
