"""Columnar hot path (repro.columns): blocks, vectorised hashing, equivalence.

Three layers of safety net around the columnar batch representation:

1. **Block round trips** — ``DescriptorBlock`` converts losslessly between
   the object and columnar representations, and its views (field columns,
   packed keys, ``take``) agree with the per-object accessors.
2. **Hashing equivalence** — the vectorised CRC-32 and H3 column hashers
   reproduce the scalar implementations bit for bit across seeds, key
   widths and output geometries, on both the numpy and stdlib backends.
3. **End-to-end equivalence** — for every registered scenario, the columnar
   execution path produces the same outcome totals, per-flow books and
   (canonicalised) top-k as the object path, at all three tiers: single
   Flow LUT, sharded engine, cluster.

The stdlib fallback is exercised in-process by monkeypatching
``repro.columns.backend.np`` to ``None`` (CI additionally runs the whole
tier-1 suite under ``REPRO_NO_NUMPY=1``).
"""

import pytest

from repro.columns import backend
from repro.columns.block import ENGINE_KEY_WIDTH, DescriptorBlock, OutcomeBlock
from repro.columns.hashing import H3ColumnHasher, crc32_column, crc32_partition
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.core.flow_state import FlowStateTable
from repro.cluster import ClusterCoordinator
from repro.cluster.ring import HashRing
from repro.engine import ShardedFlowLUT, run_scenario_columnar, run_scenario_sharded
from repro.hashing.crc import CRC32
from repro.hashing.h3 import H3Hash
from repro.net.fivetuple import FlowKey
from repro.obs import MetricsRegistry
from repro.sim.rng import make_rng
from repro.telemetry import TelemetryConfig
from repro.telemetry.pipeline import TelemetryPipeline
from repro.traffic import list_scenarios, scenario_block, scenario_descriptors

CONFIG = small_test_config()


def _ample_telemetry(packets: int) -> TelemetryPipeline:
    """A pipeline sized so no summary structure ever evicts.

    Space-Saving top-k and the spreader tables are order-sensitive under
    eviction, and the two execution paths feed outcomes in different orders
    (completion-time vs row order); with ample capacity every view is exact
    and therefore order-independent.
    """
    return TelemetryPipeline(
        TelemetryConfig(
            heavy_hitter_capacity=8 * packets, spreader_sources=8 * packets
        ),
        seed=5,
    )


def _books(pipeline: TelemetryPipeline, packets: int):
    """The full heavy-hitter book as an order-canonical sorted list."""
    return sorted(
        (entry.count, entry.key, entry.error)
        for entry in pipeline.top_talkers(8 * packets)
    )


@pytest.fixture
def no_numpy(monkeypatch):
    """Force the stdlib-``array`` fallback for one test."""
    monkeypatch.setattr(backend, "np", None)


# --------------------------------------------------------------------------- #
# Block construction and round trips
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("scenario", ["zipf_mix", "syn_flood", "churn"])
@pytest.mark.parametrize("seed", [3, 23])
def test_block_object_round_trip(scenario, seed):
    descriptors = scenario_descriptors(scenario, 200, seed=seed)
    block = DescriptorBlock.from_descriptors(descriptors)
    assert len(block) == 200
    assert DescriptorBlock.from_descriptors(block.to_descriptors()) == block
    back = block.to_descriptors()
    assert back == descriptors


def test_scenario_block_matches_descriptors_on_every_scenario():
    for name in list_scenarios():
        block = scenario_block(name, 150, seed=23)
        reference = DescriptorBlock.from_descriptors(
            scenario_descriptors(name, 150, seed=23)
        )
        assert block == reference, name


def test_block_field_columns_match_flow_keys():
    block = scenario_block("uniform_random", 100, seed=9)
    keys = block.flow_keys()
    assert block.src_ips() == [key.src_ip for key in keys]
    assert block.dst_ips() == [key.dst_ip for key in keys]
    assert block.src_ports() == [key.src_port for key in keys]
    assert block.dst_ports() == [key.dst_port for key in keys]
    assert block.protocols() == [key.protocol for key in keys]
    assert block.packed_keys() == [key.pack() for key in keys]


def test_block_take_reorders_every_column():
    block = scenario_block("zipf_mix", 60, seed=1)
    indices = list(range(59, -1, -2))
    sub = block.take(indices)
    reference = DescriptorBlock.from_descriptors(
        [block.to_descriptors()[i] for i in indices]
    )
    assert sub == reference


def test_block_validates_column_lengths():
    block = scenario_block("zipf_mix", 10, seed=1)
    with pytest.raises(ValueError):
        DescriptorBlock(block.key_data, block.lengths[:5], block.timestamps, block.flags)
    with pytest.raises(ValueError):
        DescriptorBlock(block.key_data[:-1], block.lengths, block.timestamps, block.flags)


def test_outcome_block_merge_scatter_round_trip():
    engine = ShardedFlowLUT(shards=4, config=CONFIG)
    block = scenario_block("zipf_mix", 120, seed=7)
    merged = engine.process_batch(block)
    assert isinstance(merged, OutcomeBlock)
    assert len(merged) == len(block)
    outcomes = merged.to_outcomes()
    assert [outcome.descriptor for outcome in outcomes] == block.to_descriptors()
    assert sum(outcome.hit for outcome in outcomes) == engine.hits
    assert sum(outcome.new_flow for outcome in outcomes) == engine.new_flows


# --------------------------------------------------------------------------- #
# Vectorised hashing vs the scalar implementations
# --------------------------------------------------------------------------- #


def _random_column(rng, count, width):
    return bytes(rng.getrandbits(8) for _ in range(count * width))


@pytest.mark.parametrize("width", [4, 13, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crc32_column_matches_scalar(width, seed):
    rng = make_rng(seed)
    count = 257
    data = _random_column(rng, count, width)
    column = crc32_column(data, count, width)
    expected = [CRC32.hash(data[i * width : (i + 1) * width]) for i in range(count)]
    assert [int(value) for value in column] == expected


@pytest.mark.parametrize("output_bits", [10, 17, 32])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_h3_column_matches_scalar(output_bits, seed):
    width = ENGINE_KEY_WIDTH
    h3 = H3Hash(key_bits=8 * width, output_bits=output_bits, seed=seed)
    hasher = H3ColumnHasher(h3, width)
    rng = make_rng(seed + 100)
    count = 129
    data = _random_column(rng, count, width)
    column = hasher.hash_column(data, count)
    expected = [h3.hash(data[i * width : (i + 1) * width]) for i in range(count)]
    assert [int(value) for value in column] == expected


def test_h3_column_rejects_too_wide_keys():
    h3 = H3Hash(key_bits=16, output_bits=8, seed=0)
    with pytest.raises(ValueError):
        H3ColumnHasher(h3, width=3)


def test_crc32_partition_matches_shard_of():
    for shards in (1, 3, 4, 8):
        engine = ShardedFlowLUT(shards=shards, config=CONFIG)
        block = scenario_block("uniform_random", 200, seed=3)
        groups = crc32_partition(block.key_data, len(block), block.key_width, shards)
        keys = block.keys()
        seen = []
        for shard, indices in enumerate(groups):
            for index in indices:
                assert engine.shard_of(keys[index]) == shard
                seen.append(int(index))
        assert sorted(seen) == list(range(len(block)))


def test_table_column_hash_indices_match_scalar():
    lut = FlowLUT(CONFIG)
    block = scenario_block("zipf_mix", 150, seed=5)
    idx1_col, idx2_col = lut.table.column_hash_indices(
        block.key_data, len(block), block.key_width
    )
    for i, key in enumerate(block.keys()):
        assert (int(idx1_col[i]), int(idx2_col[i])) == lut.table.hash_indices(key)


def test_ring_lookup_column_matches_scalar():
    ring = HashRing()
    for node in ("alpha", "beta", "gamma", "delta"):
        ring.add_node(node)
    block = scenario_block("uniform_random", 300, seed=4)
    owners = ring.lookup_column(block.key_data, len(block), block.key_width)
    assert owners == [ring.lookup(key) for key in block.keys()]


# --------------------------------------------------------------------------- #
# End-to-end equivalence: columnar path == object path
# --------------------------------------------------------------------------- #


def test_flow_lut_process_block_matches_timed_path():
    packets = 300
    descriptors = scenario_descriptors("zipf_mix", packets, seed=17)
    block = DescriptorBlock.from_descriptors(descriptors)

    timed = FlowLUT(CONFIG)
    timed.flow_state = FlowStateTable(timeout_us=CONFIG.flow_timeout_us)
    for descriptor in descriptors:
        timed.submit_blocking(descriptor)
    timed.drain()

    bulk = FlowLUT(CONFIG)
    bulk.flow_state = FlowStateTable(timeout_us=CONFIG.flow_timeout_us)
    outcome = bulk.process_block(block)

    assert (bulk.completed, bulk.hits, bulk.misses, bulk.new_flows) == (
        timed.completed, timed.hits, timed.misses, timed.new_flows
    )
    assert bulk.insert_failures == timed.insert_failures
    assert len(outcome) == packets

    def state(lut):
        return {
            record.key: (record.packets, record.bytes, record.first_seen_ps, record.last_seen_ps)
            for record in lut.flow_state
        }

    assert state(bulk) == state(timed)


def test_sharded_columnar_matches_object_path_on_every_scenario():
    packets = 300
    for name in list_scenarios():
        tele_obj = _ample_telemetry(packets)
        tele_col = _ample_telemetry(packets)
        obj = run_scenario_sharded(name, packets, shards=4, seed=23, telemetry=tele_obj)
        col = run_scenario_columnar(name, packets, shards=4, seed=23, telemetry=tele_col)
        assert col.totals() == obj.totals(), name
        assert col.shard_completed == obj.shard_completed, name
        assert tele_col.report() == tele_obj.report(), name
        assert _books(tele_col, packets) == _books(tele_obj, packets), name
        assert tele_col.superspreaders() == tele_obj.superspreaders(), name


@pytest.mark.parametrize("replication", [1, 2])
def test_cluster_block_ingest_matches_object_path(replication):
    packets = 300
    tele = TelemetryConfig(
        heavy_hitter_capacity=8 * packets, spreader_sources=8 * packets
    )
    results = {}
    for label, feed in (
        ("object", scenario_descriptors("node_failover", packets, seed=23)),
        ("block", scenario_block("node_failover", packets, seed=23)),
    ):
        coordinator = ClusterCoordinator(
            nodes=3, config=CONFIG, telemetry_config=tele, telemetry_seed=5,
            batch_size=64, replication=replication,
        )
        summary = coordinator.ingest(feed)
        assert summary["packets"] == packets
        results[label] = coordinator
    obj, col = results["object"], results["block"]
    assert col.cluster_totals() == obj.cluster_totals()
    assert col.flow_books() == obj.flow_books()
    assert col.flow_books()["balanced"]
    assert col.routed == obj.routed
    merged_obj = obj.merged_telemetry()
    merged_col = col.merged_telemetry()
    assert _books(merged_col, packets) == _books(merged_obj, packets)


def test_cluster_block_ingest_on_every_scenario():
    packets = 200
    for name in list_scenarios():
        obj_c = ClusterCoordinator(nodes=3, config=CONFIG, telemetry=False, batch_size=50)
        col_c = ClusterCoordinator(nodes=3, config=CONFIG, telemetry=False, batch_size=50)
        obj_c.ingest(scenario_descriptors(name, packets, seed=23))
        col_c.ingest(scenario_block(name, packets, seed=23))
        assert col_c.cluster_totals() == obj_c.cluster_totals(), name
        assert col_c.flow_books() == obj_c.flow_books(), name


# --------------------------------------------------------------------------- #
# Stdlib fallback (no numpy)
# --------------------------------------------------------------------------- #


def test_fallback_block_round_trip(no_numpy):
    descriptors = scenario_descriptors("zipf_mix", 120, seed=3)
    block = DescriptorBlock.from_descriptors(descriptors)
    assert block.to_descriptors() == descriptors
    assert DescriptorBlock.from_descriptors(block.to_descriptors()) == block


def test_fallback_hashing_matches_scalar(no_numpy):
    rng = make_rng(7)
    width = ENGINE_KEY_WIDTH
    count = 100
    data = _random_column(rng, count, width)
    assert list(crc32_column(data, count, width)) == [
        CRC32.hash(data[i * width : (i + 1) * width]) for i in range(count)
    ]
    h3 = H3Hash(key_bits=8 * width, output_bits=17, seed=7)
    hasher = H3ColumnHasher(h3, width)
    assert list(hasher.hash_column(data, count)) == [
        h3.hash(data[i * width : (i + 1) * width]) for i in range(count)
    ]


def test_fallback_backend_blocks_interoperate_with_numpy_blocks():
    if backend.np is None:
        pytest.skip("numpy backend unavailable")
    descriptors = scenario_descriptors("churn", 80, seed=3)
    numpy_block = DescriptorBlock.from_descriptors(descriptors)
    saved = backend.np
    try:
        backend.np = None
        stdlib_block = DescriptorBlock.from_descriptors(descriptors)
        assert stdlib_block == numpy_block
        assert numpy_block == stdlib_block
    finally:
        backend.np = saved


def test_fallback_sharded_columnar_matches_object_path(no_numpy):
    packets = 200
    tele_obj = _ample_telemetry(packets)
    tele_col = _ample_telemetry(packets)
    obj = run_scenario_sharded("zipf_mix", packets, shards=4, seed=23, telemetry=tele_obj)
    col = run_scenario_columnar("zipf_mix", packets, shards=4, seed=23, telemetry=tele_col)
    assert col.totals() == obj.totals()
    assert tele_col.report() == tele_obj.report()


# --------------------------------------------------------------------------- #
# Observability of the columnar stages
# --------------------------------------------------------------------------- #


def test_columnar_batches_record_stage_timings():
    obs = MetricsRegistry()
    engine = ShardedFlowLUT(shards=4, config=CONFIG, obs=obs)
    block = scenario_block("zipf_mix", 256, seed=17)
    for offset in range(0, 256, 64):
        engine.process_batch(block.take(range(offset, offset + 64)))
    histogram = obs.histogram(
        "repro_engine_stage_ns",
        "Host-side duration of each batch stage (hash/steer/probe/drain/pack/telemetry)",
        labels=("stage",),
    )
    samples = {labels["stage"]: child.count for labels, child in histogram.samples()}
    assert (
        samples["hash"] == samples["steer"] == samples["probe"] == samples["pack"]
        == engine.batches == 4
    )
    assert samples["drain"] == 0  # the bulk probe leaves nothing in flight
    shard_counter = obs.counter(
        "repro_engine_shard_descriptors_total",
        "Descriptors ingested per shard",
        labels=("shard",),
    )
    total = sum(value for _, value in shard_counter.samples())
    assert total == 256


def test_columnar_obs_instrumentation_changes_nothing():
    block = scenario_block("zipf_mix", 300, seed=17)

    def drive(obs):
        engine = ShardedFlowLUT(shards=4, config=CONFIG, obs=obs)
        for offset in range(0, 300, 100):
            engine.process_batch(block.take(range(offset, min(offset + 100, 300))))
        return engine

    plain = drive(None)
    metered = drive(MetricsRegistry())
    assert (metered.completed, metered.hits, metered.misses, metered.new_flows) == (
        plain.completed, plain.hits, plain.misses, plain.new_flows
    )
    assert metered.elapsed_ps == plain.elapsed_ps
    assert metered.shard_completed == plain.shard_completed


def test_slice_rows_matches_take_and_clamps():
    block = scenario_block("zipf_mix", 100, seed=5)
    window = block.slice_rows(10, 30)
    assert len(window) == 20
    assert window == block.take(list(range(10, 30)))
    # The full range is the block itself (no copy), and bounds clamp.
    assert block.slice_rows(0, 100) is block
    assert block.slice_rows(0, 10_000) is block
    assert len(block.slice_rows(90, 10_000)) == 10
    assert len(block.slice_rows(100, 200)) == 0
