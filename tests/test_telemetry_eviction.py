"""Telemetry equivalence while the bounded structures evict.

The columnar-vs-object batteries in ``tests/test_columns.py`` size every
summary so nothing is ever evicted, which makes them blind to a wrong
eviction victim.  This module runs at the default :class:`TelemetryConfig`
(128 heavy hitters, 256 sources per detector), where a few thousand packets
evict hundreds of entries, and pins three things:

1. **Block path == object path == scalar reference.**  The same rows fed as
   an :class:`OutcomeBlock`, as per-row outcome objects, and through a
   hand-written per-row loop over the scalar hashers and a ``min()``-scan
   detector leave identical Count-Min grids, Space-Saving entries, and
   detector source lists (dict order, bitmaps, contacts, evictions) — on
   both column backends.
2. **Lazy-heap eviction == ``min()`` scan.**  A property test on random
   streams with many ``bits_set`` ties, through merge overflow and
   snapshot -> restore -> continue.
3. **Merged Space-Saving is independent of ``PYTHONHASHSEED``.**
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.columns import backend
from repro.columns.hashing import TabulationColumnHasher
from repro.core.config import small_test_config
from repro.core.flow_lut import FlowLUT
from repro.hashing.tabulation import TabulationHash
from repro.net.fivetuple import PROTO_TCP
from repro.net.packet import TCP_FLAGS
from repro.persist import dumps, loads
from repro.sim.rng import make_rng
from repro.telemetry import TelemetryConfig
from repro.telemetry.heavy_hitters import SpaceSavingTracker
from repro.telemetry.pipeline import TelemetryPipeline
from repro.telemetry.sketches import CountMinSketch, DistinctCounter
from repro.telemetry.superspreader import SuperSpreaderDetector
from repro.traffic import scenario_block

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(params=["numpy", "stdlib"])
def column_backend(request, monkeypatch):
    """Run the test once per column backend."""
    if request.param == "numpy":
        if backend.np is None:
            pytest.skip("numpy backend unavailable")
    else:
        monkeypatch.setattr(backend, "np", None)
    return request.param


# --------------------------------------------------------------------------- #
# Scalar reference
# --------------------------------------------------------------------------- #


class MinScanDetector:
    """The detector as a linear ``min()`` scan: the reference for eviction.

    Mirrors :class:`SuperSpreaderDetector`'s observable state (dict-ordered
    sources, their bitmaps, ``updates``, ``evictions``) with the simplest
    possible victim choice: the first source in dict order among those with
    the fewest bits set.
    """

    def __init__(self, like: SuperSpreaderDetector) -> None:
        self.max_sources = like.max_sources
        self.bitmap_bits = like.bitmap_bits
        self.key_bits = like.key_bits
        self.hash_seed = like.hash_seed
        self.counter_seed = like.counter_hash_seed
        self.counters = {}
        self.updates = 0
        self.evictions = 0

    def _evict_while(self, limit: int) -> None:
        while len(self.counters) > limit:
            victim = min(self.counters, key=lambda s: self.counters[s].bits_set)
            del self.counters[victim]
            self.evictions += 1

    def _fresh(self) -> DistinctCounter:
        return DistinctCounter.from_state(
            bitmap_bits=self.bitmap_bits, key_bits=self.key_bits,
            hash_seed=self.counter_seed, bitmap=0, items_added=0,
        )

    def update(self, source, destination) -> None:
        if source not in self.counters:
            self._evict_while(self.max_sources - 1)
            self.counters[source] = self._fresh()
        self.counters[source].add(destination)
        self.updates += 1

    def merge(self, other: "MinScanDetector") -> None:
        for source, counter in other.counters.items():
            if source not in self.counters:
                self.counters[source] = self._fresh()
            self.counters[source].merge(counter)
        self.updates += other.updates
        self._evict_while(self.max_sources)

    def state(self):
        sources = [
            (source, counter.bitmap_value, counter.items_added)
            for source, counter in self.counters.items()
        ]
        return sources, self.updates, self.evictions


def detector_state(detector: SuperSpreaderDetector):
    sources = [
        (source, counter.bitmap_value, counter.items_added)
        for source, counter in detector.source_states()
    ]
    return sources, detector.updates, detector.evictions


def pipeline_state(pipeline: TelemetryPipeline):
    return {
        "packet_grid": pipeline.packet_counts.counter_rows(),
        "packet_total": pipeline.packet_counts.total,
        "byte_grid": pipeline.byte_counts.counter_rows(),
        "byte_total": pipeline.byte_counts.total,
        "heavy_hitters": pipeline.heavy_hitters.entry_states(),
        "hh_evictions": pipeline.heavy_hitters.evictions,
        "spreaders": detector_state(pipeline.spreaders),
        "port_scanners": detector_state(pipeline.port_scanners),
        "totals": (pipeline.packets, pipeline.bytes, pipeline.syn_packets),
    }


def scalar_reference(block, like: TelemetryPipeline):
    """Per-row updates over scalar hashers, with ``min()``-scan detectors."""
    cfg = like.config
    packet_counts = CountMinSketch.from_state(
        width=cfg.cm_width, depth=cfg.cm_depth, key_bits=104,
        hash_seed=like.packet_counts.hash_seed,
        rows=[[0] * cfg.cm_width for _ in range(cfg.cm_depth)], total=0,
    )
    byte_counts = CountMinSketch.from_state(
        width=cfg.cm_width, depth=cfg.cm_depth, key_bits=104,
        hash_seed=like.byte_counts.hash_seed,
        rows=[[0] * cfg.cm_width for _ in range(cfg.cm_depth)], total=0,
    )
    heavy_hitters = SpaceSavingTracker(cfg.heavy_hitter_capacity)
    spreaders = MinScanDetector(like.spreaders)
    port_scanners = MinScanDetector(like.port_scanners)
    packets = total_bytes = syn_packets = 0
    for key, length, flags in zip(block.flow_keys(), block.lengths.tolist(), block.flags.tolist()):
        packed = key.pack()
        packets += 1
        total_bytes += length
        packet_counts.update(packed)
        if length > 0:
            byte_counts.update(packed, length)
            heavy_hitters.update(packed, length)
        spreaders.update(key.src_ip, key.dst_ip)
        port_scanners.update(key.src_ip, (key.dst_ip << 16) | key.dst_port)
        if key.protocol == PROTO_TCP and flags & TCP_FLAGS["SYN"] and not flags & TCP_FLAGS["ACK"]:
            syn_packets += 1
    return {
        "packet_grid": packet_counts.counter_rows(),
        "packet_total": packet_counts.total,
        "byte_grid": byte_counts.counter_rows(),
        "byte_total": byte_counts.total,
        "heavy_hitters": heavy_hitters.entry_states(),
        "hh_evictions": heavy_hitters.evictions,
        "spreaders": spreaders.state(),
        "port_scanners": port_scanners.state(),
        "totals": (packets, total_bytes, syn_packets),
    }


# --------------------------------------------------------------------------- #
# 1. Block path == object path == scalar reference, under eviction
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("scenario", ["zipf_mix", "port_scan", "syn_flood"])
def test_block_object_and_scalar_paths_agree_under_eviction(scenario, column_backend):
    block = scenario_block(scenario, 1500, seed=11)
    lut = FlowLUT(small_test_config())
    columnar = TelemetryPipeline(TelemetryConfig(), seed=5)
    objects = TelemetryPipeline(TelemetryConfig(), seed=5)
    # Several blocks, so state carries across block boundaries.
    for start in range(0, len(block), 400):
        outcomes = lut.process_block(block.slice_rows(start, start + 400))
        columnar.observe_outcomes(outcomes)
        objects.observe_outcomes(outcomes.to_outcomes())

    state = pipeline_state(columnar)
    assert state["hh_evictions"] > 0
    assert state["spreaders"][2] > 0 and state["port_scanners"][2] > 0
    assert state == pipeline_state(objects)
    assert state == scalar_reference(block, columnar)


def test_block_path_snapshots_match_object_path_byte_for_byte(column_backend):
    block = scenario_block("zipf_mix", 1200, seed=4)
    outcomes = FlowLUT(small_test_config()).process_block(block)
    columnar = TelemetryPipeline(seed=9)
    objects = TelemetryPipeline(seed=9)
    columnar.observe_outcomes(outcomes)
    objects.observe_outcomes(outcomes.to_outcomes())
    assert dumps(columnar) == dumps(objects)


def test_count_min_update_block_matches_per_key_updates(column_backend):
    rng = make_rng(3)
    keys = [rng.getrandbits(104).to_bytes(13, "big") for _ in range(300)]
    keys += keys[:50]  # repeated keys land in the same cells
    weights = [rng.randrange(0, 1500) for _ in keys]
    weights[::7] = [0] * len(weights[::7])
    block_sketch = CountMinSketch(width=97, depth=3, seed=21)
    row_sketch = CountMinSketch(width=97, depth=3, seed=21)
    block_sketch.update_block(b"".join(keys), len(keys))
    block_sketch.update_block(b"".join(keys), len(keys), weights)
    for key, weight in zip(keys, weights):
        row_sketch.update(key)
        row_sketch.update(key, weight)
    assert block_sketch.counter_rows() == row_sketch.counter_rows()
    assert block_sketch.total == row_sketch.total
    with pytest.raises(ValueError):
        block_sketch.update_block(b"".join(keys), len(keys), [-1] * len(keys))
    with pytest.raises(ValueError):
        block_sketch.update_block(b"".join(keys)[:-1], len(keys))


@pytest.mark.parametrize("key_bytes,output_bits", [(8, 32), (4, 17), (6, 64)])
def test_tabulation_column_matches_scalar(key_bytes, output_bits, column_backend):
    rng = make_rng(key_bytes * output_bits)
    scalar = TabulationHash(key_bytes, output_bits, seed=41)
    values = [rng.getrandbits(8 * key_bytes) for _ in range(200)] + [0, 256 ** key_bytes - 1]
    hasher = TabulationColumnHasher(scalar.tables)
    assert hasher.bucket_column(values, 509) == [scalar.hash(v) % 509 for v in values]
    assert hasher.bucket_column([], 509) == []


# --------------------------------------------------------------------------- #
# 2. Lazy-heap eviction == min() scan
# --------------------------------------------------------------------------- #

_contacts = st.lists(
    st.tuples(st.integers(0, 23), st.integers(0, 40)), min_size=1, max_size=250
)


def _fresh_detector(max_sources: int, seed: int) -> SuperSpreaderDetector:
    # Small bitmaps and a small destination space make bits_set ties common.
    return SuperSpreaderDetector(max_sources=max_sources, bitmap_bits=16, key_bits=32, seed=seed)


def _feed(detector, reference, contacts, columnar: bool) -> None:
    if columnar:
        detector.update_column([s for s, _ in contacts], [d for _, d in contacts])
        for source, destination in contacts:
            reference.update(source, destination)
    else:
        for source, destination in contacts:
            detector.update(source, destination)
            reference.update(source, destination)
            assert detector_state(detector) == reference.state()
    assert detector_state(detector) == reference.state()


@settings(max_examples=60, deadline=None)
@given(
    max_sources=st.integers(1, 8),
    seed=st.integers(0, 2**32),
    first=_contacts,
    second=_contacts,
    third=_contacts,
    columnar=st.booleans(),
)
def test_lazy_heap_victims_match_min_scan(max_sources, seed, first, second, third, columnar):
    left = _fresh_detector(max_sources, seed)
    right = _fresh_detector(max_sources, seed)
    left_ref, right_ref = MinScanDetector(left), MinScanDetector(right)
    _feed(left, left_ref, first, columnar)
    _feed(right, right_ref, second, columnar)

    # Merge overflow: the union exceeds max_sources and evicts in bulk.
    left.merge(right)
    left_ref.merge(right_ref)
    assert detector_state(left) == left_ref.state()

    # Snapshot -> restore -> continue: the restored heap keeps the victims.
    restored = loads(dumps(left))
    assert detector_state(restored) == left_ref.state()
    _feed(restored, left_ref, third, columnar)


# --------------------------------------------------------------------------- #
# 3. Merged Space-Saving does not depend on PYTHONHASHSEED
# --------------------------------------------------------------------------- #

_MERGE_SCRIPT = """
import json
from repro.telemetry.heavy_hitters import SpaceSavingTracker

left, right = SpaceSavingTracker(8), SpaceSavingTracker(8)
for index in range(12):
    left.update(f"left-{index}", 5)
    right.update(f"right-{index}", 5)
    left.update(f"both-{index}", 2)
    right.update(f"both-{index}", 3)
left.merge(right)
print(json.dumps([[h.key, h.count, h.error] for h in left.top(8)]))
"""


def test_merged_space_saving_is_independent_of_hash_seed():
    outputs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c", _MERGE_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
