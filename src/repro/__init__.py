"""repro — reproduction of "A Hardware Acceleration Scheme for Memory-Efficient
Flow Processing" (Yang, Sezer, O'Neill, IEEE SOCC 2014).

The package is organised as the paper's system is:

* :mod:`repro.core` — the dual-path, DDR3-backed Flow LUT (the contribution).
* :mod:`repro.memory` — DDR3 SDRAM device/controller timing models.
* :mod:`repro.cam`, :mod:`repro.hashing` — on-chip lookup substrates.
* :mod:`repro.net` — packets, 5-tuples, descriptors, line-rate arithmetic.
* :mod:`repro.traffic` — workload and synthetic trace generation.
* :mod:`repro.baselines` — single-hash, d-left, cuckoo, Bloom-filter and
  SRAM Hash-CAM comparison points.
* :mod:`repro.analyzer` — the Figure 7 traffic-analyzer integration.
* :mod:`repro.engine` — sharded batch fast-path execution
  (:class:`~repro.engine.ShardedFlowLUT` and the scenario runner).
* :mod:`repro.cluster` — the scale-out tier: consistent-hash flow steering
  across :class:`~repro.cluster.ClusterNode` fleets, node join/leave/failure
  with flow-state migration, k=2 ring replication with lossless backup
  promotion, periodic checkpointing, and mergeable cluster-wide telemetry
  (:class:`~repro.cluster.ClusterCoordinator`).
* :mod:`repro.parallel` — the per-node unit of cluster ingestion: one
  node's share of a steered segment, run on the caller thread before the
  coordinator's barrier.
* :mod:`repro.persist` — durable checkpoint/restore: versioned binary
  codecs for flow state, live-key maps and every telemetry structure,
  with seed/geometry guards mirroring the merge guards.
* :mod:`repro.telemetry` — sketch-based streaming measurement (heavy
  hitters, superspreaders, flow sizes) riding on the analyzer's events.
* :mod:`repro.trace` — trace interchange: classic-pcap capture ingest
  (both byte orders, Ethernet → IPv4 → TCP/UDP subset), spec-layout
  NetFlow v5 export of the flow-state streams, and trace-backed
  scenarios replaying any recording through every engine path.
* :mod:`repro.obs` — the unified observability plane: mergeable labeled
  metrics (:class:`~repro.obs.MetricsRegistry`), the cluster lifecycle
  :class:`~repro.obs.EventJournal`, Prometheus/JSON exporters and the
  ``BENCH_<area>.json`` benchmark-trajectory emitter; every layer above
  accepts ``obs=`` to opt in.
* :mod:`repro.reporting` — experiment tables and paper reference values.

Quick start::

    from repro import FlowLUT, FlowLUTConfig, small_test_config
    from repro.traffic import random_flow_keys, descriptors_from_keys
    from repro.core import run_lookup_experiment

    lut = FlowLUT(small_test_config())
    keys = random_flow_keys(1000, seed=1)
    result = run_lookup_experiment(lut, descriptors_from_keys(keys))
    print(result.throughput_mdesc_s, "Mdesc/s")
"""

from repro.cluster import ClusterCoordinator, ClusterNode, HashRing
from repro.core.config import FlowLUTConfig, PROTOTYPE_CONFIG, small_test_config
from repro.core.flow_lut import FlowLUT, LookupOutcome
from repro.core.flow_state import FlowRecord, FlowStateTable
from repro.core.harness import DescriptorSource, ExperimentResult, run_lookup_experiment
from repro.core.hash_cam import HashCamTable, LookupStage
from repro.engine import ShardedFlowLUT
from repro.net.fivetuple import FlowKey
from repro.net.packet import Packet
from repro.net.parser import DescriptorExtractor, PacketDescriptor
from repro.obs import EventJournal, MetricsRegistry, Observability, Stopwatch
from repro.sim.engine import Simulator
from repro.telemetry import TelemetryConfig, TelemetryPipeline

__version__ = "0.1.0"

__all__ = [
    "ClusterCoordinator",
    "ClusterNode",
    "DescriptorExtractor",
    "DescriptorSource",
    "EventJournal",
    "ExperimentResult",
    "FlowKey",
    "FlowLUT",
    "FlowLUTConfig",
    "FlowRecord",
    "FlowStateTable",
    "HashCamTable",
    "HashRing",
    "LookupOutcome",
    "LookupStage",
    "MetricsRegistry",
    "Observability",
    "PROTOTYPE_CONFIG",
    "Packet",
    "PacketDescriptor",
    "ShardedFlowLUT",
    "Stopwatch",
    "Simulator",
    "TelemetryConfig",
    "TelemetryPipeline",
    "run_lookup_experiment",
    "small_test_config",
    "__version__",
]
