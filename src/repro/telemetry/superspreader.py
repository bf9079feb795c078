"""Superspreader (distinct-destination) estimation.

A *superspreader* is a source that contacts many distinct destinations in a
measurement window — the signature of horizontal port scans, worm
propagation and some DDoS patterns.  Byte/packet heavy-hitter tracking cannot
see it (each probe is tiny), so this detector pairs a Space-Saving style
bounded table of sources with a per-source :class:`~repro.telemetry.sketches.
DistinctCounter` bitmap: duplicate contacts to the same destination set the
same bit and are not counted again, which is what separates a chatty flow
from a spreading one.

The smallest monitored source is found with a *lazy min-heap*, the pattern
:mod:`repro.telemetry.heavy_hitters` uses: one ``(bits_set, seq, source)``
entry per monitored source, where ``seq`` is its admission order.  Bitmaps
only gain bits, so an entry's ``bits_set`` is a lower bound of the live
value; an eviction pops the top, re-pushes it at its live value if it has
grown, and evicts it once the top is current.  The ``seq`` tie-break picks
the earliest-admitted source among equal fan-outs — the one ``min()`` over
the dict would pick — so victims match a linear scan at ``O(log
max_sources)`` instead of ``O(max_sources)`` per eviction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.columns.hashing import TabulationColumnHasher
from repro.hashing.h3 import KeyLike
from repro.hashing.tabulation import TabulationHash
from repro.sim.rng import SeedLike, make_rng
from repro.telemetry.sketches import DistinctCounter


@dataclass(frozen=True)
class SpreaderReport:
    """One source and its estimated distinct-destination fan-out."""

    source: Hashable
    fanout: float
    contacts: int


class SuperSpreaderDetector:
    """Bounded-memory fan-out tracking per source.

    Parameters
    ----------
    max_sources: number of sources monitored simultaneously; when full, the
        source with the smallest fan-out estimate is evicted (Space-Saving
        style), which preserves the large spreaders the detector exists for.
    bitmap_bits: size of each per-source distinct-count bitmap.
    threshold: fan-out at or above which a source is reported as a
        superspreader.
    seed: seeds the shared hash family so all bitmaps are mergeable and runs
        are reproducible.
    """

    def __init__(
        self,
        max_sources: int = 256,
        bitmap_bits: int = 512,
        threshold: float = 64.0,
        key_bits: int = 64,
        seed: SeedLike = None,
    ) -> None:
        if max_sources <= 0:
            raise ValueError("max_sources must be positive")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.max_sources = max_sources
        self.bitmap_bits = bitmap_bits
        self.threshold = threshold
        self.key_bits = key_bits
        self._counters: Dict[Hashable, DistinctCounter] = {}
        # Lazy min-heap of (bits_set, admission seq, source), one entry per
        # monitored source; see the module docstring.
        self._heap: List[Tuple[int, int, Hashable]] = []
        self._seq = 0
        self._set_seed(make_rng(seed).getrandbits(64))
        self.updates = 0
        self.evictions = 0

    def _set_seed(self, seed: int) -> None:
        """Adopt the resolved detector seed and the bitmap hash derived from it."""
        self._seed = seed
        # Every per-source bitmap hashes with this one function, so it is
        # derived once here rather than per admitted source.
        self._counter_seed = make_rng(seed).getrandbits(64)
        self._counter_hash = TabulationHash((self.key_bits + 7) // 8, 32, seed=self._counter_seed)
        self._column_hasher = TabulationColumnHasher(self._counter_hash.tables)

    @classmethod
    def from_state(
        cls,
        *,
        max_sources: int,
        bitmap_bits: int,
        threshold: float,
        key_bits: int,
        hash_seed: int,
        sources: List[Tuple[Hashable, DistinctCounter]],
        updates: int,
        evictions: int,
    ) -> "SuperSpreaderDetector":
        """Rebuild a detector from snapshotted per-source counters.

        Every restored counter must carry the detector's shared
        ``hash_seed`` and geometry — the same compatibility the merge
        guards enforce — or :class:`ValueError` is raised.
        """
        if len(sources) > max_sources:
            raise ValueError("more sources than the declared max_sources")
        detector = cls(
            max_sources=max_sources,
            bitmap_bits=bitmap_bits,
            threshold=threshold,
            key_bits=key_bits,
            seed=0,
        )
        detector._set_seed(hash_seed)
        counter_seed = detector.counter_hash_seed
        for source, counter in sources:
            if counter.bitmap_bits != bitmap_bits or counter.key_bits != key_bits:
                raise ValueError("source counter geometry does not match the detector")
            if counter.hash_seed != counter_seed:
                raise ValueError("source counter was built from a different hash seed")
            if source in detector._counters:
                raise ValueError("duplicate source in snapshot")
            detector._counters[source] = counter
        if updates < 0 or evictions < 0:
            raise ValueError("updates and evictions must be non-negative")
        detector.updates = updates
        detector.evictions = evictions
        detector._rebuild_heap()
        return detector

    @property
    def hash_seed(self) -> int:
        """The resolved 64-bit detector seed (bitmap hashes derive from it)."""
        return self._seed

    @property
    def counter_hash_seed(self) -> int:
        """The derived seed every per-source bitmap actually hashes with.

        Each bitmap hashes as ``DistinctCounter(..., seed=self._seed)``
        would, and the counter resolves that seed-like input to
        ``make_rng(seed).getrandbits(64)`` — so this, not ``_seed`` itself,
        is what a restored counter must carry to be mergeable.
        """
        return self._counter_seed

    def source_states(self) -> List[Tuple[Hashable, DistinctCounter]]:
        """The monitored ``(source, counter)`` pairs, for snapshotting."""
        return list(self._counters.items())

    def __len__(self) -> int:
        return len(self._counters)

    def _new_counter(self) -> DistinctCounter:
        # All counters share one hash so estimates are comparable.
        return DistinctCounter.sharing(
            self._counter_hash,
            self._counter_seed,
            bitmap_bits=self.bitmap_bits,
            key_bits=self.key_bits,
        )

    def _rebuild_heap(self) -> None:
        """One fresh heap entry per source, sequenced in dict order."""
        self._heap = [
            (counter.bits_set, seq, source)
            for seq, (source, counter) in enumerate(self._counters.items())
        ]
        heapq.heapify(self._heap)
        self._seq = len(self._heap)

    def _evict_min(self) -> None:
        """Drop the source with the fewest bits set (earliest admitted on ties).

        ``bits_set`` is a monotone proxy for ``estimate()`` and O(1) to read.
        """
        heap = self._heap
        counters = self._counters
        while True:
            bits, seq, source = heap[0]
            current = counters[source].bits_set
            if current == bits:
                heapq.heappop(heap)
                del counters[source]
                self.evictions += 1
                return
            heapq.heapreplace(heap, (current, seq, source))

    def _admit(self, source: Hashable) -> DistinctCounter:
        if len(self._counters) >= self.max_sources:
            self._evict_min()
        counter = self._counters[source] = self._new_counter()
        heapq.heappush(self._heap, (0, self._seq, source))
        self._seq += 1
        return counter

    def update(self, source: Hashable, destination: KeyLike) -> None:
        """Record that ``source`` contacted ``destination``."""
        counter = self._counters.get(source)
        if counter is None:
            counter = self._admit(source)
        counter.add(destination)
        self.updates += 1

    def update_column(self, sources: Sequence[Hashable], destinations: Sequence[int]) -> None:
        """Record ``sources[i]`` contacting integer ``destinations[i]``, in order.

        Leaves the detector exactly as :meth:`update` row by row would: the
        destination column is hashed in one pass, and only admission,
        eviction and bit-setting — which depend on arrival order — run per
        row.
        """
        if self.key_bits % 8:
            # The column hasher reads whole bytes; clamp as add() does.
            mask = (1 << self.key_bits) - 1
            destinations = [destination & mask for destination in destinations]
        positions = self._column_hasher.bucket_column(destinations, self.bitmap_bits)
        counters = self._counters
        for source, position in zip(sources, positions):
            counter = counters.get(source)
            if counter is None:
                counter = self._admit(source)
            counter.add_position(position)
        self.updates += len(positions)

    def merge(self, other: "SuperSpreaderDetector") -> "SuperSpreaderDetector":
        """Union ``other``'s per-source bitmaps into this detector.

        Bitmap union is exact for distinct counting, so merging per-node
        detectors built from the same seed yields the fan-out each source
        would show against the concatenated stream (duplicated contacts
        observed on both nodes still count once).  Geometry and hash seed
        must match, mirroring :meth:`DistinctCounter.merge`; the guards run
        before any state changes.  If the union exceeds ``max_sources``,
        the smallest fan-outs are evicted, as arrival-time eviction would.
        """
        if other.bitmap_bits != self.bitmap_bits:
            raise ValueError("cannot merge detectors with different bitmap sizes")
        if other.key_bits != self.key_bits:
            raise ValueError("cannot merge detectors with different key widths")
        if other._seed != self._seed:
            raise ValueError("cannot merge detectors built from different hash seeds")
        for source, counter in other._counters.items():
            mine = self._counters.get(source)
            if mine is None:
                mine = self._counters[source] = self._new_counter()
            mine.merge(counter)
        self.updates += other.updates
        self._rebuild_heap()
        while len(self._counters) > self.max_sources:
            self._evict_min()
        return self

    def fanout(self, source: Hashable) -> float:
        """Estimated distinct destinations of ``source`` (0 if unmonitored)."""
        counter = self._counters.get(source)
        return counter.estimate() if counter is not None else 0.0

    def superspreaders(self, threshold: Optional[float] = None) -> List[SpreaderReport]:
        """Sources whose estimated fan-out meets the threshold, descending."""
        limit = threshold if threshold is not None else self.threshold
        reports = [
            SpreaderReport(source=source, fanout=counter.estimate(), contacts=counter.items_added)
            for source, counter in self._counters.items()
            if counter.estimate() >= limit
        ]
        return sorted(reports, key=lambda report: report.fanout, reverse=True)

    def top(self, count: int = 10) -> List[SpreaderReport]:
        """The ``count`` largest fan-outs currently monitored."""
        reports = [
            SpreaderReport(source=source, fanout=counter.estimate(), contacts=counter.items_added)
            for source, counter in self._counters.items()
        ]
        return sorted(reports, key=lambda report: report.fanout, reverse=True)[:count]

    @property
    def memory_bits(self) -> int:
        """Provisioned bitmap storage (a hardware table allocates all rows)."""
        return self.max_sources * self.bitmap_bits

    def stats(self) -> dict:
        return {
            "monitored_sources": len(self._counters),
            "max_sources": self.max_sources,
            "threshold": self.threshold,
            "updates": self.updates,
            "evictions": self.evictions,
            "memory_bits": self.memory_bits,
        }
