"""Space-Saving heavy-hitter tracking.

The operator question behind Table-style flow accounting is usually just
"which flows are the biggest right now?".  The Space-Saving algorithm
(Metwally, Agrawal & El Abbadi) answers it with exactly ``capacity`` counters
regardless of how many flows the stream contains: a monitored key is
incremented in place, an unmonitored key evicts the current minimum and
inherits its count as its *error bound*.  Two guarantees make the summary
usable: counts never underestimate (``count - error <= true <= count``), and
any key whose true count exceeds ``total / capacity`` is guaranteed to be
monitored.

The minimum is tracked with a *lazy min-heap* rather than a scan: every
counter change pushes a ``(count, seq, key)`` entry, eviction pops entries
until the top reflects a live counter, and the heap is compacted back to
``capacity`` entries once stale entries dominate.  An eviction therefore
costs amortised ``O(log capacity)`` instead of the ``O(capacity)`` linear
``min()`` scan a dict-only implementation needs — the difference between a
flat and a quadratic-feeling hot path under churn or port-scan workloads
where nearly every arrival is unmonitored.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Tuple


@dataclass(frozen=True)
class HeavyHitter:
    """One monitored entry of the Space-Saving summary."""

    key: Hashable
    count: int
    error: int

    @property
    def guaranteed(self) -> int:
        """A lower bound on the key's true count."""
        return self.count - self.error


class SpaceSavingTracker:
    """Top-k tracking in O(capacity) memory.

    Parameters
    ----------
    capacity: number of monitored counters; the summary guarantees every key
        with frequency above ``total / capacity`` is present.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._counts: Dict[Hashable, int] = {}
        self._errors: Dict[Hashable, int] = {}
        # Lazy min-heap of (count, seq, key).  An entry is *live* when its
        # count still equals the key's current counter; increments leave the
        # old entry behind as a stale tombstone instead of re-heapifying.
        # The seq tie-breaker keeps heap ordering total for non-comparable
        # keys and evicts the longest-monitored key among count ties.
        self._heap: List[Tuple[int, int, Hashable]] = []
        self._seq = 0
        self.total = 0
        self.evictions = 0

    @classmethod
    def from_state(
        cls,
        *,
        capacity: int,
        entries: List[Tuple[Hashable, int, int]],
        total: int,
        evictions: int,
    ) -> "SpaceSavingTracker":
        """Rebuild a summary from snapshotted ``(key, count, error)`` entries.

        The entries must fit the capacity and keep the Space-Saving
        invariant ``count >= error >= 0``; violations raise
        :class:`ValueError` before any instance exists.
        """
        if len(entries) > capacity:
            raise ValueError("more entries than the declared capacity")
        tracker = cls(capacity)
        for key, count, error in entries:
            if not 0 <= error <= count:
                raise ValueError("entries must satisfy count >= error >= 0")
            if key in tracker._counts:
                raise ValueError("duplicate key in snapshot entries")
            tracker._counts[key] = count
            tracker._errors[key] = error
        if total < 0 or evictions < 0:
            raise ValueError("total and evictions must be non-negative")
        tracker.total = total
        tracker.evictions = evictions
        tracker._compact()
        return tracker

    def entry_states(self) -> List[Tuple[Hashable, int, int]]:
        """The monitored ``(key, count, error)`` triples, for snapshotting."""
        return [(key, count, self._errors[key]) for key, count in self._counts.items()]

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts

    def _push(self, key: Hashable, count: int) -> None:
        heapq.heappush(self._heap, (count, self._seq, key))
        self._seq += 1

    def _compact(self) -> None:
        """Rebuild the heap from the live counters, dropping tombstones.

        Triggered once stale entries outnumber live ones 3:1, so its
        O(capacity) cost amortises over at least ``3 * capacity`` pushes.
        """
        self._seq = 0
        self._heap = []
        for key, count in self._counts.items():
            self._heap.append((count, self._seq, key))
            self._seq += 1
        heapq.heapify(self._heap)

    def _pop_min(self) -> Tuple[Hashable, int]:
        """Remove and return the (key, count) of the current minimum counter."""
        while True:
            count, _, key = heapq.heappop(self._heap)
            if self._counts.get(key) == count:
                return key, count

    def update(self, key: Hashable, count: int = 1) -> None:
        """Account ``count`` units (packets, bytes, ...) to ``key``."""
        if count <= 0:
            raise ValueError("count must be positive")
        self.total += count
        if key in self._counts:
            new_count = self._counts[key] + count
            self._counts[key] = new_count
            self._push(key, new_count)
        elif len(self._counts) < self.capacity:
            self._counts[key] = count
            self._errors[key] = 0
            self._push(key, count)
        else:
            # Evict the minimum: the newcomer inherits its count as error bound.
            victim, floor = self._pop_min()
            del self._counts[victim]
            del self._errors[victim]
            self._counts[key] = floor + count
            self._errors[key] = floor
            self._push(key, floor + count)
            self.evictions += 1
        if len(self._heap) > 4 * len(self._counts):
            self._compact()

    def merge(self, other: "SpaceSavingTracker") -> "SpaceSavingTracker":
        """Combine ``other`` into this summary (bounded-error merge).

        The merge of Agarwal et al.'s *Mergeable Summaries*: a key absent
        from a full summary may still have occurred up to that summary's
        minimum counter, so each side contributes its monitored count — or
        its minimum counter as both count and error when the key is
        unmonitored (0 when the summary never filled, where absence really
        means zero).  The union is then trimmed back to ``self.capacity``
        entries, largest counts first.  Both invariants survive:
        ``count`` never underestimates and ``count - error`` never
        overestimates the true count over the concatenated stream, and any
        key above ``total / capacity`` of the combined total stays monitored.
        When neither summary ever evicted, the merge is exact.  Both
        summaries must share the same capacity — their error bounds are
        ``total / capacity``, and combining different epsilons would yield
        a summary whose guarantee matches neither input.
        """
        if other.capacity != self.capacity:
            raise ValueError("cannot merge trackers with different capacities")
        floor_self = (
            min(self._counts.values())
            if len(self._counts) >= self.capacity
            else 0
        )
        floor_other = (
            min(other._counts.values())
            if len(other._counts) >= other.capacity
            else 0
        )
        # The union walks self's keys, then other's new ones, each in dict
        # order: equal counts keep this order through the trim below, and a
        # set union would order them by hash (PYTHONHASHSEED-dependent).
        keys = list(self._counts)
        keys.extend(key for key in other._counts if key not in self._counts)
        merged: Dict[Hashable, Tuple[int, int]] = {}
        for key in keys:
            count_self = self._counts.get(key)
            count_other = other._counts.get(key)
            count = (count_self if count_self is not None else floor_self) + (
                count_other if count_other is not None else floor_other
            )
            error = (
                self._errors[key] if count_self is not None else floor_self
            ) + (other._errors[key] if count_other is not None else floor_other)
            merged[key] = (count, error)
        kept = sorted(merged.items(), key=lambda item: item[1][0], reverse=True)
        self._counts = {key: count for key, (count, _) in kept[: self.capacity]}
        self._errors = {key: error for key, (_, error) in kept[: self.capacity]}
        self.evictions += len(kept) - len(self._counts) + other.evictions
        self.total += other.total
        self._compact()
        return self

    def estimate(self, key: Hashable) -> int:
        """Overestimate of ``key``'s count (0 if unmonitored)."""
        return self._counts.get(key, 0)

    def top(self, count: int = 10) -> List[HeavyHitter]:
        """The ``count`` largest monitored entries, descending by estimate."""
        ordered = sorted(self._counts.items(), key=lambda item: item[1], reverse=True)
        return [
            HeavyHitter(key=key, count=value, error=self._errors[key])
            for key, value in ordered[:count]
        ]

    def entries(self) -> List[HeavyHitter]:
        """Every monitored entry (unordered guarantees, sorted for stability)."""
        return self.top(len(self._counts))

    def threshold_hitters(self, fraction: float) -> List[HeavyHitter]:
        """Entries whose *guaranteed* count strictly exceeds ``fraction * total``.

        A key sitting exactly on the threshold is excluded: the Space-Saving
        guarantee only promises presence for keys *above* ``total / capacity``,
        and this query mirrors that strict inequality.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        # Exact-rational threshold: float multiplication would round e.g.
        # 0.29 * 100 down to 28.999…, letting a key sitting exactly on the
        # boundary slip through the strict comparison.  The threshold is
        # snapped to the simple rational the caller meant (29/100) only when
        # that snap round-trips to the same float, so tiny fractions are
        # never collapsed towards zero.
        exact = Fraction(fraction)
        snapped = exact.limit_denominator(10**9)
        floor = (snapped if float(snapped) == fraction else exact) * self.total
        return [entry for entry in self.entries() if entry.guaranteed > floor]

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "monitored": len(self._counts),
            "total": self.total,
            "evictions": self.evictions,
        }
