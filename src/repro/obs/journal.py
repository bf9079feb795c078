"""A structured, append-only journal of cluster lifecycle events.

The coordinator's ad-hoc ``events`` list answers "what happened" only in
the order the coordinator chose to note it; :class:`EventJournal` makes
the history a first-class, exportable record: every event carries a
**monotonic sequence number** (gapless, per journal), a timestamp from
the injectable clock, the event kind, the node it concerns, and a
free-form field dict.  The journal round-trips through JSONL
(:meth:`to_jsonl` / :meth:`from_jsonl`), so a failover incident can be
written to disk next to the checkpoints and replayed into tooling.

Kinds are open-ended strings; the cluster layer uses::

    join | leave | failure | replica_promotion | checkpoint_write |
    checkpoint_load | migration | restore | drain

``membership()`` filters to the membership-changing kinds — the test
battery asserts this view reproduces the coordinator's membership
history exactly.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

__all__ = ["EventJournal", "JournalError", "ObsEvent", "MEMBERSHIP_KINDS"]

MEMBERSHIP_KINDS = ("join", "leave", "failure")


class JournalError(ValueError):
    """A journal line or sequence was malformed."""


@dataclass(frozen=True)
class ObsEvent:
    """One journal entry.  Immutable; ``fields`` holds the kind-specific data."""

    seq: int
    ts_ns: int
    kind: str
    node: Optional[str] = None
    fields: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {"seq": self.seq, "ts_ns": self.ts_ns, "kind": self.kind}
        if self.node is not None:
            doc["node"] = self.node
        if self.fields:
            doc["fields"] = self.fields
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ObsEvent":
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as error:
            raise JournalError(f"journal line is not JSON: {error}") from error
        if not isinstance(doc, dict):
            raise JournalError("journal line is not a JSON object")
        for key, type_ in (("seq", int), ("ts_ns", int), ("kind", str)):
            if not isinstance(doc.get(key), type_):
                raise JournalError(f"journal line is missing {key!r} ({line!r})")
        node = doc.get("node")
        if node is not None and not isinstance(node, str):
            raise JournalError("journal 'node' must be a string when present")
        fields = doc.get("fields", {})
        if not isinstance(fields, dict):
            raise JournalError("journal 'fields' must be an object when present")
        return cls(seq=doc["seq"], ts_ns=doc["ts_ns"], kind=doc["kind"], node=node, fields=fields)


class EventJournal:
    """Append-only event record with gapless monotonic sequence numbers."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self._events: List[ObsEvent] = []
        # Sequence assignment reads len() and appends; two threads racing
        # through record() could mint duplicate seqs (a JournalError on
        # round-trip).  The journal is control-plane — membership events,
        # checkpoints, alerts — so a lock here costs nothing measurable.
        self._record_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record(self, kind: str, node: Optional[str] = None, **fields: object) -> ObsEvent:
        """Append one event; returns it (with its assigned sequence number)."""
        if not kind:
            raise JournalError("event kind must be non-empty")
        with self._record_lock:
            event = ObsEvent(
                seq=len(self._events),
                ts_ns=self.clock(),
                kind=kind,
                node=node,
                fields=fields,
            )
            self._events.append(event)
        return event

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self._events)

    def __getitem__(self, index) -> ObsEvent:
        return self._events[index]

    def events(self, kind: Optional[str] = None) -> List[ObsEvent]:
        """All events, or just those of one kind (journal order kept)."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def membership(self) -> List[ObsEvent]:
        """The join/leave/failure subsequence — the cluster's membership history."""
        return [event for event in self._events if event.kind in MEMBERSHIP_KINDS]

    # ------------------------------------------------------------------ #
    # JSONL interchange
    # ------------------------------------------------------------------ #

    def to_jsonl(self) -> str:
        """One JSON object per line, in sequence order; '' when empty."""
        return "".join(event.to_json() + "\n" for event in self._events)

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    @classmethod
    def from_jsonl(cls, text: str) -> "EventJournal":
        """Rebuild a journal from JSONL; sequence numbers must be gapless.

        The gap check is what makes the journal trustworthy as an incident
        record: a missing line fails loudly instead of silently shortening
        the history.
        """
        journal = cls()
        for number, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            event = ObsEvent.from_json(line)
            if event.seq != len(journal._events):
                raise JournalError(
                    f"journal line {number + 1} has sequence {event.seq}, "
                    f"expected {len(journal._events)} (gap or reordering)"
                )
            journal._events.append(event)
        return journal

    @classmethod
    def read_jsonl(cls, path: Union[str, Path]) -> "EventJournal":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"))
