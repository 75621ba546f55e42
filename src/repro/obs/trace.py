"""The structured run trace: one JSON line per simulation event.

It records *decisions* rather than packets: drops, retransmissions,
RTO firings and their backoff exponents, TAQ admit/evict/penalty-box
verdicts, and flow state transitions, so any run can be replayed the
way the paper's authors read ns2 traces.

The on-disk format is JSON lines with a schema header as the first
record::

    {"type":"meta","schema":"repro.obs.trace","version":1}
    {"t":1.25,"kind":"drop","flow":3,"pkt":"data","seq":17}
    {"t":2.0,"kind":"rto","flow":3,"backoff":1,"rto":2.0}

Field names are short because traces get long; every event carries at
least ``t`` (sim seconds) and ``kind``, plus ``flow`` when the event
belongs to a flow.  Extra fields are kind-specific and open-ended —
readers must ignore fields (and kinds) they do not know.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, TextIO

#: Bump when the trace layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Kinds emitted by the built-in probes (an open set — custom probes
#: may add their own).
EVENT_KINDS = (
    "drop",              # queue rejected or evicted a packet
    "retransmit",        # sender re-sent a segment
    "fast_retransmit",   # 3-dupACK fast retransmit entered
    "rto",               # retransmission timeout fired (backoff=exponent)
    "syn_retry",         # connection attempt re-knocked
    "flow_state",        # tracker state transition (from/to)
    "taq_refused",       # admission control refused a SYN
    "taq_evict",         # TAQ pushed out a buffered packet
    "taq_penalty_box",   # packet classified OVER_PENALIZED
    "flow_done",         # flow completed its transfer
)


class TraceEvent:
    """One structured event (a thin dict wrapper with stable ordering)."""

    __slots__ = ("time", "kind", "flow_id", "fields")

    def __init__(self, time: float, kind: str, flow_id: int = -1, **fields: Any) -> None:
        self.time = time
        self.kind = kind
        self.flow_id = flow_id
        self.fields = fields

    def to_json(self) -> str:
        payload: Dict[str, Any] = {"t": self.time, "kind": self.kind}
        if self.flow_id != -1:
            payload["flow"] = self.flow_id
        for key in sorted(self.fields):
            payload[key] = self.fields[key]
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TraceEvent":
        time = payload.pop("t")
        kind = payload.pop("kind")
        flow_id = payload.pop("flow", -1)
        return cls(time, kind, flow_id, **payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEvent t={self.time:.4f} {self.kind} flow={self.flow_id}>"


class EventTrace:
    """An in-memory event accumulator with a hard record cap.

    Recording stops at ``limit`` and :attr:`truncated` is set, so an
    instrumented run on a busy topology cannot eat the heap.
    """

    def __init__(self, limit: int = 1_000_000) -> None:
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.truncated = False

    def emit(self, kind: str, time: float, flow_id: int = -1, **fields: Any) -> None:
        """Record one event (the probe-facing entry point)."""
        if len(self.events) >= self.limit:
            self.truncated = True
            return
        self.events.append(TraceEvent(time, kind, flow_id, **fields))

    def __len__(self) -> int:
        return len(self.events)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def counts_by_flow(self, kind: Optional[str] = None) -> Dict[int, int]:
        """Events per flow id, optionally restricted to one *kind*."""
        counts: Dict[int, int] = {}
        for event in self.events:
            if event.flow_id == -1 or (kind is not None and event.kind != kind):
                continue
            counts[event.flow_id] = counts.get(event.flow_id, 0) + 1
        return dict(sorted(counts.items()))


def save_events(events: Iterable[TraceEvent], handle: TextIO) -> int:
    """Write *events* as schema-versioned JSONL; returns events written."""
    handle.write(
        json.dumps(
            {"type": "meta", "schema": "repro.obs.trace", "version": TRACE_SCHEMA_VERSION},
            separators=(",", ":"),
        )
    )
    handle.write("\n")
    count = 0
    for event in events:
        handle.write(event.to_json())
        handle.write("\n")
        count += 1
    return count


def load_events(handle: TextIO) -> List[TraceEvent]:
    """Read a trace written by :func:`save_events`.

    Tolerates a missing header (pre-schema files) and skips meta lines;
    raises on a schema version newer than this reader supports.
    """
    events: List[TraceEvent] = []
    for line in handle:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        if payload.get("type") == "meta":
            if payload.get("schema") != "repro.obs.trace":
                raise ValueError(f"not an event trace: {payload!r}")
            version = payload.get("version")
            if version is not None and version > TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"trace schema v{version} is newer than supported "
                    f"v{TRACE_SCHEMA_VERSION}"
                )
            continue
        events.append(TraceEvent.from_payload(payload))
    return events


def summarize_events(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """Roll a trace up into the per-kind / per-flow counts the run
    report and the parallel-engine summaries use."""
    by_kind: Dict[str, int] = {}
    drops_by_flow: Dict[int, int] = {}
    rto_by_flow: Dict[int, int] = {}
    max_backoff: Dict[int, int] = {}
    for event in events:
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        if event.kind == "drop" and event.flow_id != -1:
            drops_by_flow[event.flow_id] = drops_by_flow.get(event.flow_id, 0) + 1
        elif event.kind == "rto" and event.flow_id != -1:
            rto_by_flow[event.flow_id] = rto_by_flow.get(event.flow_id, 0) + 1
            backoff = int(event.fields.get("backoff", 0))
            if backoff > max_backoff.get(event.flow_id, -1):
                max_backoff[event.flow_id] = backoff
    return {
        "events": dict(sorted(by_kind.items())),
        "drops_by_flow": dict(sorted(drops_by_flow.items())),
        "rto_by_flow": dict(sorted(rto_by_flow.items())),
        "max_backoff_by_flow": dict(sorted(max_backoff.items())),
    }
