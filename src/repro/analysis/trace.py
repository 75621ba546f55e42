"""Packet trace recording (the simulator's pcap).

A :class:`PacketTraceRecorder` is registered as a link tap (arrival or
delivery side) — and, for drops, subscribed to the queue's observer
slot — and keeps one compact :class:`TraceRecord` per packet.
Traces can be persisted as JSON-lines and reloaded, so an expensive run
can be analyzed repeatedly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, List, Optional, TextIO

from repro.net.packet import Packet
from repro.sim.observe import Observer


@dataclass(frozen=True)
class TraceRecord:
    """One packet observation."""

    time: float
    flow_id: int
    kind: str
    seq: int
    size: int
    retransmit: bool
    #: True when the observation is of the packet being dropped rather
    #: than forwarded.  Defaults False so traces written before this
    #: field existed still load.
    dropped: bool = False

    @classmethod
    def from_packet(
        cls, packet: Packet, now: float, dropped: bool = False
    ) -> "TraceRecord":
        return cls(
            time=now,
            flow_id=packet.flow_id,
            kind=packet.kind,
            seq=packet.seq,
            size=packet.size,
            retransmit=packet.is_retransmit,
            dropped=dropped,
        )


class PacketTraceRecorder(Observer):
    """A link tap accumulating :class:`TraceRecord` entries.

    Parameters
    ----------
    kinds:
        Packet kinds to record (default: data only — ACK storms triple
        trace size for little analytical value).
    predicate:
        Optional extra filter ``predicate(packet, now) -> bool``.
    limit:
        Hard cap on records kept (oldest kept; recording stops at the
        cap and :attr:`truncated` is set, so an accidental tap on a busy
        link cannot eat the heap).
    """

    def __init__(
        self,
        kinds: Iterable[str] = ("data",),
        predicate: Optional[Callable[[Packet, float], bool]] = None,
        limit: int = 1_000_000,
    ) -> None:
        self.kinds = frozenset(kinds)
        self.predicate = predicate
        self.limit = limit
        self.records: List[TraceRecord] = []
        self.truncated = False

    def observe(self, packet: Packet, now: float) -> None:
        """Tap callback: record *packet* as forwarded."""
        self._observe(packet, now, dropped=False)

    def dropped(self, queue, packet: Packet, now: float) -> None:
        """The queue's ``dropped`` event (``subscribe(queue, recorder)``,
        see :mod:`repro.sim.observe`): record *packet* flagged as dropped."""
        self._observe(packet, now, dropped=True)

    def _observe(self, packet: Packet, now: float, dropped: bool) -> None:
        if packet.kind not in self.kinds:
            return
        if self.predicate is not None and not self.predicate(packet, now):
            return
        if len(self.records) >= self.limit:
            self.truncated = True
            return
        self.records.append(TraceRecord.from_packet(packet, now, dropped=dropped))

    def __len__(self) -> int:
        return len(self.records)

    def flows(self) -> List[int]:
        """Distinct flow ids, sorted."""
        return sorted({r.flow_id for r in self.records})


def save_trace(records: Iterable[TraceRecord], handle: TextIO) -> int:
    """Write records as JSON lines; returns the count written."""
    count = 0
    for record in records:
        handle.write(json.dumps(asdict(record), separators=(",", ":")))
        handle.write("\n")
        count += 1
    return count


def load_trace(handle: TextIO) -> List[TraceRecord]:
    """Read a JSONL trace produced by :func:`save_trace`."""
    records = []
    for line in handle:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        records.append(TraceRecord(**payload))
    return records
