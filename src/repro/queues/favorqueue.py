"""FavorQueue — a short-flow-favoring AQM, added through the registry.

FavorQueue (Anelli, Diana & Lochin, "FavorQueue: a parameterless active
queue management to improve TCP traffic performance") gives *new* flows
a temporary priority pass: packets of flows the queue has seen few
packets from are enqueued at the head-of-line region and protected from
drop, which accelerates connection establishment and short transfers
without per-flow reservations.  It shares TAQ's diagnosis — small flows
starve under FIFO drop — but fixes it with favoritism instead of
explicit per-flow fair share, making it a natural extra column next to
TAQ in the Fig 10 short-flow bench.

This module is deliberately self-contained: it registers the discipline
through :data:`repro.build.QUEUES` alone, with **zero** edits to
:mod:`repro.queues.base`, the link layer, or the build harness — it is
the living proof that a new discipline rides in through the registry
end to end (spec validation, JSON scenarios, experiments) without
touching existing modules.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.build.registries import QUEUES
from repro.net.packet import Packet
from repro.queues.base import QueueDiscipline


class FavorQueue(QueueDiscipline):
    """FIFO with a favored head region for packets of young flows.

    Parameters
    ----------
    capacity_pkts:
        Shared buffer size in packets.
    favor_packets:
        A flow is "young" (favored) until the queue has admitted this
        many of its packets.  The published mechanism favors flows with
        no packet currently queued; counting admitted packets
        approximates that without per-packet bookkeeping and covers the
        SYN + slow-start phase that matters in the small packet regime.
    state_horizon:
        Per-flow counters are forgotten once this many *other* flows
        have been seen since the flow's last packet, bounding state like
        the paper's parameterless design intends.
    """

    __slots__ = ("favor_packets", "state_horizon", "_favored", "_normal",
                 "_seen", "favored_admissions")

    def __init__(
        self,
        capacity_pkts: int,
        favor_packets: int = 4,
        state_horizon: int = 1024,
    ) -> None:
        super().__init__(capacity_pkts)
        if favor_packets < 1:
            raise ValueError("favor_packets must be >= 1")
        self.favor_packets = favor_packets
        self.state_horizon = state_horizon
        self._favored: Deque[Packet] = deque()
        self._normal: Deque[Packet] = deque()
        #: Admitted-packet counts per flow, insertion-ordered so the
        #: oldest entries age out first.
        self._seen: Dict[int, int] = {}
        self.favored_admissions = 0

    # -- policy --------------------------------------------------------
    def _is_young(self, packet: Packet) -> bool:
        return self._seen.get(packet.flow_id, 0) < self.favor_packets

    def _note(self, packet: Packet) -> None:
        counts = self._seen
        counts[packet.flow_id] = counts.pop(packet.flow_id, 0) + 1
        while len(counts) > self.state_horizon:
            counts.pop(next(iter(counts)))

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self._is_young(packet):
            if len(self) >= self.capacity_pkts and self._normal:
                # Push out a tail packet of an old flow to protect the
                # newcomer (the favored drop-protection).
                victim = self._normal.pop()
                # The victim was counted as enqueued when it was
                # accepted; move that unit of "offered load" to the drop
                # column so loss_rate() counts the eviction exactly once
                # (the same convention as SFQ and TAQ push-out).
                self.enqueued = max(0, self.enqueued - 1)
                self._record_drop(victim, now)
            if len(self) >= self.capacity_pkts:
                self._record_drop(packet, now)
                return False
            self._favored.append(packet)
            self.favored_admissions += 1
        else:
            if len(self) >= self.capacity_pkts:
                self._record_drop(packet, now)
                return False
            self._normal.append(packet)
        self._note(packet)
        self.enqueued += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._favored:
            return self._favored.popleft()
        if self._normal:
            return self._normal.popleft()
        return None

    def __len__(self) -> int:
        return len(self._favored) + len(self._normal)


@QUEUES.register("favorqueue")
def build_favorqueue(ctx, favor_packets: int = 4, state_horizon: int = 1024):
    """Short-flow-favoring AQM (Anelli et al.), buffer sized like DT."""
    return FavorQueue(
        ctx.buffer_pkts, favor_packets=favor_packets, state_horizon=state_horizon
    )
