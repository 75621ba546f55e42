"""FavorQueue — a short-flow-favoring AQM, added through the registry.

FavorQueue (Anelli, Diana & Lochin, "FavorQueue: a parameterless active
queue management to improve TCP traffic performance") has one rule: a
packet is *favored* iff no packet of its flow is queued when it
arrives, and favored packets are served before the rest, in arrival
order.  A flow's first packet after an idle spell (its SYN, the head of
each window in the small packet regime) thus skips the backlog, which
accelerates connection establishment and short transfers without
per-flow reservations or a parameter.  It shares TAQ's diagnosis —
small flows starve under FIFO drop — but fixes it with favoritism
instead of explicit per-flow fair share, making it a natural extra
column next to TAQ in the Fig 10 short-flow bench.

Beyond the rule, a favored arrival at a full buffer pushes out the tail
of the unfavored region, if it holds any; every other arrival at a full
buffer is dropped (``tests/queues/spec_baselines.py`` lists this as a
deviation).

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
    """FIFO behind a favored head region for packets of flows with
    nothing queued.

    Parameters
    ----------
    capacity_pkts:
        Shared buffer size in packets.
    """

    __slots__ = ("_favored", "_normal", "_queued", "favored_admissions")

    def __init__(self, capacity_pkts: int) -> None:
        super().__init__(capacity_pkts)
        self._favored: Deque[Packet] = deque()
        self._normal: Deque[Packet] = deque()
        #: Packets queued per flow.  A flow leaves at zero, so the table
        #: never holds more flows than the buffer holds packets.
        self._queued: Dict[int, int] = {}
        self.favored_admissions = 0

    # -- policy --------------------------------------------------------
    def _forget(self, packet: Packet) -> None:
        queued = self._queued
        left = queued[packet.flow_id] - 1
        if left:
            queued[packet.flow_id] = left
        else:
            del queued[packet.flow_id]

    def enqueue(self, packet: Packet, now: float) -> bool:
        queued = self._queued
        favored = packet.flow_id not in queued
        if len(self) >= self.capacity_pkts:
            if not (favored and self._normal):
                self._record_drop(packet, now)
                return False
            # Push out the unfavored tail to protect the newcomer.  The
            # victim was counted as enqueued when it was accepted; move
            # that unit of "offered load" to the drop column so
            # loss_rate() counts the eviction exactly once.
            victim = self._normal.pop()
            self._forget(victim)
            self.enqueued -= 1
            self._record_drop(victim, now)
        if favored:
            self._favored.append(packet)
            self.favored_admissions += 1
            queued[packet.flow_id] = 1
        else:
            self._normal.append(packet)
            queued[packet.flow_id] += 1
        self.enqueued += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._favored:
            packet = self._favored.popleft()
        elif self._normal:
            packet = self._normal.popleft()
        else:
            return None
        self._forget(packet)
        return packet

    def __len__(self) -> int:
        return len(self._favored) + len(self._normal)


@QUEUES.register("favorqueue")
def build_favorqueue(ctx):
    """Short-flow-favoring AQM (Anelli et al.), buffer sized like DT."""
    return FavorQueue(ctx.buffer_pkts)
