"""Plain FIFO tail-drop queue — the paper's primary baseline ("DT")."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.packet import Packet
from repro.queues.base import QueueDiscipline


class DropTailQueue(QueueDiscipline):
    """FIFO buffer that drops arrivals when full."""

    __slots__ = ("_fifo",)

    def __init__(self, capacity_pkts: int) -> None:
        super().__init__(capacity_pkts)
        self._fifo: Deque[Packet] = deque()

    def enqueue(self, packet: Packet, now: float) -> bool:
        if len(self._fifo) >= self.capacity_pkts:
            self._record_drop(packet, now)
            return False
        self._fifo.append(packet)
        self.enqueued += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._fifo:
            return self._fifo.popleft()
        return None

    def __len__(self) -> int:
        return len(self._fifo)
