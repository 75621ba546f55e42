"""Random Early Detection (Floyd & Jacobson, 1993).

Classic RED with the standard refinements: EWMA average queue length
with idle-period compensation, a drop probability that ramps linearly
between ``min_th`` and ``max_th``, and the inter-drop count correction
that spaces early drops roughly uniformly.

The paper (§2.4) observes that in small packet regimes RED behaves like
DropTail unless given much larger buffers: the buffer is persistently
full, so the average sits above ``max_th`` and RED degenerates into
forced drops.  The implementation here lets the experiments demonstrate
exactly that.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional

from repro.net.packet import Packet
from repro.queues.base import QueueDiscipline


class REDQueue(QueueDiscipline):
    """RED queue discipline.

    Parameters
    ----------
    capacity_pkts:
        Hard buffer limit (tail-drop backstop).
    rng:
        Random stream for the early-drop coin.
    min_th, max_th:
        Average-queue thresholds in packets.  Defaults follow the common
        rule of thumb ``min_th = capacity / 4``, ``max_th = 3 * min_th``.
    max_p:
        Drop probability at ``max_th``.
    weight:
        EWMA weight ``w_q`` for the average queue estimate.
    mean_pkt_size:
        Used to estimate how many small packets could have been
        transmitted during an idle period (idle compensation).
    """

    __slots__ = ("rng", "min_th", "max_th", "max_p", "weight",
                 "mean_pkt_size", "avg", "count", "_idle_since", "_fifo",
                 "early_drops", "forced_drops")

    def __init__(
        self,
        capacity_pkts: int,
        rng: random.Random,
        min_th: Optional[float] = None,
        max_th: Optional[float] = None,
        max_p: float = 0.1,
        weight: float = 0.002,
        mean_pkt_size: int = 500,
    ) -> None:
        super().__init__(capacity_pkts)
        self.rng = rng
        self.min_th = min_th if min_th is not None else max(1.0, capacity_pkts / 4.0)
        self.max_th = max_th if max_th is not None else min(capacity_pkts, 3.0 * self.min_th)
        # min_th == max_th is legal: the ramp collapses to a hard
        # threshold (every packet with avg >= max_th is force-dropped
        # before the ramp division is ever reached).
        if self.max_th < self.min_th:
            raise ValueError("max_th must be >= min_th")
        if self.min_th < 0:
            raise ValueError("min_th must be >= 0")
        if not 0.0 <= max_p <= 1.0:
            raise ValueError("max_p must be in [0, 1]")
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight must be in [0, 1]")
        self.max_p = max_p
        self.weight = weight
        self.mean_pkt_size = mean_pkt_size
        self.avg = 0.0
        self.count = -1  # packets since last early drop; -1 = none pending
        self._idle_since: Optional[float] = 0.0
        self._fifo: Deque[Packet] = deque()
        self.early_drops = 0
        self.forced_drops = 0

    # ------------------------------------------------------------------
    def _update_avg(self, now: float) -> None:
        qlen = len(self._fifo)
        if qlen > 0 or self._idle_since is None:
            self.avg += self.weight * (qlen - self.avg)
            return
        # Idle compensation: decay the average as if small packets had
        # drained during the idle period.
        if self.link is not None:
            tx_time = self.mean_pkt_size * 8.0 / self.link.capacity_bps
            missed = (now - self._idle_since) / tx_time if tx_time > 0 else 0.0
            self.avg *= (1.0 - self.weight) ** max(0.0, missed)
        self.avg += self.weight * (0.0 - self.avg)

    def enqueue(self, packet: Packet, now: float) -> bool:
        self._update_avg(now)
        self._idle_since = None
        qlen = len(self._fifo)
        if qlen >= self.capacity_pkts:
            self.forced_drops += 1
            self._record_drop(packet, now)
            return False
        drop = False
        if self.avg >= self.max_th:
            drop = True
            self.forced_drops += 1
        elif self.avg >= self.min_th:
            self.count += 1
            pb = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
            denom = 1.0 - self.count * pb
            pa = pb / denom if denom > 0 else 1.0
            if self.rng.random() < pa:
                drop = True
                self.early_drops += 1
                self.count = 0
        else:
            self.count = -1
        if drop:
            self._record_drop(packet, now)
            return False
        self._fifo.append(packet)
        self.enqueued += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._fifo:
            packet = self._fifo.popleft()
            if not self._fifo:
                self._idle_since = now
            return packet
        return None

    def __len__(self) -> int:
        return len(self._fifo)
