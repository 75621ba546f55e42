"""Stochastic Fair Queueing (McKenney, 1990).

Flows are hashed into a fixed number of buckets, each a FIFO, served
round-robin.  When the shared buffer fills, the packet at the tail of
the *longest* bucket is pushed out (McKenney's buffer-stealing), which
approximates fair buffer allocation without per-flow state.

The hash is salted by a ``perturbation`` value; real implementations
re-salt periodically to break unlucky collisions.  :meth:`perturb` does
that on demand, and the dumbbell topology can schedule it periodically.

§2.4 / §5 of the paper find SFQ indistinguishable from DropTail in small
packet regimes: with at most zero or one packet per flow buffered,
round-robin across buckets has nothing to schedule.  This implementation
preserves that behaviour so the experiments can demonstrate it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.net.packet import Packet
from repro.queues.base import QueueDiscipline


class SFQQueue(QueueDiscipline):
    """Stochastic Fair Queueing over a shared buffer.

    Parameters
    ----------
    capacity_pkts:
        Total shared buffer across all buckets.
    buckets:
        Number of hash buckets (queues).
    perturbation:
        Initial hash salt.
    """

    __slots__ = ("buckets", "perturbation", "perturb_interval",
                 "_queues", "_occupancy", "_rr_index")

    def __init__(
        self,
        capacity_pkts: int,
        buckets: int = 64,
        perturbation: int = 0,
        perturb_interval: float = 0.0,
    ) -> None:
        super().__init__(capacity_pkts)
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.buckets = buckets
        self.perturbation = perturbation
        #: Re-salt the flow hash this often (seconds); 0 disables.  Real
        #: SFQ deployments re-perturb (e.g. Linux's ``perturb 10``) so an
        #: unlucky hash collision is not a life sentence for a flow.
        self.perturb_interval = perturb_interval
        self._queues: List[Deque[Packet]] = [deque() for _ in range(buckets)]
        self._occupancy = 0
        self._rr_index = 0

    def attach(self, link) -> None:
        super().attach(link)
        if self.perturb_interval > 0:
            self._schedule_perturbation(link.sim)

    def _schedule_perturbation(self, sim) -> None:
        def fire() -> None:
            self.perturb(self.perturbation + 1)
            sim.schedule(self.perturb_interval, fire)

        sim.schedule(self.perturb_interval, fire)

    # ------------------------------------------------------------------
    def _bucket_of(self, flow_id: int) -> int:
        # Knuth multiplicative hash over (flow, salt); cheap and well mixed.
        mixed = (flow_id * 2654435761 + self.perturbation * 40503) & 0xFFFFFFFF
        return mixed % self.buckets

    def perturb(self, salt: int) -> None:
        """Re-salt the flow hash (packets already queued stay put)."""
        self.perturbation = salt

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        bucket = self._bucket_of(packet.flow_id)
        if self._occupancy >= self.capacity_pkts:
            if self.buckets == 1:
                # With one bucket, "steal from the longest bucket" would
                # evict our own tail to admit the newcomer — same drop
                # count as DropTail but different packet identity (the
                # retransmission pattern shifts).  Rejecting the arrival
                # makes bucket-count 1 degenerate to DropTail exactly.
                self._record_drop(packet, now)
                return False
            # Buffer stealing: push out the tail of the longest bucket.
            victim = max(self._queues, key=len).pop()
            self._occupancy -= 1
            # The victim was counted as enqueued when it was accepted;
            # move that unit of "offered load" to the drop column so
            # loss_rate() counts the eviction exactly once.
            self.enqueued -= 1
            self._record_drop(victim, now)
        self._queues[bucket].append(packet)
        self._occupancy += 1
        self.enqueued += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._occupancy == 0:
            return None
        # Round-robin scan from _rr_index, as two straight ranges so the
        # per-bucket step is an index bump rather than a modulo.
        queues = self._queues
        nbuckets = self.buckets
        rr = self._rr_index
        for index in range(rr, nbuckets):
            bucket = queues[index]
            if bucket:
                self._rr_index = index + 1 if index + 1 < nbuckets else 0
                self._occupancy -= 1
                return bucket.popleft()
        for index in range(rr):
            bucket = queues[index]
            if bucket:
                self._rr_index = index + 1
                self._occupancy -= 1
                return bucket.popleft()
        return None

    def __len__(self) -> int:
        return self._occupancy
