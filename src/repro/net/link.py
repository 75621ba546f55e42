"""A unidirectional link: queue + transmitter + propagation delay.

The link models a store-and-forward output port.  An arriving packet is
offered to the queue discipline (which may drop it); whenever the
transmitter is idle and the queue is non-empty, the head packet is
serialized at ``capacity_bps`` and delivered ``delay + packet.extra_delay``
seconds after serialization finishes.  ``extra_delay`` lets the dumbbell
topology give each flow its own access-path propagation without
simulating per-flow access links (they are never the bottleneck).

Event economy: the transmitter is *lazy*.  Serialization of a packet
schedules its delivery immediately (computed from the serialization end
time) and records when the transmitter frees up (``_free_at``); a
wakeup event at ``_free_at`` is armed only while packets are actually
waiting, so an uncongested link costs one event per packet instead of
the classic two (transmission-done + delivery), and a saturated link
runs one wakeup per dequeue — one burst of back-to-back packets never
schedules more than one pending wakeup at a time.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.packet import Packet
from repro.queues.base import QueueDiscipline
from repro.sim.simulator import Simulator

Tap = Callable[[Packet, float], None]


class LinkStats:
    """Counters kept by every link (arrivals, drops, deliveries, bytes,
    queueing-delay distribution)."""

    __slots__ = (
        "arrived",
        "dropped",
        "delivered",
        "bytes_delivered",
        "busy_time",
        "queue_delay_total",
        "queue_delay_max",
        "queue_delay_samples",
        "_delay_reservoir",
    )

    #: Size of the queueing-delay reservoir sample.
    RESERVOIR = 2048

    def __init__(self) -> None:
        self.arrived = 0
        self.dropped = 0
        self.delivered = 0
        self.bytes_delivered = 0
        self.busy_time = 0.0
        self.queue_delay_total = 0.0
        self.queue_delay_max = 0.0
        self.queue_delay_samples = 0
        # Deterministic reservoir of queueing delays, filled by the link
        # at each transmission start: the first RESERVOIR samples, then
        # every 17th overwrites one slot.
        self._delay_reservoir: List[float] = []

    def mean_queue_delay(self) -> float:
        if self.queue_delay_samples == 0:
            return 0.0
        return self.queue_delay_total / self.queue_delay_samples

    def delay_samples(self) -> List[float]:
        """The queueing-delay reservoir sample, in observation order.

        A deterministic subsample of every packet's time-in-queue (see
        :meth:`Link._transmit_next`); consumers such as
        ``repro.obs.instrument_link`` fold it into their own histograms.
        """
        return list(self._delay_reservoir)

    def queue_delay_percentile(self, q: float) -> float:
        """Approximate percentile of the queueing delay (reservoir)."""
        if not self._delay_reservoir:
            return 0.0
        ordered = sorted(self._delay_reservoir)
        index = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[index]

    def utilization(self, capacity_bps: float, duration: float) -> float:
        """Fraction of *duration* the transmitter was busy sending bits."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.busy_time / duration)


class Link:
    """A unidirectional, capacity-limited link.

    Parameters
    ----------
    sim:
        The owning simulator.
    capacity_bps:
        Transmission rate in bits per second.
    delay:
        Propagation delay in seconds, applied after serialization.
    queue:
        Queue discipline governing the output buffer.  The link calls
        ``queue.enqueue`` on arrival and ``queue.dequeue`` when the
        transmitter frees up.
    name:
        Diagnostic label.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        delay: float,
        queue: QueueDiscipline,
        name: str = "link",
        next_link: Optional["Link"] = None,
    ) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.capacity_bps = capacity_bps
        self.delay = delay
        self.queue = queue
        self.name = name
        self.stats = LinkStats()
        # Absolute time the transmitter finishes its current packet, and
        # whether a wakeup event is armed to dequeue the next one then.
        self._free_at = 0.0
        self._wakeup_armed = False
        self.next_link = next_link
        #: The observer slot (:mod:`repro.sim.observe`).  None (the
        #: default) keeps the data path uninstrumented.
        self.obs = None
        self._taps: List[Tap] = []
        self._delivery_taps: List[Tap] = []
        queue.attach(self)
        # Precomputed discipline dispatch: the queue is fixed for the
        # link's lifetime, so the per-packet path calls these bound
        # methods instead of chasing queue attributes on every packet.
        self._q_enqueue = queue.enqueue
        self._q_dequeue = queue.dequeue
        self._q_len = queue.__len__

    # ------------------------------------------------------------------
    # Taps: passive observers of traffic entering the link (e.g. the TAQ
    # tracker watching the reverse ACK path).
    # ------------------------------------------------------------------
    def add_tap(self, tap: Tap) -> None:
        """Register *tap(packet, now)*, called for every arriving packet
        (before the queue gets a chance to drop it)."""
        self._taps.append(tap)

    def add_delivery_tap(self, tap: Tap) -> None:
        """Register *tap(packet, now)*, called for every packet actually
        delivered out the far end (post-queue, post-propagation) —
        what per-flow goodput metrics measure."""
        self._delivery_taps.append(tap)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer *packet* to the link.  Returns False if the queue dropped it."""
        now = self.sim.now
        self.stats.arrived += 1
        for tap in self._taps:
            tap(packet, now)
        packet.enqueued_at = now
        if not self._q_enqueue(packet, now):
            self.stats.dropped += 1
            return False
        if self.obs is not None:
            self.obs.enqueued(self, packet, now)
        if self._wakeup_armed:
            return True
        if now < self._free_at:
            # Mid-serialization arrival: arm one wakeup for the whole
            # burst that accumulates before the transmitter frees up.
            self._wakeup_armed = True
            self.sim.schedule_at(self._free_at, self._transmit_next)
            return True
        self._transmit_next()
        return True

    def _transmit_next(self) -> None:
        """Start serializing the head packet, if any: the wakeup's
        callback, and what an arrival at an idle transmitter calls."""
        self._wakeup_armed = False
        now = self.sim.now
        packet = self._q_dequeue(now)
        if packet is None:
            return
        # The packet's time in queue into LinkStats, inline: one frame
        # per packet fewer.
        stats = self.stats
        delay = now - packet.enqueued_at
        stats.queue_delay_total += delay
        samples = stats.queue_delay_samples = stats.queue_delay_samples + 1
        if delay > stats.queue_delay_max:
            stats.queue_delay_max = delay
        if samples <= stats.RESERVOIR:
            stats._delay_reservoir.append(delay)
        elif samples % 17 == 0:
            stats._delay_reservoir[samples % stats.RESERVOIR] = delay
        if self.obs is not None:
            self.obs.tx(self, packet, now)
        tx_time = packet.tx_bits / self.capacity_bps
        stats.busy_time += tx_time
        end = now + tx_time
        self._free_at = end
        if self._q_len():
            # More packets already waiting: the wakeup is armed *before*
            # the delivery is scheduled so that, on a zero-delay link,
            # the next dequeue still precedes this packet's delivery
            # within the same timestamp.
            self._wakeup_armed = True
            self.sim.schedule_at(end, self._transmit_next)
        self._schedule_delivery(packet, end)

    def _schedule_delivery(self, packet: Packet, end: float) -> None:
        """Schedule :meth:`_deliver` for a packet whose serialization
        finishes at *end*.  Subclass hook: overrides may interpose an
        event at *end* (e.g. to draw per-packet delivery noise in
        serialization order — see ``repro.testbed.emulation``)."""
        self.sim.schedule_at(end + (self.delay + packet.extra_delay),
                             self._deliver, (packet,))

    def _deliver(self, packet: Packet) -> None:
        self.stats.delivered += 1
        self.stats.bytes_delivered += packet.size
        for tap in self._delivery_taps:
            tap(packet, self.sim.now)
        if self.obs is not None:
            self.obs.delivered(self, packet, self.sim.now)
        if self.next_link is not None:
            # Chained hop (e.g. LAN ingress feeding the bottleneck).
            self.next_link.send(packet)
        elif packet.dst is not None:
            packet.dst.receive(packet, self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.capacity_bps/1000:.0f}Kbps {self.delay*1000:.0f}ms>"
