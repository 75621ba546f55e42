"""The queue-discipline interface shared by DropTail, RED, SFQ and TAQ.

A queue discipline owns the buffer of one link output port.  The link
calls :meth:`QueueDiscipline.enqueue` for every arriving packet and
:meth:`QueueDiscipline.dequeue` whenever the transmitter goes idle.

Drops can happen in two ways and both are reported through
:meth:`_record_drop` so observers (experiment metrics, the TAQ tracker,
admission control) see a single stream of drop notifications:

- the arriving packet is rejected (``enqueue`` returns False), or
- an already-buffered packet is evicted to make room (push-out),
  which only TAQ uses.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.link import Link


class QueueDiscipline:
    """Abstract buffer management policy for a link.

    Parameters
    ----------
    capacity_pkts:
        Buffer size in packets.  The paper sizes buffers in RTTs worth
        of packets at the bottleneck rate; helpers for that conversion
        live in :mod:`repro.net.topology`.

    Contract
    --------
    ``enqueued`` counts the packets buffered and not evicted since, so
    ``enqueued == dequeued + len(queue)`` holds between calls: a
    push-out takes its victim back off ``enqueued``.  The link's lazy
    transmitter reads occupancy this way, against its own count of
    dequeues, instead of calling ``len()`` after every dequeue; the
    conservation monitor (:mod:`repro.check`) asserts the identity.

    ``dequeue`` must be **pure on empty**: when the buffer holds no
    packet it returns None without mutating any discipline state.  The
    transmitter never dequeues speculatively, but a ledger that
    overcounts makes it wake for an empty queue; a discipline whose
    empty dequeue had side effects (e.g. starting an idle period) must
    apply them where the occupancy actually changes.

    Subclasses may declare ``__slots__`` (the hierarchy is slotted to
    keep per-queue attribute access cheap on the per-packet path);
    third-party subclasses that skip it simply get a ``__dict__`` back.
    """

    __slots__ = ("capacity_pkts", "link", "enqueued", "dropped", "obs")

    def __init__(self, capacity_pkts: int) -> None:
        if capacity_pkts < 1:
            raise ValueError("capacity_pkts must be >= 1")
        self.capacity_pkts = capacity_pkts
        self.link: Optional["Link"] = None
        self.enqueued = 0
        self.dropped = 0
        #: The observer slot (:mod:`repro.sim.observe`).  None (the
        #: default) keeps the drop path uninstrumented.
        self.obs = None

    # -- wiring --------------------------------------------------------
    def attach(self, link: "Link") -> None:
        """Called by the link that adopts this queue."""
        self.link = link

    def dequeuer(self) -> Callable[[float], Optional[Packet]]:
        """What the adopting link binds, once, right after :meth:`attach`,
        and calls whenever its transmitter goes idle: :meth:`dequeue`'s
        contract, and by default ``dequeue`` itself.  A discipline whose
        ``dequeue`` only forwards hands over the callable it forwards to
        (TAQ, its scheduler's), so the per-packet path skips a frame."""
        return self.dequeue

    def _record_drop(self, packet: Packet, now: float) -> None:
        self.dropped += 1
        if self.obs is not None:
            self.obs.dropped(self, packet, now)

    # -- policy --------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        """Accept or drop *packet*.  Returns True if buffered."""
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        """Pick the next packet to transmit, or None if empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Current occupancy in packets."""
        raise NotImplementedError

    # -- introspection ---------------------------------------------------
    def loss_rate(self) -> float:
        """Fraction of offered packets dropped (arrival drops + evictions)."""
        offered = self.enqueued + self.dropped
        if offered == 0:
            return 0.0
        return self.dropped / offered
