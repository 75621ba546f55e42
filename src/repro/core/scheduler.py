"""TAQ's multi-class priority queues and 3-level service hierarchy (§4.2).

Five packet classes, one queue each:

- **RECOVERY** — retransmissions.  A priority queue ordered by the
  flow's silence length (longer silence first: a retransmission from an
  extended silence outranks one from a short silence, which outranks a
  first retransmission).  Level 1, strictly highest priority, but its
  *service* is capacity-limited so recovery traffic cannot monopolize
  the link and push every flow into permanent recovery (§3.2's caveat).
- **NEW_FLOW** — packets of flows in slow start (including SYNs).  Has
  its own occupancy cap, which both curtails the admission rate of new
  connections and gives the §4.3 admission controller its lever.
- **OVER_PENALIZED** — new packets of flows with multiple recent drops,
  kept apart so they are not penalized further.
- **BELOW_FAIR_SHARE** / **ABOVE_FAIR_SHARE** — new packets of flows
  under / over their fair share.

Service order: Level 1 is RECOVERY (under its cap); Level 2 serves
NEW_FLOW, OVER_PENALIZED and BELOW_FAIR_SHARE at equal priority with
capacity split proportional to demand (longest-backlog-first, rotating
on ties); Level 3 is ABOVE_FAIR_SHARE.  The scheduler is
work-conserving: a capped recovery queue is still served when nothing
else waits.

Eviction on a full shared buffer follows protection ranks (recovery
highest, above-fair-share lowest): the tail of the lowest-ranked
occupied queue is pushed out, and an arriving packet is simply rejected
when everything buffered outranks it.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.net.packet import SYN, Packet


class PacketClass(enum.Enum):
    """TAQ packet classes (one queue per class)."""

    RECOVERY = "recovery"
    NEW_FLOW = "new_flow"
    OVER_PENALIZED = "over_penalized"
    BELOW_FAIR_SHARE = "below_fair_share"
    ABOVE_FAIR_SHARE = "above_fair_share"

    # Members are singletons, so identity hashing is equivalent to
    # Enum's hash-of-name and spares a Python frame on every
    # ``stats[klass]`` / ``_fifos[klass]`` lookup.  Nothing iterates a
    # *set* of classes, the one place hash values could show.
    __hash__ = object.__hash__


#: Eviction protection: lower rank is evicted first.  The three Level-2
#: queues share a rank — among them the *longest* backlog is stolen
#: from (fair buffer allocation, as in SFQ's buffer stealing).
PROTECTION_RANK: Dict[PacketClass, int] = {
    PacketClass.ABOVE_FAIR_SHARE: 0,
    PacketClass.NEW_FLOW: 1,
    PacketClass.BELOW_FAIR_SHARE: 1,
    PacketClass.OVER_PENALIZED: 1,
    PacketClass.RECOVERY: 2,
}

LEVEL2_CLASSES = (
    PacketClass.BELOW_FAIR_SHARE,
    PacketClass.NEW_FLOW,
    PacketClass.OVER_PENALIZED,
)


def _eviction_order() -> Dict[PacketClass, Tuple[Tuple[PacketClass, ...], ...]]:
    """For each arriving class, the groups of FIFO classes it may evict
    from: one group per protection rank up to its own, lowest first,
    members in :data:`PROTECTION_RANK` order (ties go to the first)."""
    by_rank: Dict[int, List[PacketClass]] = {}
    for klass, rank in PROTECTION_RANK.items():
        if klass is not PacketClass.RECOVERY:
            by_rank.setdefault(rank, []).append(klass)
    return {
        arriving: tuple(
            tuple(by_rank[rank]) for rank in sorted(by_rank) if rank <= arriving_rank
        )
        for arriving, arriving_rank in PROTECTION_RANK.items()
    }


EVICTION_ORDER = _eviction_order()


class ClassStats:
    """Per-class counters."""

    __slots__ = ("enqueued", "dropped", "served")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        self.served = 0


class TAQScheduler:
    """The five queues plus the hierarchical service policy.

    Parameters
    ----------
    capacity_pkts:
        Shared buffer budget across all five queues.
    new_flow_capacity:
        Occupancy cap of the NewFlow queue (admission lever).  Defaults
        to a quarter of the shared buffer.
    recovery_service_share:
        Maximum fraction of recent dequeues the recovery queue may
        consume while other queues have backlog.
    service_window:
        Number of recent dequeues over which the recovery share is
        measured.
    """

    def __init__(
        self,
        capacity_pkts: int,
        new_flow_capacity: Optional[int] = None,
        recovery_service_share: float = 0.3,
        service_window: int = 64,
    ) -> None:
        if capacity_pkts < 1:
            raise ValueError("capacity_pkts must be >= 1")
        if not 0.0 < recovery_service_share <= 1.0:
            raise ValueError("recovery_service_share must be in (0, 1]")
        self.capacity_pkts = capacity_pkts
        self.new_flow_capacity = (
            new_flow_capacity
            if new_flow_capacity is not None
            else max(2, capacity_pkts // 4)
        )
        self.recovery_service_share = recovery_service_share
        self.service_window = service_window
        # (-silence priority, tiebreak, packet); heapq pops longest silence.
        self._recovery: List[Tuple[float, int, Packet]] = []
        self._fifos: Dict[PacketClass, Deque[Packet]] = {
            PacketClass.NEW_FLOW: deque(),
            PacketClass.OVER_PENALIZED: deque(),
            PacketClass.BELOW_FAIR_SHARE: deque(),
            PacketClass.ABOVE_FAIR_SHARE: deque(),
        }
        # The last ``service_window`` classes served, and how many of
        # them were RECOVERY (a running count, so the service cap is
        # not a sum over the window on every dequeue).
        self._recent_services: Deque[PacketClass] = deque()
        self._recent_recovery = 0
        #: Packets buffered across all five containers, kept as a
        #: running count: ``len(scheduler)`` is on every hot path.
        self.buffered = 0
        self._tiebreak = 0
        self._level2_rotation = 0
        self._buffered_syns = 0
        self.stats: Dict[PacketClass, ClassStats] = {c: ClassStats() for c in PacketClass}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.buffered

    def occupancy(self, klass: PacketClass) -> int:
        if klass is PacketClass.RECOVERY:
            return len(self._recovery)
        return len(self._fifos[klass])

    # ------------------------------------------------------------------
    # Enqueue + eviction
    # ------------------------------------------------------------------
    def enqueue(
        self,
        packet: Packet,
        klass: PacketClass,
        priority: float = 0.0,
        connection_attempt: bool = False,
    ) -> Tuple[bool, Optional[Packet]]:
        """Buffer *packet* under *klass*.

        ``priority`` is the flow's silence length (seconds) and orders
        the recovery queue.  ``connection_attempt`` marks SYNs: the
        NewFlow capacity cap limits the number of *buffered connection
        attempts* ("limit the number of new connections in the system",
        §4.2), not the data of flows that already connected.  Returns
        ``(accepted, evicted)``: the caller must account the evicted
        packet (if any) as a drop.
        """
        stats = self.stats[klass]
        if connection_attempt and self._buffered_syns >= self.new_flow_capacity:
            stats.dropped += 1
            return False, None
        evicted: Optional[Packet] = None
        if self.buffered >= self.capacity_pkts:
            evicted = self._evict_for(klass, priority)
            if evicted is None:
                stats.dropped += 1
                return False, None
        if klass is PacketClass.RECOVERY:
            self._tiebreak += 1
            heapq.heappush(self._recovery, (-priority, self._tiebreak, packet))
        else:
            self._fifos[klass].append(packet)
        self.buffered += 1
        if connection_attempt:
            self._buffered_syns += 1
        stats.enqueued += 1
        return True, evicted

    def _evict_for(self, arriving: PacketClass, priority: float) -> Optional[Packet]:
        """Push out the most expendable buffered packet to admit one of
        class *arriving*, or None when nothing buffered is expendable.

        Search order: strictly lower protection ranks first; within a
        rank, steal from the longest backlog.  A same-rank eviction
        never picks the arriving packet's own (shorter-or-equal) queue
        unless it is the longest — and evicting one's own FIFO tail to
        append oneself is rejected as a pointless swap.
        """
        fifos = self._fifos
        for group in EVICTION_ORDER[arriving]:
            victim_class, longest = None, 0
            for klass in group:
                backlog = len(fifos[klass])
                if backlog > longest:
                    victim_class, longest = klass, backlog
            if victim_class is not None:
                if victim_class is arriving:
                    # Our own queue holds the longest backlog: dropping
                    # our own tail and appending ourselves is a no-op
                    # swap, so reject the arrival instead.
                    return None
                victim = fifos[victim_class].pop()
                self._note_departure(victim)
                self.stats[victim_class].dropped += 1
                return victim
        # RECOVERY, alone at the top rank, only yields to its own kind.
        if arriving is PacketClass.RECOVERY:
            victim = self._evict_recovery_if_lower(priority)
            if victim is not None:
                self.stats[PacketClass.RECOVERY].dropped += 1
                return victim
        return None

    def _evict_recovery_if_lower(self, arriving_priority: float) -> Optional[Packet]:
        """Evict the least-prioritized recovery packet, but only if the
        arriving recovery packet outranks it."""
        if not self._recovery:
            return None
        # The first entry, in heap-array order, of the lowest priority.
        index, negated = 0, self._recovery[0][0]
        for i, entry in enumerate(self._recovery):
            if entry[0] > negated:
                index, negated = i, entry[0]
        if arriving_priority <= -negated:
            return None
        victim = self._recovery[index][2]
        self._recovery[index] = self._recovery[-1]
        self._recovery.pop()
        heapq.heapify(self._recovery)
        self._note_departure(victim)
        return victim

    # ------------------------------------------------------------------
    # Dequeue
    # ------------------------------------------------------------------
    def _recovery_under_cap(self) -> bool:
        window = self._recent_services
        if not window:
            return True
        return self._recent_recovery / len(window) < self.recovery_service_share

    def dequeue(self) -> Optional[Packet]:
        """Pick the next packet per the 3-level hierarchy."""
        # Level 1: recovery, under its service cap (work-conserving:
        # also when recovery is all that is buffered).
        if self._recovery and (
            self.buffered == len(self._recovery) or self._recovery_under_cap()
        ):
            return self._serve(PacketClass.RECOVERY)
        # Level 2: demand-proportional among the three middle queues —
        # the longest backlog, rotating among ties.
        fifos = self._fifos
        longest = ties = 0
        for klass in LEVEL2_CLASSES:
            backlog = len(fifos[klass])
            if backlog > longest:
                longest, ties, choice = backlog, 1, klass
            elif backlog == longest:
                ties += 1
        if longest:
            self._level2_rotation += 1
            if ties > 1:
                turn = self._level2_rotation % ties
                for klass in LEVEL2_CLASSES:
                    if len(fifos[klass]) == longest:
                        if turn == 0:
                            choice = klass
                            break
                        turn -= 1
            return self._serve(choice)
        # Level 3: above fair share.
        if fifos[PacketClass.ABOVE_FAIR_SHARE]:
            return self._serve(PacketClass.ABOVE_FAIR_SHARE)
        # Only a capped recovery backlog remains: serve it anyway.
        if self._recovery:
            return self._serve(PacketClass.RECOVERY)
        return None

    def _serve(self, klass: PacketClass) -> Packet:
        window = self._recent_services
        if klass is PacketClass.RECOVERY:
            _, _, packet = heapq.heappop(self._recovery)
            self._recent_recovery += 1
        else:
            packet = self._fifos[klass].popleft()
        self._note_departure(packet)
        window.append(klass)
        if len(window) > self.service_window:
            if window.popleft() is PacketClass.RECOVERY:
                self._recent_recovery -= 1
        self.stats[klass].served += 1
        return packet

    def _note_departure(self, packet: Packet) -> None:
        """Every way out of the buffer — service and both kinds of
        eviction — settles the running counts here."""
        self.buffered -= 1
        if packet.kind == SYN and self._buffered_syns > 0:
            self._buffered_syns -= 1
