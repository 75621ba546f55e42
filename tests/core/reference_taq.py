"""TAQ's per-packet rules as the helper calls they were: the reference.

``TAQQueue.enqueue`` and ``TAQQueue.observe_reverse`` observe, sample
and classify inline, ``TAQScheduler.enqueue`` / ``dequeue`` push out and
serve inline, and ``FlowTracker.observe_drop`` looks its record up
inline.  This module keeps the composition they replaced, body for
body, and nowhere else does: :mod:`tests.core.test_fused_taq` drives
it beside the fused frames, and the component tests (tracker,
estimator, fair share, census) drive the tracker and the estimator
through it.

- :func:`observe_syn`, :func:`observe_data`, :func:`observe_burst_gap`
  and :func:`observe_ack` are the estimator's observations, written on
  any :class:`EpochEstimator`; :class:`ReferenceEstimator` carries them
  as methods.
- :class:`ReferenceTracker`, :class:`ReferenceScheduler` and
  :class:`ReferenceTAQQueue` are the src classes with the pre-fusion
  methods back.  Everything they do not override — the census,
  ``record_for``, ``roll_epochs``, ``_feed``, GC, admission, the
  proportional and pool shares — is the code under test itself.
"""

from __future__ import annotations

import heapq
from typing import Optional, Tuple

from repro.core.epoch import EpochEstimator
from repro.core.scheduler import (
    EVICTION_ORDER,
    LEVEL2_CLASSES,
    PacketClass,
    TAQScheduler,
)
from repro.core.states import FlowState
from repro.core.taq import TAQQueue
from repro.core.tracker import ACTIVITY_HORIZON_EPOCHS, FlowRecord, FlowTracker
from repro.net.packet import ACK, DATA, SYN, SYNACK, Packet


# ----------------------------------------------------------------------
# The estimator's observations
# ----------------------------------------------------------------------
def observe_syn(self: EpochEstimator, now: float) -> None:
    self._syn_time = now


def observe_data(self: EpochEstimator, seq: int, now: float) -> None:
    """Record a forwarded data packet (both modes)."""
    if not self._first_data_seen:
        self._first_data_seen = True
        if self._syn_time is not None:
            # One-way bootstrap: SYN to first data spans one RTT
            # (SYN->SYNACK->request->response collapses to ~1 RTT at
            # the middlebox when it sits near the server side).
            self._feed(now - self._syn_time)
    else:
        observe_burst_gap(self, now)
    if len(self._pending) < 64:
        self._pending.setdefault(seq, now)
    self._last_data_time = now


def observe_ack(self: EpochEstimator, ack_seq: int, now: float) -> None:
    """Record a reverse-path ACK (two-way mode only)."""
    # Sample against the newest data packet this ACK covers: older
    # covered packets include queueing of earlier epochs and would
    # overestimate the RTT.
    best_seq = -1
    for seq in self._pending:
        if seq < ack_seq and seq > best_seq:
            best_seq = seq
    if best_seq >= 0:
        self._feed(now - self._pending[best_seq])
        self._pending = {s: t for s, t in self._pending.items() if s >= ack_seq}


def observe_burst_gap(self: EpochEstimator, now: float) -> None:
    """One-way refinement: bursts open epochs in normal states."""
    if self._last_data_time is None:
        return
    gap = now - self._last_data_time
    if gap > self.burst_gap_factor * self.estimate:
        # New burst: inter-burst start-to-start spacing samples the epoch.
        if self._burst_start is not None:
            self._feed(now - self._burst_start)
        self._burst_start = now
    elif self._burst_start is None:
        self._burst_start = now


class ReferenceEstimator(EpochEstimator):
    observe_syn = observe_syn
    observe_data = observe_data
    observe_ack = observe_ack
    _observe_burst_gap = observe_burst_gap


# ----------------------------------------------------------------------
# Per-flow helpers
# ----------------------------------------------------------------------
def silence_seconds(record: FlowRecord, now: float) -> float:
    """Seconds since this flow last put a data packet through."""
    reference = record.last_data_time if record.last_data_time is not None else record.first_seen
    return max(0.0, now - reference)


def is_above_share(fairshare, record: FlowRecord, now: float) -> bool:
    """True when the flow's estimated rate exceeds its share."""
    if fairshare.capacity_bps <= 0:
        return False
    return record.rate_bps > fairshare.fair_share_bps(record, now) * fairshare.headroom


class ReferenceTracker(FlowTracker):
    def observe_arrival(self, packet: Packet, now: float) -> bool:
        """Record a packet arriving at the queue.  Returns True when the
        middlebox classifies it as a retransmission."""
        record = self.record_for(packet, now)
        record.roll_epochs(now)
        record.last_seen = now
        if not record.active:
            self._activate(record)
        if packet.kind == SYN:
            observe_syn(record.estimator, now)
            return False
        if packet.kind != DATA:
            return False
        is_retransmission = packet.seq <= record.highest_seq
        if not is_retransmission:
            record.highest_seq = packet.seq
        estimator = record.estimator
        epoch_before = estimator.estimate
        observe_data(estimator, packet.seq, now)
        if estimator.estimate < epoch_before:
            self._expire_no_later(record)
        record.last_data_time = now
        if is_retransmission:
            record.retransmissions += 1
            if record.outstanding_drops > 0:
                record.outstanding_drops -= 1
        else:
            record.new_packets += 1
        record.bytes_forwarded += packet.size
        self._maybe_gc(now)
        return is_retransmission

    def observe_drop(self, packet: Packet, now: float) -> None:
        """Record that the queue dropped one of the flow's packets."""
        record = self.record_for(packet, now)
        record.drops += 1
        record.cumulative_drops += 1
        record.outstanding_drops += 1
        # A dropped packet did not go through: take it back out of the
        # forwarded byte count used for the rate estimate.
        record.bytes_forwarded = max(0, record.bytes_forwarded - packet.size)
        if packet.kind == DATA and packet.seq <= record.highest_seq:
            # We counted it as an observed retransmission on arrival; it
            # will need another try.
            record.outstanding_drops = max(record.outstanding_drops, 1)

    def observe_ack(self, packet: Packet, now: float) -> None:
        """Feed a reverse-path ACK into the flow's epoch estimator."""
        record = self.flows.get(packet.flow_id)
        if record is not None:
            estimator = record.estimator
            epoch_before = estimator.estimate
            observe_ack(estimator, packet.ack_seq, now)
            if estimator.estimate != epoch_before:
                # The horizon moved without the flow being seen: a
                # longer one can bring an expired flow back, a shorter
                # one can expire it before its heap key says so.
                if record.active:
                    self._expire_no_later(record)
                elif now - record.last_seen <= ACTIVITY_HORIZON_EPOCHS * estimator.estimate:
                    self._activate(record)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class ReferenceScheduler(TAQScheduler):
    def enqueue(
        self,
        packet: Packet,
        klass: PacketClass,
        priority: float = 0.0,
        connection_attempt: bool = False,
    ) -> Tuple[bool, Optional[Packet]]:
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
        fifos = self._fifos
        for group in EVICTION_ORDER[arriving]:
            victim_class, longest = None, 0
            for klass in group:
                backlog = len(fifos[klass])
                if backlog > longest:
                    victim_class, longest = klass, backlog
            if victim_class is not None:
                if victim_class is arriving:
                    return None
                victim = fifos[victim_class].pop()
                self._note_departure(victim)
                self.stats[victim_class].dropped += 1
                return victim
        if arriving is PacketClass.RECOVERY:
            victim = self._evict_recovery_if_lower(priority)
            if victim is not None:
                self.stats[PacketClass.RECOVERY].dropped += 1
                return victim
        return None

    def _evict_recovery_if_lower(self, arriving_priority: float) -> Optional[Packet]:
        if not self._recovery:
            return None
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

    def _recovery_under_cap(self) -> bool:
        window = self._recent_services
        if not window:
            return True
        return self._recent_recovery / len(window) < self.recovery_service_share

    def dequeue(self) -> Optional[Packet]:
        if self._recovery and (
            self.buffered == len(self._recovery) or self._recovery_under_cap()
        ):
            return self._serve(PacketClass.RECOVERY)
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
        if fifos[PacketClass.ABOVE_FAIR_SHARE]:
            return self._serve(PacketClass.ABOVE_FAIR_SHARE)
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
        self.buffered -= 1
        if packet.kind == SYN and self._buffered_syns > 0:
            self._buffered_syns -= 1


# ----------------------------------------------------------------------
# The queue
# ----------------------------------------------------------------------
class ReferenceTAQQueue(TAQQueue):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The same objects, with the pre-fusion methods back.
        self.tracker.__class__ = ReferenceTracker
        self.scheduler.__class__ = ReferenceScheduler

    def observe_reverse(self, packet: Packet, now: float) -> None:
        if packet.kind in (ACK, SYNACK):
            self.tracker.observe_ack(packet, now)

    def _classify(
        self, packet: Packet, record: FlowRecord, is_retransmission: bool, now: float
    ) -> PacketClass:
        if is_retransmission:
            return PacketClass.RECOVERY
        if packet.kind == SYN or (
            record.state == FlowState.SLOW_START
            and record.epochs < self.NEW_FLOW_EPOCHS
            and record.cumulative_drops == 0
        ):
            return PacketClass.NEW_FLOW
        if record.recent_drops() >= 2:
            return PacketClass.OVER_PENALIZED
        if self.classify_fair_share and is_above_share(self.fairshare, record, now):
            return PacketClass.ABOVE_FAIR_SHARE
        return PacketClass.BELOW_FAIR_SHARE

    def enqueue(self, packet: Packet, now: float) -> bool:
        if (
            self.admission is not None
            and packet.kind == SYN
            and not self.admission.admits(packet.pool_id, now)
        ):
            self.admission_refusals += 1
            if self.obs is not None:
                self.obs.refused(self, packet, now)
            self._record_drop(packet, now)
            return False

        record = self.tracker.record_for(packet, now)
        silence = silence_seconds(record, now) if self.silence_priority else 0.0
        is_retransmission = self.tracker.observe_arrival(packet, now)
        if self.admission is not None and packet.kind == DATA:
            self.admission.note_arrival(now)

        klass = self._classify(packet, record, is_retransmission, now)
        if klass == PacketClass.OVER_PENALIZED and self.obs is not None:
            self.obs.penalized(self, packet, now)
        accepted, evicted = self.scheduler.enqueue(
            packet, klass, priority=silence, connection_attempt=packet.kind == SYN
        )
        if evicted is not None:
            self.enqueued = max(0, self.enqueued - 1)
            if self.obs is not None:
                self.obs.evicted(self, evicted, packet, now)
            self._account_drop(evicted, now)
        if not accepted:
            self._account_drop(packet, now)
            return False
        self.enqueued += 1
        return True

    def _account_drop(self, packet: Packet, now: float) -> None:
        self.tracker.observe_drop(packet, now)
        if self.admission is not None and packet.kind == DATA:
            self.admission.note_drop(now)
        self._record_drop(packet, now)
