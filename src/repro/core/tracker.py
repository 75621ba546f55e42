"""Per-flow tracking at the middlebox (§3.3, §4.1).

The tracker maintains, for every flow crossing the TAQ box, the four
parameters the paper lists — (a) new packets this epoch, (b) highest
sequence number, (c) retransmitted packets, (d) losses in the previous
epoch — plus the derived quantities queue management needs: the
approximate state, the recovery deficit (drops not yet compensated by
observed retransmissions), the length of the current silence, and a
rate estimate for the fair-share split.

Epoch rollover is lazy: whenever a flow is observed (or queried), the
tracker advances its epoch window to ``now``, classifying each elapsed
epoch — including fully silent ones — through
:func:`repro.core.classifier.classify_epoch`.  The record is its own
epoch observation: it carries the six fields of
:class:`~repro.core.classifier.EpochObservation` under the same names,
so the boundary hands it over as it stands.

Retransmissions are *inferred*, not trusted from the packet: a data
packet whose sequence number does not exceed the highest sequence seen
is a retransmission to a middlebox.

The **activity census** (how many flows, and how many per pool, count
towards the fair-share split) is kept incrementally, so a query costs
O(1) instead of a walk over the table.  A flow is active at ``now``
while ``now - last_seen <= ACTIVITY_HORIZON_EPOCHS * epoch_length``.
For a fixed ``(last_seen, epoch_length)`` that float predicate is
monotone in ``now``: once false it stays false until the flow is seen
again or its epoch estimate grows.  So each active flow carries one
entry in a heap keyed on ``last_seen + horizon * epoch_length``, and a
query retires the entries the clock has reached.  The key is only a
*hint* of where the predicate flips — it is a different float
expression, and ``last_seen`` moves on without the entry being touched
— so every entry within a small slack of ``now`` is re-decided by the
predicate itself and re-keyed when it still holds; an entry beyond the
slack is active for certain.  An estimate that shrinks pulls the
flow's key earlier (a second entry; the later one is recognised as
superseded), which is what keeps "beyond the slack" safe.  The census
is therefore exact, given what the simulator guarantees: the clock the
tracker is called with never runs backwards.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.classifier import classify_epoch
from repro.core.epoch import EpochEstimator
from repro.core.states import FlowState
from repro.net.packet import Packet

#: A flow counts as active while it was seen within this many of its
#: own epochs.  The one place the horizon is written down.
ACTIVITY_HORIZON_EPOCHS = 10.0


class FlowRecord:
    """Everything TAQ knows about one flow."""

    __slots__ = (
        "flow_id",
        "pool_id",
        "census_key",
        "first_seen",
        "last_seen",
        "last_data_time",
        "highest_seq",
        "state",
        "epochs",
        "epoch_start",
        "new_packets",
        "retransmissions",
        "drops",
        "bytes_forwarded",
        "prev_new_packets",
        "prev_drops",
        "prev_bytes",
        "outstanding_drops",
        "silent_epochs",
        "cumulative_drops",
        "rate_bps",
        "estimator",
        "obs",
        "active",
        "expiry",
    )

    def __init__(self, flow_id: int, pool_id: int, now: float, estimator: EpochEstimator) -> None:
        self.flow_id = flow_id
        self.pool_id = pool_id
        #: The pool this flow is counted under in the activity census
        #: (an unpooled flow is its own pool, keyed apart from every
        #: real pool id).
        self.census_key = pool_id if pool_id != -1 else -(flow_id + 2)
        self.first_seen = now
        self.last_seen = now
        self.last_data_time: Optional[float] = None
        self.highest_seq = -1
        self.state = FlowState.SLOW_START
        self.epochs = 0
        self.epoch_start = now
        # Current-epoch counters.
        self.new_packets = 0
        self.retransmissions = 0
        self.drops = 0
        self.bytes_forwarded = 0
        # Previous-epoch counters.
        self.prev_new_packets = 0
        self.prev_drops = 0
        self.prev_bytes = 0
        # Derived.
        self.outstanding_drops = 0
        self.silent_epochs = 0
        self.cumulative_drops = 0
        self.rate_bps = 0.0
        self.estimator = estimator
        #: The observer slot (:mod:`repro.sim.observe`), from the tracker.
        self.obs = None
        #: Census state, owned by the tracker: whether the flow is
        #: counted, and the key of its live entry in the expiry heap.
        self.active = False
        self.expiry = 0.0

    # ------------------------------------------------------------------
    @property
    def epoch_length(self) -> float:
        return self.estimator.estimate

    def recent_drops(self) -> int:
        """Drops over the current and previous epochs (the §4.2 Level-3
        'more than 2 packet drops in an epoch' trigger uses this)."""
        return self.drops + self.prev_drops

    # ------------------------------------------------------------------
    def roll_epochs(self, now: float) -> None:
        """Advance the epoch window to *now*, classifying each one (the
        record, its counters still those of the closing epoch, is the
        classifier's observation)."""
        estimator = self.estimator
        epoch_len = estimator.estimate
        guard = 0
        while now - self.epoch_start >= epoch_len and guard < 256:
            guard += 1
            was_active = (self.new_packets + self.retransmissions) > 0
            self.silent_epochs = 0 if was_active else self.silent_epochs + 1
            prev_state = self.state
            self.state = classify_epoch(prev_state, self)
            if self.obs is not None and self.state is not prev_state:
                self.obs.flow_state(self, prev_state, self.epoch_start + epoch_len)
            # Rate over the closing epoch (EWMA over epochs).
            epoch_rate = self.bytes_forwarded * 8.0 / epoch_len
            self.rate_bps += 0.5 * (epoch_rate - self.rate_bps)
            # Shift.
            self.prev_new_packets = self.new_packets
            self.prev_drops = self.drops
            self.prev_bytes = self.bytes_forwarded
            self.new_packets = 0
            self.retransmissions = 0
            self.drops = 0
            self.bytes_forwarded = 0
            self.epoch_start += epoch_len
            self.epochs += 1
            epoch_len = estimator.estimate
        if guard == 256:
            # Extremely long idle gap: jump rather than loop.
            self.epoch_start = now


class FlowTracker:
    """The per-flow table of a TAQ middlebox."""

    def __init__(
        self,
        default_epoch: float = 0.2,
        idle_timeout: float = 60.0,
    ) -> None:
        self.default_epoch = default_epoch
        self.idle_timeout = idle_timeout
        self.flows: Dict[int, FlowRecord] = {}
        self._last_gc = 0.0
        # The activity census (module docstring): the count, the count
        # per pool, and the expiry heap of (key, push order, record).
        self._active = 0
        self._active_per_pool: Dict[int, int] = {}
        self._expiry: List[Tuple[float, int, FlowRecord]] = []
        self._pushes = 0
        #: The observer slot (:mod:`repro.sim.observe`); the tracker
        #: emits nothing itself, it hands it to every FlowRecord.
        self.obs = None

    # ------------------------------------------------------------------
    def lookup(self, flow_id: int) -> Optional[FlowRecord]:
        return self.flows.get(flow_id)

    def record_for(self, packet: Packet, now: float) -> FlowRecord:
        record = self.flows.get(packet.flow_id)
        if record is None:
            record = FlowRecord(
                packet.flow_id,
                packet.pool_id,
                now,
                EpochEstimator(default_epoch=self.default_epoch),
            )
            record.obs = self.obs
            self.flows[packet.flow_id] = record
            self._activate(record)
        return record

    # ------------------------------------------------------------------
    # Observations.  The TAQ queue observes arrivals and reverse-path
    # ACKs in its own frames (``TAQQueue.enqueue`` and
    # ``TAQQueue.observe_reverse``); drops come through here.
    # ------------------------------------------------------------------
    def observe_drop(self, packet: Packet, now: float) -> None:
        """Record that the queue dropped one of the flow's packets."""
        flows = self.flows
        if packet.flow_id in flows:
            record = flows[packet.flow_id]
        else:
            record = self.record_for(packet, now)
        record.drops += 1
        record.cumulative_drops += 1
        record.outstanding_drops += 1
        # A dropped packet did not go through: take it back out of the
        # forwarded byte count used for the rate estimate.
        remaining = record.bytes_forwarded - packet.size
        record.bytes_forwarded = remaining if remaining > 0 else 0

    # ------------------------------------------------------------------
    def state_of(self, flow_id: int, now: float) -> FlowState:
        """Current approximate state (rolling epochs forward first)."""
        record = self.flows.get(flow_id)
        if record is None:
            return FlowState.SLOW_START
        record.roll_epochs(now)
        return record.state

    # ------------------------------------------------------------------
    # The activity census
    # ------------------------------------------------------------------
    def active_flows(self, now: float) -> int:
        """Flows seen within ``ACTIVITY_HORIZON_EPOCHS`` of their own
        epoch length (never less than 1, so it can divide)."""
        self._retire(now)
        return self._active if self._active > 0 else 1

    def active_per_pool(self, now: float) -> Dict[int, int]:
        """Active flows per :attr:`FlowRecord.census_key`; pools with
        none are absent.  The tracker's own table: read, do not edit."""
        self._retire(now)
        return self._active_per_pool

    def _activate(self, record: FlowRecord) -> None:
        record.active = True
        self._active += 1
        key = record.census_key
        self._active_per_pool[key] = self._active_per_pool.get(key, 0) + 1
        self._push(record)

    def _deactivate(self, record: FlowRecord) -> None:
        record.active = False
        self._active -= 1
        key = record.census_key
        left = self._active_per_pool[key] - 1
        if left:
            self._active_per_pool[key] = left
        else:
            del self._active_per_pool[key]

    def _push(self, record: FlowRecord) -> None:
        record.expiry = record.last_seen + ACTIVITY_HORIZON_EPOCHS * record.estimator.estimate
        self._pushes += 1
        heappush(self._expiry, (record.expiry, self._pushes, record))

    def _expire_no_later(self, record: FlowRecord) -> None:
        """After *record*'s epoch estimate shrank: its live heap key
        must not lie beyond where the predicate now flips."""
        if record.last_seen + ACTIVITY_HORIZON_EPOCHS * record.estimator.estimate < record.expiry:
            self._push(record)

    def _retire(self, now: float) -> None:
        """Bring the census to *now*: re-decide, by the activity
        predicate itself, every flow whose key the clock has reached
        (give or take the slack that covers the key's rounding)."""
        heap = self._expiry
        reach = now + 1e-9 * (1.0 + now)
        if not heap or heap[0][0] > reach:
            return
        still_active = []
        while heap and heap[0][0] <= reach:
            key, _, record = heappop(heap)
            if key != record.expiry or not record.active:
                continue  # superseded by an earlier key, or collected
            if now - record.last_seen <= ACTIVITY_HORIZON_EPOCHS * record.estimator.estimate:
                still_active.append(record)  # seen since, or on the edge
            else:
                self._deactivate(record)
        for record in still_active:
            self._push(record)

    def _maybe_gc(self, now: float) -> None:
        if now - self._last_gc < self.idle_timeout:
            return
        self._last_gc = now
        # Drain the expiry heap here too: with nobody querying the census
        # (no capacity, fair-share split off) nothing else would.
        self._retire(now)
        stale = [
            flow_id
            for flow_id, record in self.flows.items()
            if now - record.last_seen > self.idle_timeout
        ]
        for flow_id in stale:
            record = self.flows.pop(flow_id)
            if record.active:
                self._deactivate(record)
