"""Runtime invariant monitors for the simulator's conservation and
protocol-legality guarantees.

Every monitor is a *passive observer*: it attaches through the hooks the
components already expose (the observer slots of
:mod:`repro.sim.observe`, the link's arrival tap, instance-level
wrapping of ``receive``) and never schedules events, draws randomness,
or mutates component state — so an armed run pops exactly the same
events in exactly the same order as an unarmed one, and a run without
monitors executes the pre-instrumentation code path untouched.

The invariants, stated as the conservation equations each monitor
checks (see ``docs/invariants.md`` for the full catalogue):

- **Clock** — popped event times never decrease, and events popped at
  the same instant come out in strictly increasing sequence order (the
  FIFO tie-break the event heap promises).
- **Link/queue conservation** — at every event boundary,
  ``arrived == dropped + resident + transmitted`` per link, and
  ``transmitted >= delivered`` (the difference is on the wire).  When
  the event queue has fully drained, the wire is empty too:
  ``arrived == dropped + delivered`` exactly.
- **Queue occupancy** — ``0 <= len(queue) <= capacity_pkts``.
- **TCP legality** — ``cwnd >= 1`` and ``ssthresh >= 1`` (in MSS),
  cumulative ACKs never acknowledge unsent data, ``snd_una`` never
  retreats, and the RTO estimator's exponential backoff stays within
  its cap and clamp.
- **TAQ accounting** — the admit/evict/refuse ledgers of the queue, the
  scheduler and the admission controller balance (see
  :class:`TaqAccountingMonitor`).

Violations either raise :class:`InvariantViolation` immediately
(``mode="raise"``, the default for tests) or accumulate on the monitor
(``mode="collect"``, what the fuzzer uses so one bad case can be
shrunk instead of aborting the campaign).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.net.packet import ACK
from repro.sim.observe import Observer, subscribe

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.net.link import Link
    from repro.queues.base import QueueDiscipline
    from repro.sim.events import Event
    from repro.sim.simulator import Simulator


class InvariantViolation(AssertionError):
    """An invariant monitor caught the simulator breaking its contract."""

    def __init__(self, monitor: str, message: str,
                 context: Optional[Dict[str, Any]] = None, time: float = 0.0) -> None:
        self.monitor = monitor
        self.context = dict(context or {})
        self.time = time
        super().__init__(f"[{monitor}] t={time:.6f}: {message}")


@dataclass
class Violation:
    """One recorded invariant breach (the collect-mode artifact)."""

    monitor: str
    message: str
    time: float = 0.0
    context: Dict[str, Any] = field(default_factory=dict)

    def to_document(self) -> Dict[str, Any]:
        return {
            "monitor": self.monitor,
            "message": self.message,
            "time": self.time,
            "context": {k: repr(v) if not isinstance(v, (int, float, str, bool))
                        else v for k, v in self.context.items()},
        }


class Monitor(Observer):
    """Base class: violation recording plus the per-event interface the
    :class:`~repro.check.suite.MonitorSuite` falls back on.  A monitor
    that keeps a ledger also implements the seam events it counts."""

    name = "monitor"

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        self.mode = mode
        self.violations: List[Violation] = []

    def violate(self, message: str, time: float = 0.0, **context: Any) -> None:
        violation = Violation(self.name, message, time, context)
        self.violations.append(violation)
        if self.mode == "raise":
            raise InvariantViolation(self.name, message, context, time)

    # -- observer interface (all optional) ------------------------------
    def on_event(self, event: "Event", now: float) -> None:
        """Check at an event boundary (before the clock advances) and
        word what is wrong.  The suite evaluates the same predicates in
        its own frame between events and calls this when one is false."""

    def finalize(self, sim: "Simulator") -> None:
        """End-of-run checks, after the last event has executed."""


class ClockMonitor(Monitor):
    """Event-clock monotonicity and same-time FIFO ordering."""

    name = "clock"

    def __init__(self, mode: str = "raise") -> None:
        super().__init__(mode)
        self._last_time: Optional[float] = None
        self._last_seq = -1

    def on_event(self, event: "Event", now: float) -> None:
        if event.time < now:
            self.violate(
                f"event #{event.seq} fires at {event.time!r}, before the "
                f"clock ({now!r})",
                time=now, event_time=event.time, seq=event.seq,
            )
        if self._last_time is not None and event.time == self._last_time:
            if event.seq <= self._last_seq:
                self.violate(
                    f"same-time events popped out of FIFO order: seq "
                    f"#{event.seq} after #{self._last_seq} at t={event.time!r}",
                    time=now, seq=event.seq, prev_seq=self._last_seq,
                )
        self._last_time = event.time
        self._last_seq = event.seq


class LinkConservationMonitor(Monitor):
    """Packet conservation on one link: every arrival is dropped,
    resident in the queue, or has been handed to the transmitter.

    The ledger is the monitor's own, counted from the link's arrival
    tap and the seam's ``tx`` / ``delivered`` / ``dropped`` events and
    never read from ``LinkStats``, so a component that loses a packet
    without recording a drop unbalances the books at the very next
    event boundary::

        arrived == dropped + len(queue) + transmitted     (every event)
        transmitted >= delivered                          (wire >= 0)
        arrived == dropped + delivered                    (at full drain)
    """

    name = "conservation"

    def __init__(self, link: "Link", label: str = "link", mode: str = "raise") -> None:
        super().__init__(mode)
        self.link = link
        self.label = label
        # ``drops`` / ``deliveries``, not ``dropped`` / ``delivered``:
        # those names are the seam events this class implements.
        self.arrived = 0
        self.drops = 0
        self.transmitted = 0
        self.deliveries = 0
        # Lossy links (repro.overlay) vanish packets at delivery time and
        # count them separately; those are legal departures from the wire.
        self._lossy = hasattr(link, "cross_traffic_losses")
        link.add_tap(self._on_arrival)
        subscribe(link, self)
        subscribe(link.queue, self)

    # -- ledger ---------------------------------------------------------
    def _on_arrival(self, packet, now: float) -> None:
        self.arrived += 1

    def dropped(self, queue, packet, now: float) -> None:
        self.drops += 1

    def tx(self, link, packet, now: float) -> None:
        self.transmitted += 1

    def delivered(self, link, packet, now: float) -> None:
        self.deliveries += 1

    # -- checks ---------------------------------------------------------
    def on_event(self, event: Optional["Event"], now: float) -> None:
        queue = self.link.queue
        resident = len(queue)
        # The queue's own ledger: ``enqueued`` counts currently-accepted
        # packets (evictions move their unit to ``dropped``), so it must
        # equal what left through dequeue plus what still sits buffered.
        if queue.enqueued != self.transmitted + resident:
            self.violate(
                f"{self.label}: queue ledger drift: enqueued="
                f"{queue.enqueued} != dequeued={self.transmitted} + "
                f"resident={resident}",
                time=now, enqueued=queue.enqueued,
                transmitted=self.transmitted, resident=resident,
            )
        expected = self.drops + resident + self.transmitted
        if self.arrived != expected:
            self.violate(
                f"{self.label}: arrived={self.arrived} != dropped="
                f"{self.drops} + resident={resident} + transmitted="
                f"{self.transmitted} (a packet was lost or double-counted "
                f"without a drop record)",
                time=now, arrived=self.arrived, dropped=self.drops,
                resident=resident, transmitted=self.transmitted,
            )
        lost = self.link.cross_traffic_losses if self._lossy else 0
        if self.transmitted < self.deliveries + lost:
            self.violate(
                f"{self.label}: delivered={self.deliveries} + lost={lost} "
                f"exceeds transmitted={self.transmitted}",
                time=now, transmitted=self.transmitted,
                delivered=self.deliveries, lost=lost,
            )

    def finalize(self, sim: "Simulator") -> None:
        self.on_event(None, sim.now)
        if sim.events.peek_time() is None:
            # Fully drained: nothing may remain on the wire or in queue.
            lost = self.link.cross_traffic_losses if self._lossy else 0
            if self.arrived != self.drops + self.deliveries + lost:
                self.violate(
                    f"{self.label}: after drain, arrived={self.arrived} != "
                    f"dropped={self.drops} + delivered={self.deliveries} "
                    f"+ lost={lost}",
                    time=sim.now, arrived=self.arrived,
                    dropped=self.drops, delivered=self.deliveries, lost=lost,
                )


class QueueOccupancyMonitor(Monitor):
    """Queue occupancy stays within ``[0, capacity_pkts]``."""

    name = "occupancy"

    def __init__(self, queue: "QueueDiscipline", label: str = "queue",
                 mode: str = "raise") -> None:
        super().__init__(mode)
        self.queue = queue
        self.label = label
        self.max_seen = 0

    def on_event(self, event: "Event", now: float) -> None:
        occupancy = len(self.queue)
        if occupancy > self.max_seen:
            self.max_seen = occupancy
        if occupancy < 0 or occupancy > self.queue.capacity_pkts:
            self.violate(
                f"{self.label}: occupancy {occupancy} outside "
                f"[0, {self.queue.capacity_pkts}]",
                time=now, occupancy=occupancy,
                capacity=self.queue.capacity_pkts,
            )

    def finalize(self, sim: "Simulator") -> None:
        self.on_event(None, sim.now)  # type: ignore[arg-type]


class TcpLegalityMonitor(Monitor):
    """Sender state-machine legality, checked on every ACK delivery.

    Attachment wraps each sender's ``receive`` at the instance level —
    the host demux then calls the checked version; an unwrapped run
    carries zero instrumentation.
    """

    name = "tcp"

    def __init__(self, mode: str = "raise") -> None:
        super().__init__(mode)
        self._senders: List[Any] = []
        self._last_una: Dict[int, int] = {}

    def attach_flow(self, flow) -> None:
        """Wrap *flow*'s sender so every incoming ACK is validated."""
        sender = flow.sender
        if not hasattr(sender, "snd_una"):
            return  # non-TCP transport (e.g. TFRC): nothing to check
        self._senders.append(sender)
        original = sender.receive
        flow_id = sender.flow_id
        last_una = self._last_una
        # None reads as "never checked" in check_sender, and lets the
        # wrapper below subscript where check_sender calls ``get``.
        last_una.setdefault(flow_id, None)

        def checked_receive(packet, now: float) -> None:
            if (
                packet.kind == ACK
                and packet.ack_seq > sender.high_water
                and sender.state == "established"
            ):
                self.violate(
                    f"flow {sender.flow_id}: ACK of unsent data "
                    f"(ack_seq={packet.ack_seq} > high_water="
                    f"{sender.high_water})",
                    time=now, flow_id=sender.flow_id,
                    ack_seq=packet.ack_seq, high_water=sender.high_water,
                )
            original(packet, now)
            # check_sender's clauses, restated in this frame; when one
            # is false check_sender itself re-checks and words it.
            state = sender.state
            if state != "established" and state != "done":
                return
            una = sender.snd_una
            last = last_una[flow_id]
            rto = sender.rto
            timeout = rto.rto
            if (
                sender.cwnd < 1.0
                or sender.ssthresh < 1.0
                or not una <= sender.snd_next <= sender.high_water
                or (last is not None and una < last)
                or rto.backoff_exponent > rto.max_backoff
                or timeout > rto.max_rto
                or timeout < rto.min_rto
            ):
                self.check_sender(sender, now)
            else:
                last_una[flow_id] = una

        sender.receive = checked_receive

    def check_sender(self, sender, now: float) -> None:
        """The window/timer legality assertions for one sender."""
        if sender.state not in ("established", "done"):
            return
        if sender.cwnd < 1.0:
            self.violate(
                f"flow {sender.flow_id}: cwnd={sender.cwnd!r} below 1 MSS",
                time=now, flow_id=sender.flow_id, cwnd=sender.cwnd,
            )
        if sender.ssthresh < 1.0:
            self.violate(
                f"flow {sender.flow_id}: ssthresh={sender.ssthresh!r} "
                f"below 1 MSS",
                time=now, flow_id=sender.flow_id, ssthresh=sender.ssthresh,
            )
        if not (sender.snd_una <= sender.snd_next <= sender.high_water):
            self.violate(
                f"flow {sender.flow_id}: window pointers out of order "
                f"(snd_una={sender.snd_una}, snd_next={sender.snd_next}, "
                f"high_water={sender.high_water})",
                time=now, flow_id=sender.flow_id, snd_una=sender.snd_una,
                snd_next=sender.snd_next, high_water=sender.high_water,
            )
        last = self._last_una.get(sender.flow_id)
        if last is not None and sender.snd_una < last:
            self.violate(
                f"flow {sender.flow_id}: snd_una retreated "
                f"({last} -> {sender.snd_una})",
                time=now, flow_id=sender.flow_id, was=last, now_una=sender.snd_una,
            )
        self._last_una[sender.flow_id] = sender.snd_una
        rto = sender.rto
        if rto.backoff_exponent > rto.max_backoff:
            self.violate(
                f"flow {sender.flow_id}: backoff exponent "
                f"{rto.backoff_exponent} exceeds cap {rto.max_backoff}",
                time=now, flow_id=sender.flow_id,
                exponent=rto.backoff_exponent, cap=rto.max_backoff,
            )
        timeout = rto.rto
        if timeout > rto.max_rto or timeout < rto.min_rto:
            self.violate(
                f"flow {sender.flow_id}: RTO {timeout!r} outside clamp "
                f"[{rto.min_rto}, {rto.max_rto}]",
                time=now, flow_id=sender.flow_id, rto=timeout,
            )

    def finalize(self, sim: "Simulator") -> None:
        for sender in self._senders:
            self.check_sender(sender, sim.now)


class TaqAccountingMonitor(Monitor):
    """TAQ's admit/evict/refuse ledgers balance across its layers.

    Between events (all counters are settled there)::

        queue.dropped == sum(class.dropped) + admission_refusals
        queue.enqueued == sum(class.served) + len(scheduler)
        len(scheduler) == sum(class occupancies)
        0 <= buffered SYNs <= new_flow_capacity

    and per tracked flow: ``0 <= outstanding_drops <= cumulative_drops``
    with non-negative epoch counters, plus disjoint admitted/waiting
    pool sets and a loss-rate estimate inside ``[0, 1]`` when the
    admission controller is present.

    The third line compares two ledgers, not a sum with itself:
    ``len(scheduler)`` is a running count settled on every way out of
    the buffer, the occupancies are the containers' own lengths.

    ``finalize`` re-derives the tracker's activity census (flow count
    and per-pool table, both kept incrementally) by one full scan of
    the flow table and reports any difference.
    """

    name = "taq"

    def __init__(self, queue, mode: str = "raise") -> None:
        super().__init__(mode)
        self.queue = queue

    def on_event(self, event: "Event", now: float) -> None:
        queue = self.queue
        scheduler = queue.scheduler
        class_dropped = served = by_class = 0
        for klass, stats in scheduler.stats.items():
            class_dropped += stats.dropped
            served += stats.served
            by_class += scheduler.occupancy(klass)
        refused = queue.admission_refusals
        if queue.dropped != class_dropped + refused:
            self.violate(
                f"drop ledger unbalanced: queue.dropped={queue.dropped} != "
                f"per-class dropped={class_dropped} + refusals={refused}",
                time=now, dropped=queue.dropped,
                class_dropped=class_dropped, refused=refused,
            )
        resident = len(scheduler)
        if queue.enqueued != served + resident:
            self.violate(
                f"admit ledger unbalanced: queue.enqueued={queue.enqueued} "
                f"!= served={served} + resident={resident}",
                time=now, enqueued=queue.enqueued,
                served=served, resident=resident,
            )
        if resident != by_class:
            self.violate(
                f"occupancy split unbalanced: len={resident} != "
                f"sum per class={by_class}",
                time=now, resident=resident, by_class=by_class,
            )
        syns = scheduler._buffered_syns
        if syns < 0 or syns > scheduler.new_flow_capacity:
            self.violate(
                f"buffered SYN count {syns} outside "
                f"[0, {scheduler.new_flow_capacity}]",
                time=now, syns=syns, cap=scheduler.new_flow_capacity,
            )
        admission = queue.admission
        if admission is not None:
            if not admission.admitted.keys().isdisjoint(admission.waiting):
                overlap = admission.admitted.keys() & admission.waiting.keys()
                self.violate(
                    f"pools both admitted and waiting: {sorted(overlap)}",
                    time=now, pools=sorted(overlap),
                )
            # The EWMA can legitimately overshoot 1.0 for a window when
            # evictions of packets that arrived in an earlier window
            # outnumber the current window's arrivals, so only
            # negativity is illegal.
            if admission.loss_rate < 0.0:
                self.violate(
                    f"admission loss-rate estimate {admission.loss_rate!r} "
                    f"is negative",
                    time=now, loss_rate=admission.loss_rate,
                )

    def finalize(self, sim: "Simulator") -> None:
        # Imported here: repro.build loads this module, and a scenario
        # without a TAQ queue should not pay for importing repro.core.
        from repro.core.tracker import ACTIVITY_HORIZON_EPOCHS

        now = sim.now
        self.on_event(None, now)  # type: ignore[arg-type]
        tracker = self.queue.tracker
        # The activity census, re-derived the slow way: one walk over
        # the table with the predicate the tracker's docstring states.
        scanned = 0
        scanned_per_pool: Dict[int, int] = {}
        for record in tracker.flows.values():
            legal = (
                0 <= record.outstanding_drops <= record.cumulative_drops
                and record.new_packets >= 0
                and record.retransmissions >= 0
                and record.drops >= 0
                and record.bytes_forwarded >= 0
                and record.epochs >= 0
            )
            if not legal:
                self.violate(
                    f"flow {record.flow_id}: tracker counters illegal "
                    f"(outstanding={record.outstanding_drops}, "
                    f"cumulative={record.cumulative_drops}, "
                    f"new={record.new_packets}, "
                    f"retx={record.retransmissions}, drops={record.drops})",
                    time=now, flow_id=record.flow_id,
                )
            if now - record.last_seen <= ACTIVITY_HORIZON_EPOCHS * record.epoch_length:
                scanned += 1
                key = record.census_key
                scanned_per_pool[key] = scanned_per_pool.get(key, 0) + 1
        census = tracker.active_flows(now)
        per_pool = tracker.active_per_pool(now)
        if census != max(1, scanned) or per_pool != scanned_per_pool:
            self.violate(
                f"activity census drifted from a full scan: tracker counts "
                f"{census} active flow(s) in {len(per_pool)} pool(s), the "
                f"table holds {scanned} in {len(scanned_per_pool)}",
                time=now, census=census, scanned=scanned,
                per_pool=dict(per_pool), scanned_per_pool=scanned_per_pool,
            )
