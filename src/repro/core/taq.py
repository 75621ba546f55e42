"""The assembled TAQ queue discipline.

``TAQQueue`` plugs into a :class:`repro.net.link.Link` exactly like
DropTail/RED/SFQ, which is the paper's deployment story: a middlebox in
front of the bottleneck, no end-host changes.  Internally it wires
together the flow tracker, fair-share estimator, multi-class scheduler
and (optionally) the admission controller.

Packet classification (§4.1/§4.2):

- retransmissions (inferred from sequence tracking) -> RECOVERY, with
  the flow's current silence length as priority;
- SYNs and packets of flows in slow start -> NEW_FLOW;
- packets of flows with >= 2 recent drops, or still holding an
  uncompensated drop (outstanding recovery) -> OVER_PENALIZED;
- otherwise BELOW/ABOVE_FAIR_SHARE by the flow's measured rate.

Drops (arrival rejections and push-out evictions) are reported to the
flow tracker — which is how TAQ "predicts the effect of a packet loss
on the next state of a flow" — and, for data packets, to the admission
controller's loss-rate estimator.  Admission refusals drop SYNs of
unadmitted pools *before* they consume buffer; the sender's SYN retry
doubles as the paper's retry-until-admitted behaviour.

Per packet, ``enqueue`` and ``observe_reverse`` apply these rules in one
frame each and the scheduler accepts or serves in one more; a rare path
(new flow, epoch rollover, estimator sample, due census or GC pass,
admission, the non-default fairness models) is one call behind its guard.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.admission import AdmissionController
from repro.core.fairshare import FairShareEstimator
from repro.core.scheduler import PacketClass, TAQScheduler
from repro.core.states import FlowState
from repro.core.tracker import ACTIVITY_HORIZON_EPOCHS, FlowTracker
from repro.net.packet import ACK, DATA, SYN, SYNACK, Packet
from repro.net.topology import rtt_buffer_pkts
from repro.queues.base import QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.link import Link

RECOVERY = PacketClass.RECOVERY
NEW_FLOW = PacketClass.NEW_FLOW
OVER_PENALIZED = PacketClass.OVER_PENALIZED
BELOW_FAIR_SHARE = PacketClass.BELOW_FAIR_SHARE
ABOVE_FAIR_SHARE = PacketClass.ABOVE_FAIR_SHARE


class TAQQueue(QueueDiscipline):
    """Timeout Aware Queuing as a drop-in queue discipline.

    Parameters
    ----------
    capacity_pkts:
        Shared buffer budget.
    default_epoch:
        Epoch-estimator prior (set it near the deployment's typical
        RTT).
    fairness_model:
        ``"fair-queuing"`` or ``"proportional"`` (§4.2 footnote).
    fairness_granularity:
        ``"flow"`` or ``"pool"`` — §4.3's fair sharing across flow
        pools ("to maintain fairness across applications").
    admission:
        Optional :class:`AdmissionController`; None disables admission
        control (the C# prototype's configuration).
    new_flow_capacity, recovery_service_share:
        Forwarded to :class:`TAQScheduler`.
    classify_fair_share:
        Ablation knob: when False the Below/Above split is disabled and
        all normal traffic shares one Level-2 queue.
    silence_priority:
        Ablation knob: when False, the recovery queue degrades to FIFO
        instead of prioritizing by silence length.
    """

    __slots__ = ("tracker", "fairshare", "scheduler", "admission",
                 "classify_fair_share", "silence_priority",
                 "admission_refusals")

    def __init__(
        self,
        capacity_pkts: int,
        default_epoch: float = 0.2,
        fairness_model: str = "fair-queuing",
        fairness_granularity: str = "flow",
        admission: Optional[AdmissionController] = None,
        new_flow_capacity: Optional[int] = None,
        recovery_service_share: float = 0.3,
        classify_fair_share: bool = True,
        silence_priority: bool = True,
    ) -> None:
        super().__init__(capacity_pkts)
        self.tracker = FlowTracker(default_epoch=default_epoch)
        self.fairshare = FairShareEstimator(
            self.tracker, model=fairness_model, granularity=fairness_granularity
        )
        self.scheduler = TAQScheduler(
            capacity_pkts,
            new_flow_capacity=new_flow_capacity,
            recovery_service_share=recovery_service_share,
        )
        self.admission = admission
        self.classify_fair_share = classify_fair_share
        self.silence_priority = silence_priority
        self.admission_refusals = 0

    @classmethod
    def for_link(
        cls,
        capacity_bps: float,
        rtt: float,
        pkt_size: int = 500,
        rtts: float = 1.0,
        **kwargs,
    ) -> "TAQQueue":
        """Size the buffer like the paper (one RTT by default) and prime
        the epoch estimator with the link RTT."""
        kwargs.setdefault("default_epoch", rtt)
        return cls(rtt_buffer_pkts(capacity_bps, rtt, pkt_size, rtts), **kwargs)

    # ------------------------------------------------------------------
    def attach(self, link: "Link") -> None:
        super().attach(link)
        self.fairshare.capacity_bps = link.capacity_bps

    def install_reverse_tap(self, reverse_link: "Link") -> None:
        """Observe the ACK path for two-way epoch estimation."""
        reverse_link.add_tap(self.observe_reverse)

    def observe_reverse(self, packet: Packet, now: float) -> None:
        """Tap callback for reverse-path (ACK) traffic: sample the epoch
        against the newest data packet the ACK covers (older covered
        packets include queueing of earlier epochs and would
        overestimate the RTT)."""
        if packet.kind in (ACK, SYNACK):
            flows = self.tracker.flows
            flow_id = packet.flow_id
            if flow_id not in flows:
                return
            record = flows[flow_id]
            estimator = record.estimator
            pending = estimator._pending
            ack_seq = packet.ack_seq
            best_seq = -1
            for seq in pending:
                if seq < ack_seq and seq > best_seq:
                    best_seq = seq
            if best_seq >= 0:
                epoch_before = estimator.estimate
                estimator._feed(now - pending[best_seq])
                for seq in tuple(pending):
                    if seq < ack_seq:
                        del pending[seq]
                if estimator.estimate != epoch_before:
                    # The horizon moved without the flow being seen: a
                    # longer one can bring an expired flow back, a
                    # shorter one can expire it before its heap key says so.
                    if record.active:
                        self.tracker._expire_no_later(record)
                    elif now - record.last_seen <= ACTIVITY_HORIZON_EPOCHS * estimator.estimate:
                        self.tracker._activate(record)

    # ------------------------------------------------------------------
    # QueueDiscipline interface
    # ------------------------------------------------------------------
    #: A flow counts as "new" (NewFlow queue) for its first epochs only,
    #: provided it has never been dropped; slow start *after* a timeout
    #: is not a new flow.
    NEW_FLOW_EPOCHS = 4

    def enqueue(self, packet: Packet, now: float) -> bool:
        kind = packet.kind
        admission = self.admission
        # Admission control intercepts SYNs of unadmitted pools first.
        if (
            admission is not None
            and kind == SYN
            and not admission.admits(packet.pool_id, now)
        ):
            self.admission_refusals += 1
            if self.obs is not None:
                self.obs.refused(self, packet, now)
            self._record_drop(packet, now)
            return False

        tracker = self.tracker
        flows = tracker.flows
        flow_id = packet.flow_id
        if flow_id in flows:
            record = flows[flow_id]
        else:
            record = tracker.record_for(packet, now)
        # The flow's silence: seconds since it last put data through.
        silence = 0.0
        if self.silence_priority:
            last = record.last_data_time
            elapsed = now - (last if last is not None else record.first_seen)
            if elapsed > 0.0:
                silence = elapsed

        # The arrival observation.
        estimator = record.estimator
        if now - record.epoch_start >= estimator.estimate:
            record.roll_epochs(now)
        record.last_seen = now
        if not record.active:
            tracker._activate(record)
        is_retransmission = False
        if kind == SYN:
            estimator._syn_time = now
        elif kind == DATA:
            seq = packet.seq
            if seq <= record.highest_seq:
                is_retransmission = True
            else:
                record.highest_seq = seq
            # The estimator's sample: SYN to first data bootstraps it
            # (one-way), then bursts opening each epoch refine it — a gap
            # beyond burst_gap_factor x estimate starts a new burst, and
            # burst start-to-start spacing samples the epoch.
            epoch_before = estimator.estimate
            if not estimator._first_data_seen:
                estimator._first_data_seen = True
                if estimator._syn_time is not None:
                    estimator._feed(now - estimator._syn_time)
            else:  # data seen before, so _last_data_time is set
                if now - estimator._last_data_time > estimator.burst_gap_factor * estimator.estimate:
                    if estimator._burst_start is not None:
                        estimator._feed(now - estimator._burst_start)
                    estimator._burst_start = now
                elif estimator._burst_start is None:
                    estimator._burst_start = now
            pending = estimator._pending
            if len(pending) < 64 and seq not in pending:
                pending[seq] = now
            estimator._last_data_time = now
            if estimator.estimate < epoch_before:
                tracker._expire_no_later(record)
            record.last_data_time = now
            if is_retransmission:
                record.retransmissions += 1
                if record.outstanding_drops > 0:
                    record.outstanding_drops -= 1
            else:
                record.new_packets += 1
            record.bytes_forwarded += packet.size
            if not now - tracker._last_gc < tracker.idle_timeout:
                tracker._maybe_gc(now)
            if admission is not None:
                admission.note_arrival(now)

        # Classification (§4.1/§4.2).
        if is_retransmission:
            klass = RECOVERY
        elif kind == SYN or (
            record.state is FlowState.SLOW_START
            and record.epochs < self.NEW_FLOW_EPOCHS
            and record.cumulative_drops == 0
        ):
            klass = NEW_FLOW
        elif record.drops + record.prev_drops >= 2:
            klass = OVER_PENALIZED
            if self.obs is not None:
                self.obs.penalized(self, packet, now)
        else:
            klass = BELOW_FAIR_SHARE
            fairshare = self.fairshare
            if self.classify_fair_share and not fairshare.capacity_bps <= 0:
                if fairshare.model == "fair-queuing" and fairshare.granularity == "flow":
                    # The equal split over the census, brought to *now*
                    # (the guard is _retire's own first test).
                    heap = tracker._expiry
                    if heap and not heap[0][0] > now + 1e-9 * (1.0 + now):
                        tracker._retire(now)
                    active = tracker._active
                    share = fairshare.capacity_bps / (active if active > 0 else 1)
                else:
                    share = fairshare.fair_share_bps(record, now)
                if record.rate_bps > share * fairshare.headroom:
                    klass = ABOVE_FAIR_SHARE

        accepted, evicted = self.scheduler.enqueue(
            packet, klass, priority=silence, connection_attempt=kind == SYN
        )
        if accepted:
            if evicted is None:
                self.enqueued += 1
                return True
            # The victim was counted as enqueued when it was accepted;
            # move that unit of "offered load" to the drop column.
            enqueued = self.enqueued - 1
            self.enqueued = enqueued if enqueued > 0 else 0
            if self.obs is not None:
                self.obs.evicted(self, evicted, packet, now)
            dropped = evicted
        else:
            dropped = packet
        tracker.observe_drop(dropped, now)
        if admission is not None and dropped.kind == DATA:
            admission.note_drop(now)
        self._record_drop(dropped, now)
        if accepted:
            self.enqueued += 1
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
        return self.scheduler.dequeue()

    def __len__(self) -> int:
        return self.scheduler.buffered
