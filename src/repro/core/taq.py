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
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.admission import AdmissionController
from repro.core.fairshare import FairShareEstimator
from repro.core.scheduler import PacketClass, TAQScheduler
from repro.core.states import FlowState
from repro.core.tracker import FlowRecord, FlowTracker
from repro.net.packet import ACK, DATA, SYN, SYNACK, Packet
from repro.net.topology import rtt_buffer_pkts
from repro.queues.base import QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.link import Link


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
        """Tap callback for reverse-path (ACK) traffic."""
        if packet.kind in (ACK, SYNACK):
            self.tracker.observe_ack(packet, now)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    #: A flow counts as "new" (NewFlow queue) for its first epochs only,
    #: provided it has never been dropped; slow start *after* a timeout
    #: is not a new flow.
    NEW_FLOW_EPOCHS = 4

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
        if self.classify_fair_share and self.fairshare.is_above_share(record, now):
            return PacketClass.ABOVE_FAIR_SHARE
        return PacketClass.BELOW_FAIR_SHARE

    # ------------------------------------------------------------------
    # QueueDiscipline interface
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        # Admission control intercepts SYNs of unadmitted pools first.
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
        silence = record.silence_seconds(now) if self.silence_priority else 0.0
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
            # The victim was counted as enqueued when it was accepted;
            # move that unit of "offered load" to the drop column.
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

    def dequeue(self, now: float) -> Optional[Packet]:
        return self.scheduler.dequeue()

    def __len__(self) -> int:
        return self.scheduler.buffered
