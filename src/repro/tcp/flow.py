"""Connection glue: a sender/receiver pair wired onto a dumbbell.

:class:`TcpFlow` owns one TCP connection end-to-end: it builds the
sender and receiver halves, binds them to the dumbbell's hosts, routes
the sender's packets onto the data path and the receiver's ACKs onto the
ack path, applies the flow's private access delay, and records
application-visible milestones (start, first byte, completion).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.net.packet import Packet
from repro.net.topology import Dumbbell
from repro.tcp.receiver import TCPReceiver
from repro.tcp.rto import RtoEstimator
from repro.tcp.sender import TCPSender


class TcpFlow:
    """A TCP connection crossing a dumbbell.

    Parameters
    ----------
    dumbbell:
        Topology to attach to.
    flow_id:
        Unique connection identifier.
    size_segments:
        Number of data segments to transfer, or ``None`` for a
        long-running flow.
    start_time:
        Absolute simulation time at which to send the SYN.
    extra_rtt:
        Additional propagation RTT private to this flow (its access
        path), split evenly between directions.
    mss:
        On-the-wire data segment size, bytes.
    sack, initial_cwnd, max_cwnd, min_rto:
        Forwarded to the sender/receiver (see their docs).
    pool_id:
        Flow-pool (web session) id for admission control; -1 = none.
    record_deliveries:
        When True, keeps ``(time, in_order_segments)`` progress samples
        on the receiver side for download-time / hang metrics.
    round_log:
        Enable the sender's ground-truth round log (Fig 6 validation).
    persistent_syn:
        Emulate the paper's retry-until-admitted clients: SYN retries
        keep knocking every ~2 s instead of backing off exponentially
        and giving up.
    tx_jitter:
        Uniform per-packet delay in ``[0, tx_jitter)`` added on the
        host's transmission path (NIC/OS scheduling noise).  Without it,
        ack-clocked arrivals are phase-locked to departures and droptail
        exhibits artificial deterministic lockout — the simulation
        analogue of ns2's ``overhead_`` parameter.
    """

    def __init__(
        self,
        dumbbell: Dumbbell,
        flow_id: int,
        size_segments: Optional[int] = None,
        start_time: float = 0.0,
        extra_rtt: float = 0.0,
        mss: Optional[int] = None,
        sack: bool = False,
        variant: Optional[str] = None,
        initial_cwnd: Optional[float] = 2.0,
        max_cwnd: Optional[float] = None,
        min_rto: float = 1.0,
        pool_id: int = -1,
        record_deliveries: bool = False,
        round_log: bool = False,
        persistent_syn: bool = False,
        tx_jitter: float = 0.001,
    ) -> None:
        self.dumbbell = dumbbell
        self.flow_id = flow_id
        self.size_segments = size_segments
        self.start_time = start_time
        self.extra_rtt = extra_rtt
        self.mss = mss if mss is not None else dumbbell.pkt_size
        self.pool_id = pool_id
        self.completed_at: Optional[float] = None
        self.first_delivery_at: Optional[float] = None
        self.delivery_log: List[Tuple[float, int]] = []
        self._record = record_deliveries
        self.tx_jitter = tx_jitter
        self._jitter_random = (
            dumbbell.sim.rng.stream("tx-jitter").random if tx_jitter > 0 else None
        )
        self._completion_callbacks: List[Callable[["TcpFlow", float], None]] = []

        if variant is not None:
            from repro.tcp.variants import VARIANTS

            try:
                factory = VARIANTS[variant]
            except KeyError:
                raise ValueError(
                    f"unknown TCP variant {variant!r}; choose from {sorted(VARIANTS)}"
                )
            sack = sack or variant == "sack"
        else:
            factory = TCPSender
        self.variant = variant if variant is not None else ("sack" if sack else "newreno")
        sender_kwargs = dict(
            transmit=self._send_data_path,
            mss=self.mss,
            total_segments=size_segments,
            max_cwnd=max_cwnd,
            sack=sack,
            rto=RtoEstimator(min_rto=min_rto),
            on_complete=self._on_complete,
            round_log=round_log,
        )
        if initial_cwnd is not None:
            # None lets the variant pick its own default (CUBIC: IW10).
            sender_kwargs["initial_cwnd"] = initial_cwnd
        self.sender = factory(dumbbell.sim, flow_id, **sender_kwargs)
        self.sender.pool_id = pool_id
        if persistent_syn:
            # The paper's clients "constantly retry till admission":
            # steady 2-second knocking instead of exponential give-up.
            self.sender.MAX_SYN_RETRIES = 1000
            self.sender.SYN_BACKOFF_CAP = 1
        self.receiver = TCPReceiver(
            flow_id,
            send=self._send_ack_path,
            sack=sack,
            sim=dumbbell.sim,
            on_delivery=self._on_delivery,
        )
        self.receiver.pool_id = pool_id
        dumbbell.sender_host.bind_sender(flow_id, self.sender)
        dumbbell.receiver_host.bind_receiver(flow_id, self.receiver)
        dumbbell.sim.schedule_at(start_time, self.sender.open)
        # Flows spawned mid-run (web sessions) join an armed run here.
        if dumbbell.sim.obs is not None:
            dumbbell.sim.obs.flow_spawned(dumbbell.sim, self)

    # ------------------------------------------------------------------
    # Packet routing
    # ------------------------------------------------------------------
    def _send_data_path(self, packet: Packet) -> None:
        packet.dst = self.dumbbell.receiver_host
        packet.extra_delay = self.extra_rtt / 2.0
        packet.sent_at = self.dumbbell.sim.now
        if self._jitter_random is not None:
            # random.uniform(0.0, tx_jitter) without its frame: it returns
            # 0.0 + (tx_jitter - 0.0) * random(), which is exactly this.
            self.dumbbell.sim.schedule(
                self.tx_jitter * self._jitter_random(),
                self.dumbbell.data_entry.send, (packet,)
            )
        else:
            self.dumbbell.data_entry.send(packet)

    def _send_ack_path(self, packet: Packet) -> None:
        packet.dst = self.dumbbell.sender_host
        packet.extra_delay = self.extra_rtt / 2.0
        packet.sent_at = self.dumbbell.sim.now
        self.dumbbell.ack_entry.send(packet)

    # ------------------------------------------------------------------
    # Application-level accounting
    # ------------------------------------------------------------------
    def _on_delivery(self, in_order_segments: int, now: float) -> None:
        if self.first_delivery_at is None:
            self.first_delivery_at = now
        if self._record:
            self.delivery_log.append((now, in_order_segments))

    def _on_complete(self, now: float) -> None:
        self.completed_at = now
        # Release the demux entries: workloads churning through many
        # short flows (web sessions) would otherwise grow the host
        # tables without bound.  Packets still in flight for this flow
        # are dropped at the host, as they would be at a closed socket.
        self.dumbbell.sender_host.unbind(self.flow_id)
        self.dumbbell.receiver_host.unbind(self.flow_id)
        for callback in self._completion_callbacks:
            callback(self, now)

    def on_complete(self, callback: Callable[["TcpFlow", float], None]) -> None:
        """Register *callback(flow, now)* for flow completion."""
        self._completion_callbacks.append(callback)

    # ------------------------------------------------------------------
    @property
    def rtt(self) -> float:
        """Propagation RTT of this flow (base + private access delay)."""
        return self.dumbbell.base_rtt + self.extra_rtt

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def download_time(self) -> Optional[float]:
        """SYN-to-last-ACK duration for sized flows, else None."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = self.size_segments if self.size_segments is not None else "inf"
        return f"<TcpFlow {self.flow_id} size={size} start={self.start_time:.2f}>"
