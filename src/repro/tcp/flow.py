"""Connection glue: a sender/receiver pair wired onto a dumbbell.

:class:`TcpFlow` owns one TCP connection end-to-end: it builds the
sender and receiver halves and wires each to the other across the
dumbbell — the sender's packets onto the data path, addressed to the
receiver, the receiver's ACKs onto the ack path, addressed to the
sender, both carrying the flow's private access delay — and records
application-visible milestones (start, in-order progress, completion).
The halves stamp and send their own packets, so nothing of the flow's
runs per packet.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

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
        When True, the receiver appends ``(time, in_order_segments)``
        progress samples to :attr:`delivery_log` for download-time /
        hang metrics.
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
        self.mss = mss if mss is not None else dumbbell.pkt_size
        self.pool_id = pool_id
        self.completed_at: Optional[float] = None
        self.delivery_log: List[Tuple[float, int]] = []
        jitter_random = (
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
            transmit=dumbbell.data_entry.send,
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
            send=dumbbell.ack_entry.send,
            sack=sack,
            sim=dumbbell.sim,
            delivery_log=self.delivery_log if record_deliveries else None,
        )
        self.receiver.pool_id = pool_id
        # Each half addresses its packets to the other, past half the
        # flow's private access RTT in each direction (``extra_rtt``).
        self.sender.dst = self.receiver
        self.receiver.dst = self.sender
        self.extra_rtt = extra_rtt
        self.sender.tx_jitter = tx_jitter
        self.sender.jitter_random = jitter_random
        dumbbell.sim.schedule_at(start_time, self.sender.open)
        # Flows spawned mid-run (web sessions) join an armed run here.
        if dumbbell.sim.obs is not None:
            dumbbell.sim.obs.flow_spawned(dumbbell.sim, self)

    # ------------------------------------------------------------------
    # Application-level accounting
    # ------------------------------------------------------------------
    def _on_complete(self, now: float) -> None:
        self.completed_at = now
        # Packets still in flight for this flow are dropped on arrival,
        # as they would be at a closed socket: the receiver by closing,
        # the sender by being done.
        self.receiver.closed = True
        for callback in self._completion_callbacks:
            callback(self, now)

    def on_complete(self, callback: Callable[["TcpFlow", float], None]) -> None:
        """Register *callback(flow, now)* for flow completion."""
        self._completion_callbacks.append(callback)

    # ------------------------------------------------------------------
    @property
    def extra_rtt(self) -> float:
        """Propagation RTT private to this flow (its access path)."""
        return self._extra_rtt

    @extra_rtt.setter
    def extra_rtt(self, value: float) -> None:
        self._extra_rtt = value
        self.sender.extra_delay = self.receiver.extra_delay = value / 2.0

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
