"""TCP receiver: immediate cumulative ACKs, optional SACK.

The paper's simulations disable delayed ACKs ("since we wish to focus on
congestion control dynamics, which are often obscured by delayed acks,
our TCP receivers do not delay acks", §2.3), so this receiver ACKs every
data segment immediately.  A delayed-ACK mode is provided for
completeness and ablation, off by default.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from repro.net.packet import ACK, DATA, FIN, HEADER_BYTES, SYN, SYNACK, Packet

DeliveryCallback = Callable[[int, float], None]


class TCPReceiver:
    """Receiver half of a connection.

    Parameters
    ----------
    flow_id:
        Connection identifier.
    send:
        Callable ``send(packet)`` that puts an ACK on the reverse path
        (wired by :class:`~repro.tcp.flow.TcpFlow`).
    sack:
        When True, ACKs carry SACK blocks describing out-of-order data.
    delayed_ack:
        When True, ACK every second in-order segment, flushing a held
        ACK after ``DELACK_TIMEOUT`` (RFC 1122's delayed-ack timer,
        200 ms) when a simulator is supplied via *sim*.  The paper
        disables delayed ACKs in its simulations; this mode exists for
        the ablation.
    sim:
        Optional simulator, required only for the delayed-ack timer.
    on_delivery:
        Optional callback ``(segments_delivered_in_order, now)`` fired
        whenever the in-order prefix advances, used by download-time and
        hang metrics.
    """

    #: RFC 1122 delayed-ack flush timer.
    DELACK_TIMEOUT = 0.2

    def __init__(
        self,
        flow_id: int,
        send: Callable[[Packet], None],
        sack: bool = False,
        delayed_ack: bool = False,
        sim=None,
        on_delivery: Optional[DeliveryCallback] = None,
    ) -> None:
        self.flow_id = flow_id
        self._send = send
        self.sack_enabled = sack
        self.delayed_ack = delayed_ack
        self.sim = sim
        self._delack_timer = None
        self.on_delivery = on_delivery
        self.rcv_next = 0
        self.out_of_order: Set[int] = set()
        self.acks_sent = 0
        self.segments_received = 0
        self.duplicate_segments = 0
        self._ack_pending = False
        self.fin_received = False
        self.pool_id = -1

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, now: float) -> None:
        """Consume a packet arriving from the data path."""
        if packet.kind == SYN:
            self._send_synack(now)
            return
        if packet.kind == FIN:
            self.fin_received = True
            self._emit_ack(now)
            return
        if packet.kind != DATA:
            return
        self.segments_received += 1
        seq = packet.seq
        if seq < self.rcv_next or seq in self.out_of_order:
            self.duplicate_segments += 1
            self._emit_ack(now)  # duplicate data still triggers an ACK
            return
        if seq == self.rcv_next:
            self.rcv_next += 1
            while self.rcv_next in self.out_of_order:
                self.out_of_order.discard(self.rcv_next)
                self.rcv_next += 1
            if self.on_delivery is not None:
                self.on_delivery(self.rcv_next, now)
            if self.delayed_ack and not self._ack_pending and not self.out_of_order:
                self._ack_pending = True
                if self.sim is not None:
                    self._delack_timer = self.sim.schedule(
                        self.DELACK_TIMEOUT, self._flush_delayed_ack
                    )
                return
            self._ack_pending = False
            if self._delack_timer is not None:
                self._delack_timer.cancel()
                self._delack_timer = None
            self._emit_ack(now)
        else:
            self.out_of_order.add(seq)
            self._emit_ack(now)  # out-of-order: immediate dupACK

    # ------------------------------------------------------------------
    def _sack_blocks(self) -> Optional[List[Tuple[int, int]]]:
        if not self.sack_enabled or not self.out_of_order:
            return None
        blocks: List[Tuple[int, int]] = []
        run_start: Optional[int] = None
        previous: Optional[int] = None
        for seq in sorted(self.out_of_order):
            if run_start is None:
                run_start = previous = seq
                continue
            assert previous is not None
            if seq == previous + 1:
                previous = seq
            else:
                blocks.append((run_start, previous + 1))
                run_start = previous = seq
        if run_start is not None:
            assert previous is not None
            blocks.append((run_start, previous + 1))
        return blocks[:3]  # header space limits real SACK to a few blocks

    def _emit_ack(self, now: float) -> None:
        ack = Packet(
            self.flow_id,
            ACK,
            ack_seq=self.rcv_next,
            size=HEADER_BYTES,
            sack=self._sack_blocks() if self.sack_enabled else None,
            pool_id=self.pool_id,
        )
        self.acks_sent += 1
        self._send(ack)

    def _flush_delayed_ack(self) -> None:
        """RFC 1122: a held ACK must leave within DELACK_TIMEOUT."""
        if self._ack_pending:
            self._ack_pending = False
            self._emit_ack(self.sim.now if self.sim is not None else 0.0)

    def _send_synack(self, now: float) -> None:
        synack = Packet(
            self.flow_id,
            SYNACK,
            ack_seq=0,
            size=HEADER_BYTES,
            pool_id=self.pool_id,
        )
        self.acks_sent += 1
        self._send(synack)
