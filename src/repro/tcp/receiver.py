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
    delivery_log:
        Optional list the receiver appends ``(now,
        segments_delivered_in_order)`` to whenever the in-order prefix
        advances, read by download-time and hang metrics (a flow's
        :attr:`~repro.tcp.flow.TcpFlow.delivery_log`).
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
        delivery_log: Optional[List[Tuple[float, int]]] = None,
    ) -> None:
        self.flow_id = flow_id
        self._send = send
        self.sack_enabled = sack
        self.delayed_ack = delayed_ack
        self.sim = sim
        self._delack_timer = None
        self.delivery_log = delivery_log
        self.rcv_next = 0
        self.out_of_order: Set[int] = set()
        self.acks_sent = 0
        self.segments_received = 0
        self.duplicate_segments = 0
        self._ack_pending = False
        self.fin_received = False
        self.pool_id = -1
        #: Where ACKs go, stamped on each (wired by
        #: :class:`~repro.tcp.flow.TcpFlow`; the defaults are a bare
        #: packet's): the sender half, past the flow's one-way access
        #: delay.
        self.dst = None
        self.extra_delay = 0.0
        #: Set when the owning flow completes: whatever still arrives
        #: for the connection is dropped unanswered, as at a closed socket.
        self.closed = False

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, now: float) -> None:
        """Consume a packet arriving from the data path."""
        if self.closed:
            return
        kind = packet.kind
        if kind == DATA:
            self.segments_received += 1
            seq = packet.seq
            if seq < self.rcv_next or seq in self.out_of_order:
                self.duplicate_segments += 1  # still triggers an ACK
            elif seq == self.rcv_next:
                self.rcv_next += 1
                while self.rcv_next in self.out_of_order:
                    self.out_of_order.discard(self.rcv_next)
                    self.rcv_next += 1
                if self.delivery_log is not None:
                    self.delivery_log.append((now, self.rcv_next))
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
            else:
                self.out_of_order.add(seq)  # out-of-order: immediate dupACK
        elif kind == FIN:
            self.fin_received = True
        elif kind == SYN:
            self._reply(SYNACK, 0)
            return
        else:
            return
        # _reply, inline: every data segment draws an ACK.
        ack = Packet(
            self.flow_id,
            ACK,
            ack_seq=self.rcv_next,
            size=HEADER_BYTES,
            sack=self._sack_blocks() if self.sack_enabled else None,
            pool_id=self.pool_id,
        )
        ack.dst = self.dst
        ack.extra_delay = self.extra_delay
        self.acks_sent += 1
        self._send(ack)

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

    def _reply(self, kind: str, ack_seq: int,
               sack: Optional[List[Tuple[int, int]]] = None) -> None:
        """Put a *kind* packet acknowledging *ack_seq* on the reverse
        path, addressed to the sender half."""
        packet = Packet(
            self.flow_id,
            kind,
            ack_seq=ack_seq,
            size=HEADER_BYTES,
            sack=sack,
            pool_id=self.pool_id,
        )
        packet.dst = self.dst
        packet.extra_delay = self.extra_delay
        self.acks_sent += 1
        self._send(packet)

    def _flush_delayed_ack(self) -> None:
        """RFC 1122: a held ACK must leave within DELACK_TIMEOUT."""
        if self._ack_pending:
            self._ack_pending = False
            self._reply(ACK, self.rcv_next,
                        self._sack_blocks() if self.sack_enabled else None)
