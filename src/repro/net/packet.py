"""Packets.

Sequence numbers are in *segments*, not bytes: segment ``k`` of a flow
carries bytes ``[k * mss, (k + 1) * mss)``.  This matches the paper's
models, which reason about congestion windows in packets, and keeps the
arithmetic exact.  An ACK with ``ack_seq = n`` cumulatively acknowledges
segments ``0..n-1`` (i.e. it names the next expected segment).

A packet records only what a real middlebox could read off the wire:
flow id (the 5-tuple stand-in), kind, sequence numbers, size, and SACK
blocks.  Endpoint-private state (sender cwnd etc.) never rides on the
packet.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

DATA = "data"
ACK = "ack"
SYN = "syn"
SYNACK = "synack"
FIN = "fin"

#: On-the-wire size of a bare ACK / SYN (IP + TCP headers), bytes.
HEADER_BYTES = 40


class Packet:
    """A single packet in flight.

    Attributes
    ----------
    flow_id:
        Opaque integer identifying the connection (stands in for the
        5-tuple a middlebox would hash).
    kind:
        One of :data:`DATA`, :data:`ACK`, :data:`SYN`, :data:`SYNACK`,
        :data:`FIN`.
    seq:
        Segment number for DATA; undefined (-1) otherwise.
    ack_seq:
        Next expected segment for ACK/SYNACK; -1 otherwise.
    size:
        On-the-wire size in bytes (headers included).
    is_retransmit:
        Set by the sender when the segment has been transmitted before.
        Middleboxes do *not* trust this bit — TAQ infers retransmissions
        from its own sequence tracking — but it is convenient ground
        truth for validation.
    sack:
        Received out-of-order segment ranges ``[(lo, hi), ...]`` (hi is
        exclusive), present on ACKs when the receiver speaks SACK.
    """

    __slots__ = (
        "flow_id",
        "kind",
        "seq",
        "ack_seq",
        "size",
        "is_retransmit",
        "sack",
        "tx_bits",
        "sent_at",
        "extra_delay",
        "dst",
        "pool_id",
        "fb_loss_rate",
        "fb_recv_rate",
        "fb_echo",
        "tunnel_seq",
        "enqueued_at",
        "span_id",
    )

    def __init__(
        self,
        flow_id: int,
        kind: str,
        seq: int = -1,
        ack_seq: int = -1,
        size: int = HEADER_BYTES,
        is_retransmit: bool = False,
        sack: Optional[List[Tuple[int, int]]] = None,
        pool_id: int = -1,
    ) -> None:
        self.flow_id = flow_id
        self.kind = kind
        self.seq = seq
        self.ack_seq = ack_seq
        self.size = size
        self.is_retransmit = is_retransmit
        self.sack = sack
        # Wire size in bits, precomputed once: every hop divides it by
        # its capacity, and ``size * 8.0 / capacity`` groups exactly as
        # ``(size * 8.0) / capacity``, so this is bit-identical.
        self.tx_bits = size * 8.0
        self.sent_at = 0.0
        self.extra_delay = 0.0
        self.dst = None
        self.pool_id = pool_id
        # TFRC feedback fields (None on everything but TFRC feedback
        # packets): receiver-measured loss-event rate, receive rate, and
        # the echoed send timestamp for the sender's RTT sample.
        self.fb_loss_rate: Optional[float] = None
        self.fb_recv_rate: Optional[float] = None
        self.fb_echo: Optional[float] = None
        # Overlay-tunnel sequence number (repro.overlay), -1 outside one.
        self.tunnel_seq = -1
        # Stamped by a Link when the packet is accepted into its queue;
        # read back at transmission start to measure queueing delay.
        self.enqueued_at = 0.0
        # Id of this packet's lifecycle span when a ``repro.obs.spans``
        # recorder is armed; -1 until one has met the packet (so always
        # when disarmed), -2 when it met it past its span cap.
        self.span_id = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "R" if self.is_retransmit else ""
        return (
            f"<Pkt f{self.flow_id} {self.kind}{tag} seq={self.seq} "
            f"ack={self.ack_seq} {self.size}B>"
        )
