"""Test harness: a sender/receiver pair joined by a lossy loopback pipe.

Gives TCP unit tests precise control: fixed one-way delay, per-packet
drop predicates (drop the Nth data packet, drop every retransmission,
...), and full packet logs in both directions.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.tcp.receiver import TCPReceiver
from repro.tcp.rto import RtoEstimator
from repro.tcp.sender import TCPSender

DropFn = Callable[[Packet], bool]


class Loopback:
    """A deterministic bidirectional pipe with injectable drops."""

    def __init__(
        self,
        sim: Simulator,
        one_way_delay: float = 0.05,
        drop_data: Optional[DropFn] = None,
        drop_ack: Optional[DropFn] = None,
        **sender_kwargs,
    ) -> None:
        self.sim = sim
        self.delay = one_way_delay
        self.drop_data = drop_data or (lambda p: False)
        self.drop_ack = drop_ack or (lambda p: False)
        self.data_log: List[Packet] = []
        self.ack_log: List[Packet] = []
        self.delivered: List[tuple] = []
        # min_rto below the RFC's 1 s keeps unit tests fast; max_rto of
        # 2 s bounds the worst-case crawl of pathological drop patterns
        # (a conformant flow whose tail segment keeps dying otherwise
        # retries at 60 s pace and blows the property-test horizons).
        sender_kwargs.setdefault("rto", RtoEstimator(min_rto=0.2, max_rto=2.0))
        self.sender = TCPSender(sim, 1, transmit=self._to_receiver, **sender_kwargs)
        self.receiver = TCPReceiver(
            1,
            send=self._to_sender,
            sack=sender_kwargs.get("sack", False),
            delivery_log=self.delivered,
        )

    def _to_receiver(self, packet: Packet) -> None:
        self.data_log.append(packet)
        if self.drop_data(packet):
            return
        self.sim.schedule(
            self.delay, lambda p=packet: self.receiver.receive(p, self.sim.now)
        )

    def _to_sender(self, packet: Packet) -> None:
        self.ack_log.append(packet)
        if self.drop_ack(packet):
            return
        self.sim.schedule(
            self.delay, lambda p=packet: self.sender.receive(p, self.sim.now)
        )

    def run(self, until: float = 60.0) -> None:
        self.sender.open()
        self.sim.run(until=until)
