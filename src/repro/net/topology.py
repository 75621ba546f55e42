"""The dumbbell topology used by every experiment in the paper.

All senders sit on one side, all receivers on the other, and every flow
crosses a single bottleneck link in the data direction.  ACKs return on
a fast reverse link ("all traffic is one-way", §2.3): the reverse path
has ample capacity so pure ACKs never queue, matching the paper's setup
where congestion-control dynamics come only from the forward bottleneck.

Per-flow RTT variation is modeled with per-packet ``extra_delay`` —
each flow owns an access-path delay added on top of the bottleneck
propagation, which is exactly what distinct access links would add when
they are never the bottleneck.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.net.link import Link
from repro.net.node import Host
from repro.queues.base import QueueDiscipline
from repro.queues.droptail import DropTailQueue
from repro.sim.simulator import Simulator


def rtt_buffer_pkts(capacity_bps: float, rtt: float, pkt_size: int, rtts: float = 1.0) -> int:
    """Buffer size holding *rtts* round-trips of packets at line rate.

    The paper sizes every droptail buffer as "one RTT's worth of delay";
    Fig 3 sweeps this multiplier.  At least one packet is always allowed.
    """
    pkts = capacity_bps * rtt * rtts / (8.0 * pkt_size)
    return max(1, int(math.ceil(pkts)))


class Dumbbell:
    """A single-bottleneck dumbbell.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity_bps:
        Bottleneck capacity (bits/s).
    rtt:
        Base propagation round-trip time (seconds), split evenly between
        the forward and reverse directions.  Individual flows may add
        their own access delay.
    queue:
        Queue discipline for the bottleneck.  Defaults to a DropTail
        buffer of one RTT at 500-byte packets.
    pkt_size:
        Default on-the-wire segment size, used only for the default
        buffer sizing.
    reverse_capacity_bps:
        Capacity of the ACK path; defaults to 100x the bottleneck so the
        reverse direction never congests.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        rtt: float,
        queue: Optional[QueueDiscipline] = None,
        pkt_size: int = 500,
        reverse_capacity_bps: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.capacity_bps = capacity_bps
        self.base_rtt = rtt
        self.pkt_size = pkt_size
        if queue is None:
            queue = DropTailQueue(rtt_buffer_pkts(capacity_bps, rtt, pkt_size))
        self.queue = queue
        one_way = rtt / 2.0
        if reverse_capacity_bps is None:
            reverse_capacity_bps = 100.0 * capacity_bps
        self.sender_host = Host("senders")
        self.receiver_host = Host("receivers")
        self.forward = Link(sim, capacity_bps, one_way, queue, name="bottleneck")
        self.reverse = Link(
            sim,
            reverse_capacity_bps,
            one_way,
            DropTailQueue(100000),
            name="ack-path",
        )
        # Where flows inject traffic; a testbed variant interposes extra
        # hops by pointing these at its ingress links.
        self.data_entry = self.forward
        self.ack_entry = self.reverse

    # ------------------------------------------------------------------
    def fair_share_bps(self, n_flows: int) -> float:
        """Ideal per-flow fair share of the bottleneck."""
        if n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        return self.capacity_bps / n_flows

    def packets_per_rtt(self, n_flows: int, pkt_size: Optional[int] = None) -> float:
        """Per-flow fair share expressed in packets per base RTT.

        This is the paper's regime coordinate: SPK(k) means this value
        is below k.
        """
        size = pkt_size if pkt_size is not None else self.pkt_size
        return self.fair_share_bps(n_flows) * self.base_rtt / (8.0 * size)

    def regime(self, n_flows: int, k: float = 3.0) -> str:
        """Classify the operating regime per the paper's definitions."""
        ppr = self.packets_per_rtt(n_flows)
        if ppr < 1.0:
            return "sub-packet"
        if ppr < k:
            return f"small-packet (SPK({k:g}))"
        return "normal"
