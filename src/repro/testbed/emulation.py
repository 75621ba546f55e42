"""Emulated physical testbed (Figs 11, 12).

The emulation preserves the properties the testbed figures actually
demonstrate — that TAQ's logic survives contact with noisy timing and
real packet rates — while staying inside the simulator:

- every delivery through a :class:`JitteredLink` picks up a uniform
  *processing delay* (userspace pcap capture + classify + reinject on a
  2.8 GHz Core Duo: tens to hundreds of microseconds) plus exponential
  *scheduling jitter* (bursty OS preemption);
- the middlebox's clock is quantized to a coarse timer granularity, as
  the C# prototype's would be;
- traffic reaches the constrained link through a 100 Mbps LAN hop, so
  small timing artifacts of the LAN are present but never the
  bottleneck.

The queue discipline under test — :class:`repro.core.taq.TAQQueue` or a
baseline — is used **unmodified**; nothing in this module special-cases
TAQ.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.link import Link
from repro.net.node import Host
from repro.net.packet import Packet
from repro.queues.base import QueueDiscipline
from repro.queues.droptail import DropTailQueue
from repro.sim.simulator import Simulator


class JitteredLink(Link):
    """A link whose deliveries carry middlebox processing noise.

    Parameters
    ----------
    jitter_rng:
        Random stream for the noise (named, so runs are reproducible).
    processing_range:
        Uniform per-packet processing delay bounds, seconds.
    jitter_mean:
        Mean of the additional exponential scheduling jitter, seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        delay: float,
        queue: QueueDiscipline,
        jitter_rng: random.Random,
        name: str = "jittered-link",
        processing_range: tuple = (50e-6, 500e-6),
        jitter_mean: float = 300e-6,
    ) -> None:
        super().__init__(sim, capacity_bps, delay, queue, name=name)
        self.jitter_rng = jitter_rng
        self.processing_range = processing_range
        self.jitter_mean = jitter_mean
        self._launch = self._launch_at_serialization_end

    def _noise(self) -> float:
        low, high = self.processing_range
        noise = self.jitter_rng.uniform(low, high)
        if self.jitter_mean > 0:
            noise += self.jitter_rng.expovariate(1.0 / self.jitter_mean)
        return noise

    def _launch_at_serialization_end(self, at: float, deliver, args: tuple) -> None:
        # The noise draw must happen at serialization *end*, not when the
        # delivery is scheduled: the forward and reverse links share one
        # named RNG stream, so draws have to occur in wire order for runs
        # to stay reproducible.  Interpose a dispatch event at the end
        # (``_free_at``); the noiseless arrival time *at* goes unused.
        self.sim.schedule_at(self._free_at, self._noisy_delivery_dispatch, args)

    def _noisy_delivery_dispatch(self, packet: Packet) -> None:
        total_delay = self.delay + packet.extra_delay + self._noise()
        self.sim.schedule(total_delay, self._deliver, (packet,))


class TestbedDumbbell:
    """The emulated four-machine testbed.

    Mirrors :class:`repro.net.topology.Dumbbell`'s interface (hosts,
    ``forward``/``reverse`` links, fair-share helpers) so workloads and
    collectors work unchanged, but builds the data path as
    ``clients -> 100 Mbps LAN -> middlebox (constrained, jittered) ->
    server`` with a jittered ACK path.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity_bps, rtt, queue, pkt_size:
        Constrained-link parameters, exactly as for the simulated
        dumbbell (the experiments pass the same values to both).
    lan_bps:
        LAN hop rate (100 Mbps Ethernet in the paper's testbed).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        rtt: float,
        queue: Optional[QueueDiscipline] = None,
        pkt_size: int = 500,
        lan_bps: float = 100_000_000.0,
    ) -> None:
        from repro.net.topology import rtt_buffer_pkts

        self.sim = sim
        self.capacity_bps = capacity_bps
        self.base_rtt = rtt
        self.pkt_size = pkt_size
        if queue is None:
            queue = DropTailQueue(rtt_buffer_pkts(capacity_bps, rtt, pkt_size))
        self.queue = queue
        rng = sim.rng.stream("testbed-jitter")
        one_way = rtt / 2.0
        self.sender_host = Host("testbed-clients")
        self.receiver_host = Host("testbed-server")
        self.forward = JitteredLink(
            sim, capacity_bps, one_way, queue, rng, name="middlebox"
        )
        self.reverse = JitteredLink(
            sim,
            lan_bps,
            one_way,
            DropTailQueue(100_000),
            rng,
            name="testbed-ack-path",
        )
        # LAN ingress hop chained into the middlebox's constrained link:
        # tiny serialization, never the bottleneck.
        self.lan = Link(
            sim, lan_bps, 50e-6, DropTailQueue(10_000), name="lan",
            next_link=self.forward,
        )
        self.data_entry = self.lan
        self.ack_entry = self.reverse

    # -- Dumbbell-compatible surface -----------------------------------
    def fair_share_bps(self, n_flows: int) -> float:
        if n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        return self.capacity_bps / n_flows

    def packets_per_rtt(self, n_flows: int, pkt_size: Optional[int] = None) -> float:
        size = pkt_size if pkt_size is not None else self.pkt_size
        return self.fair_share_bps(n_flows) * self.base_rtt / (8.0 * size)
