"""Tests for the testbed emulation harness."""

import pytest

from repro.core import TAQQueue
from repro.metrics import SliceGoodputCollector
from repro.net.packet import DATA, Packet
from repro.queues.droptail import DropTailQueue
from repro.sim.simulator import Simulator
from repro.testbed import JitteredLink, TestbedDumbbell
from repro.workloads import spawn_bulk_flows

# The class name starts with "Test": tell pytest it is not a test case.
TestbedDumbbell.__test__ = False


class Sink:
    def __init__(self):
        self.arrivals = []

    def receive(self, packet, now):
        self.arrivals.append((now, packet))


def test_jittered_link_adds_bounded_noise():
    import random

    sim = Simulator()
    sink = Sink()
    link = JitteredLink(
        sim, 8_000_000.0, 0.01, DropTailQueue(10), random.Random(1),
        processing_range=(1e-4, 5e-4), jitter_mean=1e-4,
    )
    p = Packet(1, DATA, seq=0, size=1000)
    p.dst = sink
    link.send(p)
    sim.run()
    arrival = sink.arrivals[0][0]
    deterministic = 1000 * 8 / 8_000_000.0 + 0.01
    assert arrival > deterministic
    assert arrival < deterministic + 0.01  # noise stays small


def test_jitter_is_deterministic_per_seed():
    def one_run(seed):
        sim = Simulator(seed=seed)
        sink = Sink()
        link = JitteredLink(
            sim, 8_000_000.0, 0.01, DropTailQueue(10),
            sim.rng.stream("j"),
        )
        for i in range(5):
            p = Packet(1, DATA, seq=i, size=500)
            p.dst = sink
            link.send(p)
        sim.run()
        return [t for t, _ in sink.arrivals]

    assert one_run(3) == one_run(3)
    assert one_run(3) != one_run(4)


def test_chained_lan_hop_reaches_receiver():
    sim = Simulator(seed=1)
    bed = TestbedDumbbell(sim, 1_000_000, rtt=0.05)
    flows = spawn_bulk_flows(bed, 3, size_segments=20, start_window=0.5)
    sim.run(until=20.0)
    assert all(f.done for f in flows)
    assert bed.lan.stats.delivered > 0
    assert bed.forward.stats.delivered > 0


def test_testbed_runs_unmodified_taq():
    sim = Simulator(seed=1)
    taq = TAQQueue.for_link(600_000, rtt=0.05)
    bed = TestbedDumbbell(sim, 600_000, rtt=0.05, queue=taq)
    taq.install_reverse_tap(bed.reverse)
    col = SliceGoodputCollector(5.0)
    bed.forward.add_delivery_tap(col.observe)
    flows = spawn_bulk_flows(bed, 20, size_segments=None, start_window=1.0)
    sim.run(until=30.0)
    assert len(taq.tracker.flows) > 0
    assert col.mean_short_term_jain([f.flow_id for f in flows]) > 0.5


def test_testbed_fair_share_helpers():
    sim = Simulator()
    bed = TestbedDumbbell(sim, 1_000_000, rtt=0.2)
    assert bed.fair_share_bps(50) == pytest.approx(20_000)
    assert bed.packets_per_rtt(50) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bed.fair_share_bps(0)
