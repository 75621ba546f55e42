"""Unit tests for Link: serialization, propagation, queueing, taps."""

import pytest

from repro.net.link import Link
from repro.net.packet import DATA, Packet
from repro.queues.droptail import DropTailQueue
from repro.sim.observe import Observer
from repro.sim.simulator import Simulator


class Sink:
    def __init__(self):
        self.arrivals = []

    def receive(self, packet, now):
        self.arrivals.append((now, packet))


def make_link(sim, capacity=8000.0, delay=1.0, buffer_pkts=10):
    return Link(sim, capacity, delay, DropTailQueue(buffer_pkts))


def packet(flow=1, size=1000, sink=None):
    p = Packet(flow, DATA, seq=0, size=size)
    p.dst = sink
    return p


def test_single_packet_latency_is_tx_plus_propagation():
    sim = Simulator()
    sink = Sink()
    link = make_link(sim, capacity=8000.0, delay=1.0)  # 1000B => 1s tx
    link.send(packet(size=1000, sink=sink))
    sim.run()
    assert sink.arrivals[0][0] == pytest.approx(2.0)


def test_back_to_back_packets_serialize():
    sim = Simulator()
    sink = Sink()
    link = make_link(sim, capacity=8000.0, delay=0.0)
    for _ in range(3):
        link.send(packet(size=1000, sink=sink))
    sim.run()
    times = [t for t, _ in sink.arrivals]
    assert times == pytest.approx([1.0, 2.0, 3.0])


def test_extra_delay_applies_per_packet():
    sim = Simulator()
    sink = Sink()
    link = make_link(sim, capacity=8000.0, delay=1.0)
    p = packet(size=1000, sink=sink)
    p.extra_delay = 0.5
    link.send(p)
    sim.run()
    assert sink.arrivals[0][0] == pytest.approx(2.5)


def test_queue_overflow_drops_and_counts():
    sim = Simulator()
    sink = Sink()
    link = make_link(sim, capacity=8000.0, delay=0.0, buffer_pkts=2)
    # One transmitting + 2 buffered; the 4th arrival must drop.
    results = [link.send(packet(size=1000, sink=sink)) for _ in range(4)]
    assert results == [True, True, True, False]
    assert link.stats.dropped == 1
    sim.run()
    assert len(sink.arrivals) == 3


def test_tap_sees_all_arrivals_including_drops():
    sim = Simulator()
    sink = Sink()
    link = make_link(sim, capacity=8000.0, delay=0.0, buffer_pkts=1)
    seen = []
    link.add_tap(lambda p, now: seen.append(p))
    for _ in range(5):
        link.send(packet(size=1000, sink=sink))
    assert len(seen) == 5


def test_utilization_and_byte_accounting():
    sim = Simulator()
    sink = Sink()
    link = make_link(sim, capacity=8000.0, delay=0.0)
    for _ in range(2):
        link.send(packet(size=1000, sink=sink))
    sim.run()
    assert link.stats.bytes_delivered == 2000
    assert link.stats.utilization(8000.0, 4.0) == pytest.approx(0.5)


def test_link_validates_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, 0.0, 0.1, DropTailQueue(1))
    with pytest.raises(ValueError):
        Link(sim, 1000.0, -0.1, DropTailQueue(1))


def test_idle_link_restarts_on_new_arrival():
    sim = Simulator()
    sink = Sink()
    link = make_link(sim, capacity=8000.0, delay=0.0)
    link.send(packet(size=1000, sink=sink))
    sim.run()
    link.send(packet(size=1000, sink=sink))
    sim.run()
    assert len(sink.arrivals) == 2
    assert sink.arrivals[1][0] == pytest.approx(2.0)


def test_queue_delay_stats_follow_the_reservoir_rule():
    # The link folds each packet's time in queue into LinkStats inline;
    # replay the rule on the delays an observer sees at transmission
    # start, past the reservoir's size so the every-17th overwrite runs.
    class TxDelays(Observer):
        def __init__(self):
            self.delays = []

        def tx(self, link, packet, now):
            self.delays.append(now - packet.enqueued_at)

    sim = Simulator()
    link = make_link(sim, capacity=8e6, delay=0.0, buffer_pkts=8)
    seen = TxDelays()
    link.obs = seen
    sink = Sink()
    rng = sim.rng.stream("arrivals")
    t = 0.0
    for _ in range(6000):
        t += rng.expovariate(1000.0)
        sim.schedule_at(t, link.send, (packet(size=1000, sink=sink),))
    sim.run()
    reservoir, total, largest = [], 0.0, 0.0
    for samples, delay in enumerate(seen.delays, start=1):
        total += delay
        largest = max(largest, delay)
        if len(reservoir) < link.stats.RESERVOIR:
            reservoir.append(delay)
        elif samples % 17 == 0:
            reservoir[samples % link.stats.RESERVOIR] = delay
    stats = link.stats
    assert stats.queue_delay_samples == len(seen.delays) > 2 * stats.RESERVOIR
    assert (stats.queue_delay_total, stats.queue_delay_max) == (total, largest)
    assert stats.delay_samples() == reservoir
