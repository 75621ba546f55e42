"""Packets that reach a finished flow are dropped without a trace.

A sized flow completes when its last segment is acknowledged; segments
and ACKs still on the wire then arrive at a closed connection.  They
must not be answered, must not move a counter, and must not schedule
anything: in a churning web workload a late segment that drew an ACK
would put traffic on the path that no open flow sent.
"""

from repro.net.packet import ACK, DATA
from repro.net.topology import Dumbbell
from repro.sim.simulator import Simulator
from repro.tcp.flow import TcpFlow


def finished_flow():
    """A five-segment flow run to completion, with one DATA segment
    and one ACK it put on the wire, as they left the far end."""
    sim = Simulator(seed=1)
    bell = Dumbbell(sim, 1_000_000, 0.1)
    flow = TcpFlow(bell, 1, size_segments=5)
    seen = {}
    bell.forward.add_delivery_tap(
        lambda p, now: seen.setdefault(DATA, p) if p.kind == DATA else None)
    bell.reverse.add_delivery_tap(
        lambda p, now: seen.setdefault(ACK, p) if p.kind == ACK else None)
    sim.run()
    assert flow.done
    return sim, bell, flow, seen[DATA], seen[ACK]


def footprint(sim, bell, flow):
    sender, receiver = flow.sender, flow.receiver
    return (
        receiver.acks_sent, receiver.segments_received, sender.snd_una,
        sender.cwnd, sim.processed, len(sim.events),
        bell.forward.stats.arrived, bell.reverse.stats.arrived,
    )


def test_late_data_and_ack_after_completion_change_nothing():
    sim, bell, flow, data, ack = finished_flow()
    before = footprint(sim, bell, flow)
    # The far end of each wire hands the packet to whatever consumes it.
    bell.forward._deliver(data)
    bell.reverse._deliver(ack)
    assert footprint(sim, bell, flow) == before
    sim.run()
    assert footprint(sim, bell, flow) == before
