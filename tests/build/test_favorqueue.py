"""FavorQueue semantics: favoritism, push-out, state bounded by the buffer."""

from repro.net.packet import Packet
from repro.queues.favorqueue import FavorQueue


def pkt(flow_id, seq=0, size=500):
    return Packet(flow_id, "data", seq=seq, size=size)


def test_young_flow_dequeued_before_backlog():
    queue = FavorQueue(capacity_pkts=10)
    for seq in range(4):
        assert queue.enqueue(pkt(1, seq), now=0.0)
    assert queue.enqueue(pkt(2, 0), now=0.0)
    # Flow 1's first packet found none of its own queued and was
    # favored; the rest joined the backlog.  Flow 2 had nothing queued
    # and jumps the line.
    first = queue.dequeue(now=0.0)
    assert first.flow_id == 1 and first.seq == 0
    second = queue.dequeue(now=0.0)
    assert second.flow_id == 2
    third = queue.dequeue(now=0.0)
    assert third.flow_id == 1 and third.seq == 1


def test_full_queue_pushes_out_old_flow_for_newcomer():
    queue = FavorQueue(capacity_pkts=4)
    # Fill with packets of one flow (second packet onward is normal).
    for seq in range(4):
        queue.enqueue(pkt(7, seq), now=0.0)
    assert len(queue) == 4
    assert queue.enqueue(pkt(8, 0), now=1.0)  # young flow admitted
    assert len(queue) == 4
    assert queue.dropped == 1  # the pushed-out tail packet
    assert queue._queued == {7: 3, 8: 1}


def test_old_flow_dropped_at_capacity():
    queue = FavorQueue(capacity_pkts=2)
    queue.enqueue(pkt(1, 0), now=0.0)
    queue.enqueue(pkt(1, 1), now=0.0)
    assert not queue.enqueue(pkt(1, 2), now=0.0)
    assert queue.dropped == 1


def test_counts_favored_admissions():
    queue = FavorQueue(capacity_pkts=10)
    for seq in range(3):
        queue.enqueue(pkt(1, seq), now=0.0)
    assert queue.favored_admissions == 1
    while queue.dequeue(now=0.0) is not None:
        pass
    # Drained, the flow is forgotten: its next packet is favored again.
    assert queue._queued == {}
    queue.enqueue(pkt(1, 3), now=0.0)
    assert queue.favored_admissions == 2
