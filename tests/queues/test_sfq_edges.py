"""SFQ edge case: bucket-count 1 must degenerate to DropTail exactly.

With a single bucket there is no fairness to enforce — every flow hashes
to the same FIFO, and McKenney's buffer stealing would only evict the
queue's own tail to admit the newcomer.  That keeps the drop *count*
equal to DropTail's but changes which packet is lost (tail vs arrival),
which shifts the retransmission pattern.  The fix pins the exact
degeneration: at capacity the arriving packet is rejected, identical to
DropTail packet-for-packet.
"""

from repro.net.packet import DATA, Packet
from repro.queues.droptail import DropTailQueue
from repro.queues.sfq import SFQQueue

from tests.queues.helpers import DropLog


def pkt(flow, seq=0):
    return Packet(flow, DATA, seq=seq, size=500)


def mixed_arrivals(n=30):
    # Several flows interleaved so the single bucket really is shared.
    return [pkt(flow=i % 5, seq=i) for i in range(n)]


def test_single_bucket_rejects_arrival_at_capacity():
    queue = SFQQueue(4, buckets=1)
    for i in range(4):
        assert queue.enqueue(pkt(1, seq=i), 0.0)
    resident_before = list(queue._queues[0])
    assert not queue.enqueue(pkt(2, seq=0), 0.0)
    # Nothing already queued was evicted.
    assert list(queue._queues[0]) == resident_before
    assert queue.dropped == 1


def test_single_bucket_matches_droptail_packet_for_packet():
    sfq = SFQQueue(6, buckets=1)
    droptail = DropTailQueue(6)
    arrivals = mixed_arrivals()
    sfq_out = [sfq.enqueue(p, 0.0) for p in arrivals]
    dt_out = [droptail.enqueue(p, 0.0) for p in arrivals]
    assert sfq_out == dt_out
    assert sfq.dropped == droptail.dropped
    assert sfq.enqueued == droptail.enqueued
    # Identical drain order (same packet objects in the same order).
    sfq_drained, dt_drained = [], []
    while (p := sfq.dequeue(0.0)) is not None:
        sfq_drained.append(id(p))
    while (p := droptail.dequeue(0.0)) is not None:
        dt_drained.append(id(p))
    assert sfq_drained == dt_drained


def test_single_bucket_matches_droptail_under_drain_interleaving():
    sfq = SFQQueue(3, buckets=1)
    droptail = DropTailQueue(3)
    for i, p in enumerate(mixed_arrivals(40)):
        assert sfq.enqueue(p, 0.0) == droptail.enqueue(p, 0.0)
        if i % 4 == 3:
            a, b = sfq.dequeue(0.0), droptail.dequeue(0.0)
            assert (a is None) == (b is None)
            if a is not None:
                assert a is b
    assert sfq.dropped == droptail.dropped


def test_multi_bucket_buffer_stealing_unchanged():
    # The buckets == 1 special case must not leak into real SFQ: with
    # several buckets, a newcomer still steals from the longest bucket.
    queue = SFQQueue(4, buckets=16)
    for i in range(4):
        queue.enqueue(pkt(1, seq=i), 0.0)
    log = DropLog(queue)
    assert queue.enqueue(pkt(2, seq=0), 0.0)
    assert [p.flow_id for p in log.packets] == [1]
