"""Unit tests for Stochastic Fair Queueing."""

from repro.net.packet import DATA, Packet
from repro.queues.sfq import SFQQueue

from tests.queues.helpers import DropLog


def pkt(flow, seq=0):
    return Packet(flow, DATA, seq=seq, size=500)


def test_round_robin_across_flows():
    queue = SFQQueue(100, buckets=16)
    # Flow A floods; flow B sends one packet; B must not wait behind all of A.
    for i in range(10):
        queue.enqueue(pkt(1, seq=i), 0.0)
    queue.enqueue(pkt(2, seq=0), 0.0)
    drained = [queue.dequeue(0.0).flow_id for _ in range(11)]
    assert 2 in drained[:2 + 1]  # B served within the first service round


def test_buffer_stealing_evicts_longest_bucket():
    queue = SFQQueue(4, buckets=16)
    for i in range(4):
        queue.enqueue(pkt(1, seq=i), 0.0)
    log = DropLog(queue)
    assert queue.enqueue(pkt(2, seq=0), 0.0)  # steals from flow 1
    assert [p.flow_id for p in log.packets] == [1]
    assert len(queue) == 4


def test_occupancy_tracking():
    queue = SFQQueue(10, buckets=4)
    for i in range(6):
        queue.enqueue(pkt(i, seq=0), 0.0)
    assert len(queue) == 6
    for _ in range(6):
        queue.dequeue(0.0)
    assert len(queue) == 0
    assert queue.dequeue(0.0) is None


def test_perturb_changes_mapping_for_some_flow():
    a = SFQQueue(10, buckets=8, perturbation=0)
    changed = False
    for flow in range(100):
        before = a._bucket_of(flow)
        a.perturb(12345)
        after = a._bucket_of(flow)
        a.perturb(0)
        if before != after:
            changed = True
            break
    assert changed


def test_all_drained_in_some_order():
    queue = SFQQueue(100, buckets=8)
    sent = [pkt(f, seq=s) for f in range(5) for s in range(3)]
    for p in sent:
        queue.enqueue(p, 0.0)
    got = []
    while (p := queue.dequeue(0.0)) is not None:
        got.append(p)
    assert sorted(id(p) for p in got) == sorted(id(p) for p in sent)


def test_per_flow_fifo_preserved():
    queue = SFQQueue(100, buckets=8)
    for s in range(5):
        queue.enqueue(pkt(7, seq=s), 0.0)
    seqs = []
    while (p := queue.dequeue(0.0)) is not None:
        seqs.append(p.seq)
    assert seqs == sorted(seqs)


def test_bucket_validation():
    import pytest

    with pytest.raises(ValueError):
        SFQQueue(10, buckets=0)
