"""Unit tests for the DropTail queue."""

from repro.net.packet import DATA, Packet
from repro.queues.droptail import DropTailQueue

from tests.queues.helpers import DropLog


def pkt(flow=1, seq=0):
    return Packet(flow, DATA, seq=seq, size=500)


def test_fifo_order():
    queue = DropTailQueue(10)
    packets = [pkt(seq=i) for i in range(5)]
    for p in packets:
        assert queue.enqueue(p, 0.0)
    out = [queue.dequeue(0.0) for _ in range(5)]
    assert out == packets


def test_drops_when_full():
    queue = DropTailQueue(2)
    assert queue.enqueue(pkt(), 0.0)
    assert queue.enqueue(pkt(), 0.0)
    assert not queue.enqueue(pkt(), 0.0)
    assert queue.dropped == 1
    assert len(queue) == 2


def test_dequeue_empty_returns_none():
    queue = DropTailQueue(2)
    assert queue.dequeue(0.0) is None


def test_drop_observer_notified():
    queue = DropTailQueue(1)
    log = DropLog(queue)
    queue.enqueue(pkt(seq=1), 0.0)
    victim = pkt(seq=2)
    queue.enqueue(victim, 3.5)
    assert log.drops == [(victim, 3.5)]


def test_loss_rate_accounting():
    queue = DropTailQueue(1)
    queue.enqueue(pkt(), 0.0)
    queue.enqueue(pkt(), 0.0)  # dropped
    assert queue.loss_rate() == 0.5


def test_capacity_validation():
    import pytest

    with pytest.raises(ValueError):
        DropTailQueue(0)
