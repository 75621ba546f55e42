"""Offered-load accounting and ``dropped``-event fan-out, all disciplines.

``loss_rate()`` is drops over offered load (accepted + dropped), and a
push-out eviction must count as exactly one unit of lost offered load —
the victim moves from the "enqueued" column to the "dropped" column, it
does not appear in both.
"""

import random

import pytest

from repro.core import TAQQueue
from repro.net.packet import DATA, Packet
from repro.queues import DropTailQueue, REDQueue, SFQQueue
from repro.sim.observe import Observer, subscribe

from tests.queues.helpers import DropLog


def make_queue(kind: str):
    if kind == "droptail":
        return DropTailQueue(8)
    if kind == "red":
        return REDQueue(8, random.Random(1), mean_pkt_size=500)
    if kind == "sfq":
        return SFQQueue(8, buckets=4)
    if kind == "taq":
        return TAQQueue(8, default_epoch=0.2)
    raise AssertionError(kind)


KINDS = ("droptail", "red", "sfq", "taq")


def drive(queue, arrivals: int = 300, flows: int = 8) -> int:
    """Offer *arrivals* packets with occasional service; returns count."""
    now = 0.0
    for i in range(arrivals):
        now += 0.01
        queue.enqueue(Packet(i % flows, DATA, seq=i // flows, size=500), now)
        if i % 7 == 6:
            queue.dequeue(now)
    return arrivals


@pytest.mark.parametrize("kind", KINDS)
def test_offered_load_invariant(kind):
    # Every offered packet ends up in exactly one column — enqueued or
    # dropped — even when it was first accepted and later pushed out.
    queue = make_queue(kind)
    offered = drive(queue)
    assert queue.dropped > 0, "test must exercise the drop path"
    assert queue.enqueued + queue.dropped == offered


@pytest.mark.parametrize("kind", KINDS)
def test_loss_rate_is_dropped_over_offered(kind):
    queue = make_queue(kind)
    drive(queue)
    offered = queue.enqueued + queue.dropped
    assert queue.loss_rate() == pytest.approx(queue.dropped / offered)
    assert 0.0 < queue.loss_rate() < 1.0


def test_loss_rate_zero_when_nothing_offered():
    assert DropTailQueue(4).loss_rate() == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_multiple_observers_called_in_registration_order(kind):
    queue = make_queue(kind)
    calls = []

    class Named(Observer):
        def __init__(self, name):
            self.name = name

        def dropped(self, queue, packet, now):
            calls.append(self.name)

    subscribe(queue, Named("first"))
    subscribe(queue, Named("second"))
    drive(queue)
    assert queue.dropped > 0
    # Each drop fans out to every subscriber, first-subscribed first, and
    # each drop (including push-out evictions) notifies exactly once.
    assert calls == ["first", "second"] * queue.dropped


def test_sfq_push_out_eviction_counted_once():
    queue = SFQQueue(2, buckets=4)
    log = DropLog(queue)
    for seq in range(3):
        assert queue.enqueue(Packet(seq, DATA, seq=seq, size=500), 0.1 * (seq + 1))
    # Three offered, one pushed out: 2 buffered + 1 dropped == 3.
    assert len(queue) == 2
    assert queue.dropped == 1
    assert queue.enqueued == 2
    assert len(log.drops) == 1
    assert queue.loss_rate() == pytest.approx(1 / 3)


def test_taq_push_out_eviction_counted_once():
    queue = TAQQueue(2, default_epoch=0.2)
    log = DropLog(queue)
    offered = 0
    now = 0.0
    for seq in range(40):
        now += 0.01
        queue.enqueue(Packet(seq % 4, DATA, seq=seq // 4, size=500), now)
        offered += 1
    assert queue.dropped == len(log.drops)
    assert queue.enqueued + queue.dropped == offered
