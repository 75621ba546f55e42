"""Unit tests for the fair-share estimator."""

import pytest

from repro.core.fairshare import FairShareEstimator
from repro.core.scheduler import PacketClass
from repro.core.tracker import FlowTracker
from repro.net.packet import DATA, Packet
from tests.core.middlebox import Middlebox


def data(flow, seq, size=500):
    return Packet(flow, DATA, seq=seq, size=size)


def make(model="fair-queuing", capacity=100_000, epoch=1.0):
    tracker = Middlebox(default_epoch=epoch, fairness_model=model, capacity_bps=capacity)
    return tracker, tracker.queue.fairshare


def is_above_share(tracker, flow, seq, now):
    """Whether TAQ queues the flow's next packet as above its share."""
    return tracker.classify(data(flow, seq), now) is PacketClass.ABOVE_FAIR_SHARE


def test_equal_share_under_fair_queuing():
    tracker, fs = make()
    tracker.observe_arrival(data(1, 0), 0.0)
    tracker.observe_arrival(data(2, 0), 0.0)
    record = tracker.lookup(1)
    assert fs.fair_share_bps(record, 0.0) == pytest.approx(50_000)


def test_hog_is_above_share():
    tracker, fs = make(capacity=10_000)
    # Flow 1 pushes 4 x 500B per 1s epoch = 16 kbps against 5 kbps share.
    t = 0.0
    seq = 0
    for epoch in range(6):
        for _ in range(4):
            tracker.observe_arrival(data(1, seq), t)
            seq += 1
        tracker.observe_arrival(data(2, epoch), t)
        t = (epoch + 1) * 1.0
    assert is_above_share(tracker, 1, seq, t)


def test_quiet_flow_is_below_share():
    tracker, fs = make(capacity=10_000)
    t = 0.0
    for epoch in range(6):
        tracker.observe_arrival(data(1, epoch), t)
        tracker.observe_arrival(data(2, epoch), t)
        t = (epoch + 1) * 1.0
    # 4 kbps each against a 5 kbps share.
    assert not is_above_share(tracker, 1, 6, t)


def test_zero_capacity_never_above():
    tracker, fs = make(capacity=0)
    tracker.observe_arrival(data(1, 0), 0.0)
    assert not is_above_share(tracker, 1, 1, 0.0)


def test_proportional_model_favours_short_rtt():
    tracker, fs_prop = make(model="proportional", capacity=100_000)
    tracker.observe_arrival(data(1, 0), 0.0)
    tracker.observe_arrival(data(2, 0), 0.0)
    fast, slow = tracker.lookup(1), tracker.lookup(2)
    fast.estimator._feed(0.1)
    slow.estimator._feed(0.4)
    assert fs_prop.fair_share_bps(fast, 0.0) > fs_prop.fair_share_bps(slow, 0.0)


def test_proportional_shares_sum_to_capacity():
    tracker, fs = make(model="proportional", capacity=100_000)
    tracker.observe_arrival(data(1, 0), 0.0)
    tracker.observe_arrival(data(2, 0), 0.0)
    tracker.observe_arrival(data(3, 0), 0.0)
    total = sum(
        fs.fair_share_bps(tracker.lookup(f), 0.0) for f in (1, 2, 3)
    )
    assert total == pytest.approx(100_000)


def test_unknown_model_rejected():
    tracker = FlowTracker()
    with pytest.raises(ValueError):
        FairShareEstimator(tracker, model="bogus")
