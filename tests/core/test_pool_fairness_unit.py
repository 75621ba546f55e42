"""Unit tests for pool-granularity fair share and admission feedback."""

import pytest

from repro.core.admission import AdmissionController
from repro.core.fairshare import FairShareEstimator
from repro.net.packet import DATA, Packet
from tests.core.reference_taq import ReferenceTracker


def data(flow, seq=0, pool=-1):
    return Packet(flow, DATA, seq=seq, size=500, pool_id=pool)


# --------------------------------------------------- pool fair share
def make_pool_tracker():
    tracker = ReferenceTracker(default_epoch=1.0)
    # Pool 1: three flows; pool 2: one flow.
    for flow, pool in ((1, 1), (2, 1), (3, 1), (4, 2)):
        tracker.observe_arrival(data(flow, pool=pool), 0.0)
    return tracker


def test_pool_share_splits_by_pool_then_flow():
    tracker = make_pool_tracker()
    fs = FairShareEstimator(tracker, capacity_bps=120_000, granularity="pool")
    # 2 pools -> 60k each; pool 1 has 3 flows -> 20k per flow.
    assert fs.fair_share_bps(tracker.lookup(1), 0.0) == pytest.approx(20_000)
    assert fs.fair_share_bps(tracker.lookup(4), 0.0) == pytest.approx(60_000)


def test_flow_granularity_ignores_pools():
    tracker = make_pool_tracker()
    fs = FairShareEstimator(tracker, capacity_bps=120_000, granularity="flow")
    assert fs.fair_share_bps(tracker.lookup(1), 0.0) == pytest.approx(30_000)


def test_unpooled_flows_count_as_own_pool():
    tracker = ReferenceTracker(default_epoch=1.0)
    tracker.observe_arrival(data(1, pool=-1), 0.0)
    tracker.observe_arrival(data(2, pool=-1), 0.0)
    fs = FairShareEstimator(tracker, capacity_bps=100_000, granularity="pool")
    assert fs.fair_share_bps(tracker.lookup(1), 0.0) == pytest.approx(50_000)


def test_granularity_validated():
    with pytest.raises(ValueError):
        FairShareEstimator(ReferenceTracker(), granularity="session")


def test_taq_queue_accepts_granularity():
    from repro.core import TAQQueue

    queue = TAQQueue(capacity_pkts=10, fairness_granularity="pool")
    assert queue.fairshare.granularity == "pool"


# --------------------------------------------- admission wait feedback
def congest(controller):
    # Two consecutive 25%-loss windows push the smoothed estimate well
    # past p_thresh; the final arrival just rolls the second window in.
    for t in (0.0, controller.measure_interval + 0.1):
        for i in range(200):
            controller.note_arrival(t)
            if i % 4 == 0:
                controller.note_drop(t)
    controller.note_arrival(2 * controller.measure_interval + 0.3)


def test_expected_wait_zero_for_admitted_and_unpooled():
    ctrl = AdmissionController()
    assert ctrl.expected_wait(-1, 0.0) == 0.0
    ctrl.admits(1, 0.0)  # low loss: admitted
    assert ctrl.expected_wait(1, 0.0) == 0.0


def test_expected_wait_grows_with_queue_position():
    ctrl = AdmissionController(t_wait=3.0)
    congest(ctrl)
    for pool in (10, 11, 12):
        assert not ctrl.admits(pool, 5.0)
    w1 = ctrl.expected_wait(10, 5.0)
    w2 = ctrl.expected_wait(11, 5.0)
    w3 = ctrl.expected_wait(12, 5.0)
    assert w1 < w2 < w3
    assert w3 >= 2 * ctrl.t_wait


def test_queue_snapshot_fifo_order():
    ctrl = AdmissionController(t_wait=3.0)
    congest(ctrl)
    assert not ctrl.admits(7, 5.0)
    assert not ctrl.admits(8, 6.0)
    snapshot = ctrl.queue_snapshot(7.0)
    assert [row[0] for row in snapshot] == [7, 8]
    waited = [row[1] for row in snapshot]
    assert waited[0] == pytest.approx(2.0)
    assert waited[1] == pytest.approx(1.0)
    assert all(row[2] >= 0 for row in snapshot)


def test_expected_wait_honoured_by_force_admission():
    ctrl = AdmissionController(t_wait=2.0)
    congest(ctrl)
    assert not ctrl.admits(9, 5.0)
    promised = ctrl.expected_wait(9, 5.0)
    # Keep knocking after the promised wait: admission is granted.
    assert ctrl.admits(9, 5.0 + promised + 0.01)
