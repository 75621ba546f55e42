"""Unit tests for flow-pool admission control."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionController


def low_loss(controller, now=0.0):
    """Feed an interval of ~2% loss."""
    for i in range(100):
        controller.note_arrival(now)
        if i % 50 == 0:
            controller.note_drop(now)
    controller.note_arrival(now + controller.measure_interval + 0.01)


def high_loss(controller, now=0.0, rate=0.3, n=200):
    for i in range(n):
        controller.note_arrival(now)
        if i % int(1 / rate) == 0:
            controller.note_drop(now)
    controller.note_arrival(now + controller.measure_interval + 0.01)


def test_pool_admitted_under_low_loss():
    ctrl = AdmissionController()
    low_loss(ctrl)
    assert ctrl.admits(1, 1.0)


def test_unpooled_traffic_always_admitted():
    ctrl = AdmissionController()
    high_loss(ctrl)
    high_loss(ctrl, now=3.0)
    assert ctrl.admits(-1, 5.0)


def test_new_pool_refused_under_high_loss():
    ctrl = AdmissionController()
    high_loss(ctrl)
    high_loss(ctrl, now=3.0)
    assert ctrl.loss_rate > ctrl.p_thresh
    assert not ctrl.admits(1, 5.0)
    assert ctrl.refused == 1


def test_admitted_pool_stays_admitted_under_high_loss():
    ctrl = AdmissionController()
    low_loss(ctrl)
    assert ctrl.admits(1, 1.0)
    high_loss(ctrl, now=3.0)
    high_loss(ctrl, now=6.0)
    assert ctrl.admits(1, 8.0)


def test_flows_of_same_pool_share_admission():
    ctrl = AdmissionController()
    low_loss(ctrl)
    assert ctrl.admits(7, 1.0)
    high_loss(ctrl, now=3.0)
    high_loss(ctrl, now=6.0)
    # Another connection of the already-admitted pool 7.
    assert ctrl.admits(7, 8.0)
    # A different pool is refused.
    assert not ctrl.admits(8, 8.0)


def test_t_wait_guarantees_admission():
    ctrl = AdmissionController(t_wait=3.0)
    high_loss(ctrl)
    high_loss(ctrl, now=3.0)
    assert not ctrl.admits(1, 5.0)
    assert not ctrl.admits(1, 6.0)
    assert ctrl.admits(1, 5.0 + 3.0)
    assert ctrl.force_admitted == 1


def test_loss_rate_is_smoothed():
    ctrl = AdmissionController(measure_interval=1.0)
    high_loss(ctrl, rate=0.4)
    first = ctrl.loss_rate
    # One quiet interval must not reset the estimate to zero.
    for _ in range(50):
        ctrl.note_arrival(2.0)
    ctrl.note_arrival(3.1)
    assert ctrl.loss_rate > first / 4


def test_idle_pools_forgotten():
    ctrl = AdmissionController(pool_idle_timeout=10.0)
    low_loss(ctrl)
    assert ctrl.admits(1, 1.0)
    high_loss(ctrl, now=3.0)
    high_loss(ctrl, now=6.0)
    # Pool 1 idle for > timeout: it must re-apply, and loss is high now.
    assert not ctrl.admits(1, 50.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        AdmissionController(p_thresh=0.0)
    with pytest.raises(ValueError):
        AdmissionController(p_thresh=1.5)


def full_scan_gc(controller, now):
    """What ``_gc`` computed before it stopped at the first live pool:
    every admitted pool idle past the timeout, wherever it sits."""
    for pool in [pool for pool, last in controller.admitted.items()
                 if now - last > controller.pool_idle_timeout]:
        del controller.admitted[pool]


class FullScanController(AdmissionController):
    def _gc(self, now):
        full_scan_gc(self, now)


_steps = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=12),  # pool (-1: unpooled)
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0),
                  st.floats(min_value=5.0, max_value=25.0)),  # idle gap
        st.booleans(),  # a lossy measurement interval first
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(_steps, st.sampled_from([0.5, 2.0, 10.0]))
def test_prefix_gc_keeps_what_the_full_scan_keeps(steps, timeout):
    kwargs = dict(pool_idle_timeout=timeout, t_wait=1.0, measure_interval=1.0)
    fast, reference = AdmissionController(**kwargs), FullScanController(**kwargs)
    now = 0.0
    for pool, gap, lossy in steps:
        now += gap
        for controller in (fast, reference):
            controller.note_arrival(now)
            if lossy:
                controller.note_drop(now)
        assert fast.admits(pool, now) == reference.admits(pool, now)
        assert fast.admitted == reference.admitted
        assert list(fast.admitted.values()) == sorted(fast.admitted.values())
        assert fast.waiting == reference.waiting
