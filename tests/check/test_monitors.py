"""Unit tests for the individual invariant monitors."""

import pytest

from repro.build import build_simulation
from repro.check.monitors import (
    ClockMonitor,
    InvariantViolation,
    Monitor,
    QueueOccupancyMonitor,
    Violation,
)
from repro.check.suite import attach_monitors, run_checked
from repro.queues.droptail import DropTailQueue

from tests.check.conftest import make_spec


class FakeEvent:
    def __init__(self, time, seq):
        self.time = time
        self.seq = seq


# ---------------------------------------------------------------------------
# Base machinery


def test_mode_validation():
    with pytest.raises(ValueError):
        Monitor(mode="explode")


def test_raise_mode_raises_and_records():
    monitor = Monitor(mode="raise")
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.violate("broken", time=1.5, detail=42)
    assert excinfo.value.monitor == "monitor"
    assert excinfo.value.time == 1.5
    assert excinfo.value.context == {"detail": 42}
    assert len(monitor.violations) == 1


def test_collect_mode_accumulates_without_raising():
    monitor = Monitor(mode="collect")
    monitor.violate("first", time=1.0)
    monitor.violate("second", time=2.0)
    assert [v.message for v in monitor.violations] == ["first", "second"]


def test_violation_document_reprs_non_scalar_context():
    violation = Violation("m", "msg", 0.5, {"n": 3, "obj": object()})
    document = violation.to_document()
    assert document["context"]["n"] == 3
    assert document["context"]["obj"].startswith("<object")


# ---------------------------------------------------------------------------
# ClockMonitor


def test_clock_accepts_monotone_fifo_order():
    monitor = ClockMonitor()
    monitor.on_event(FakeEvent(1.0, 0), 0.0)
    monitor.on_event(FakeEvent(1.0, 1), 1.0)
    monitor.on_event(FakeEvent(2.0, 5), 1.0)
    assert monitor.violations == []


def test_clock_catches_time_regression():
    monitor = ClockMonitor()
    with pytest.raises(InvariantViolation, match="before the clock"):
        monitor.on_event(FakeEvent(0.5, 0), 1.0)


def test_clock_catches_fifo_tie_break_inversion():
    monitor = ClockMonitor()
    monitor.on_event(FakeEvent(1.0, 7), 1.0)
    with pytest.raises(InvariantViolation, match="FIFO"):
        monitor.on_event(FakeEvent(1.0, 3), 1.0)


# ---------------------------------------------------------------------------
# QueueOccupancyMonitor


def test_occupancy_within_bounds_is_silent():
    queue = DropTailQueue(4)
    monitor = QueueOccupancyMonitor(queue)
    monitor.on_event(None, 0.0)
    assert monitor.violations == []


def test_occupancy_overflow_is_caught():
    queue = DropTailQueue(2)
    queue._fifo.extend([object(), object(), object()])  # force overflow
    monitor = QueueOccupancyMonitor(queue, label="bottleneck")
    with pytest.raises(InvariantViolation, match="outside"):
        monitor.on_event(None, 1.0)
    assert monitor.max_seen == 3


# ---------------------------------------------------------------------------
# Scenario-level: clean runs stay silent, corrupted state is caught


def test_clean_run_is_violation_free_and_ledgers_move():
    built = build_simulation(make_spec())
    suite = run_checked(built)
    assert suite.violations == []
    conservation = suite.by_name("conservation")
    assert conservation.arrived > 0
    assert conservation.deliveries > 0


def test_tcp_monitor_catches_corrupted_cwnd():
    built = build_simulation(make_spec())
    suite = attach_monitors(built)
    built.run()
    legality = suite.by_name("tcp")
    sender = built.all_flows()[0].sender
    sender.cwnd = 0.25
    with pytest.raises(InvariantViolation, match="cwnd"):
        legality.check_sender(sender, built.sim.now)


def test_tcp_monitor_catches_window_pointer_disorder():
    built = build_simulation(make_spec())
    suite = attach_monitors(built)
    built.run()
    legality = suite.by_name("tcp")
    sender = built.all_flows()[0].sender
    sender.snd_next = sender.snd_una - 1
    with pytest.raises(InvariantViolation, match="window pointers"):
        legality.check_sender(sender, built.sim.now)


def test_tcp_monitor_catches_backoff_over_cap():
    built = build_simulation(make_spec())
    suite = attach_monitors(built)
    built.run()
    legality = suite.by_name("tcp")
    sender = built.all_flows()[0].sender
    sender.rto.backoff_exponent = sender.rto.max_backoff + 1
    with pytest.raises(InvariantViolation, match="backoff"):
        legality.check_sender(sender, built.sim.now)


def test_tcp_monitor_skips_pre_established_senders():
    built = build_simulation(make_spec())
    suite = attach_monitors(built)
    legality = suite.by_name("tcp")
    sender = built.all_flows()[0].sender
    assert sender.state != "established"
    sender.cwnd = 0.0  # illegal, but the flow has not started yet
    legality.check_sender(sender, 0.0)
    assert legality.violations == []
    sender.cwnd = 1.0


def test_taq_monitor_clean_then_catches_ledger_corruption():
    built = build_simulation(make_spec(queue={"kind": "taq+ac"}))
    suite = run_checked(built)
    assert suite.violations == []
    taq = suite.by_name("taq")
    built.queue.enqueued += 1  # corrupt the admit ledger
    with pytest.raises(InvariantViolation, match="admit ledger"):
        taq.on_event(None, built.sim.now)


def test_taq_monitor_catches_drop_ledger_corruption():
    built = build_simulation(make_spec(queue={"kind": "taq"}))
    suite = run_checked(built)
    taq = suite.by_name("taq")
    built.queue.dropped += 1
    with pytest.raises(InvariantViolation, match="drop ledger"):
        taq.on_event(None, built.sim.now)


def test_taq_monitor_rederives_the_activity_census_at_finalize():
    built = build_simulation(make_spec(queue={"kind": "taq"}))
    suite = attach_monitors(built)
    built.run()
    tracker = built.queue.tracker
    assert len(tracker.flows) > 1
    tracker._active += 1  # the incremental count drifts from the table
    with pytest.raises(InvariantViolation, match="activity census drifted"):
        suite.finalize()


def test_taq_monitor_catches_a_flow_counted_under_the_wrong_pool():
    built = build_simulation(make_spec(queue={"kind": "taq"}))
    suite = attach_monitors(built)
    built.run()
    tracker = built.queue.tracker
    per_pool = tracker.active_per_pool(built.sim.now)
    key = next(iter(per_pool))
    per_pool[key + 1000] = per_pool.pop(key)  # right total, wrong split
    with pytest.raises(InvariantViolation, match="activity census drifted"):
        suite.finalize()
