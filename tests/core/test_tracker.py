"""Unit tests for the per-flow tracker, fed through a TAQ queue."""

import pytest

from repro.core.states import FlowState
from repro.net.packet import ACK, DATA, SYN, Packet
from tests.core.middlebox import Middlebox


def data(flow=1, seq=0, size=500):
    return Packet(flow, DATA, seq=seq, size=size)


def make_tracker(epoch=1.0):
    return Middlebox(default_epoch=epoch)


def test_new_flow_record_created_on_first_packet():
    tracker = make_tracker()
    tracker.observe_arrival(data(seq=0), 0.0)
    record = tracker.lookup(1)
    assert record is not None
    assert record.state == FlowState.SLOW_START


def test_retransmission_inferred_from_sequence():
    tracker = make_tracker()
    assert not tracker.observe_arrival(data(seq=0), 0.0)
    assert not tracker.observe_arrival(data(seq=1), 0.1)
    assert tracker.observe_arrival(data(seq=1), 0.2)   # repeat
    assert tracker.observe_arrival(data(seq=0), 0.3)   # older
    assert not tracker.observe_arrival(data(seq=2), 0.4)


def test_highest_seq_tracked():
    tracker = make_tracker()
    for seq in (0, 3, 1):
        tracker.observe_arrival(data(seq=seq), 0.0)
    assert tracker.lookup(1).highest_seq == 3


def test_epoch_rollover_shifts_counters():
    tracker = make_tracker(epoch=1.0)
    tracker.observe_arrival(data(seq=0), 0.0)
    tracker.observe_arrival(data(seq=1), 0.5)
    tracker.observe_arrival(data(seq=2), 1.2)  # rolls the epoch
    record = tracker.lookup(1)
    assert record.prev_new_packets == 2
    assert record.new_packets == 1


def test_silent_epochs_classify_timeout_states():
    tracker = make_tracker(epoch=1.0)
    tracker.observe_arrival(data(seq=0), 0.0)
    tracker.observe_drop(data(seq=1), 0.1)
    # Flow goes quiet for several epochs; state query rolls forward.
    assert tracker.state_of(1, 5.0) in (
        FlowState.TIMEOUT_SILENCE,
        FlowState.EXTENDED_SILENCE,
    )
    assert tracker.state_of(1, 9.0) == FlowState.EXTENDED_SILENCE


def test_drop_accounting():
    tracker = make_tracker()
    tracker.observe_arrival(data(seq=0), 0.0)
    tracker.observe_drop(data(seq=1), 0.1)
    record = tracker.lookup(1)
    assert record.drops == 1
    assert record.cumulative_drops == 1
    assert record.outstanding_drops >= 1


def test_observed_retransmission_reduces_outstanding_drops():
    tracker = make_tracker(epoch=10.0)
    tracker.observe_arrival(data(seq=0), 0.0)
    tracker.observe_arrival(data(seq=1), 0.1)
    tracker.observe_drop(data(seq=1), 0.1)
    before = tracker.lookup(1).outstanding_drops
    tracker.observe_arrival(data(seq=1), 0.5)  # the retransmission
    assert tracker.lookup(1).outstanding_drops == before - 1


def test_silence_seconds():
    tracker = make_tracker()
    tracker.observe_arrival(data(seq=0), 1.0)
    tracker.observe_arrival(data(seq=0), 4.0)  # its priority in the recovery queue
    assert -tracker.queue.scheduler._recovery[0][0] == pytest.approx(3.0)


def test_syn_feeds_epoch_estimator():
    tracker = make_tracker(epoch=1.0)
    tracker.observe_arrival(Packet(1, SYN), 0.0)
    tracker.observe_arrival(data(seq=0), 0.4)
    assert tracker.lookup(1).epoch_length == pytest.approx(0.4)


def test_ack_observation_feeds_estimator():
    tracker = make_tracker(epoch=1.0)
    tracker.observe_arrival(data(seq=0), 0.0)
    tracker.observe_ack(Packet(1, ACK, ack_seq=1), 0.25)
    assert tracker.lookup(1).epoch_length == pytest.approx(0.25)


def test_active_flow_census():
    tracker = make_tracker(epoch=0.1)
    tracker.observe_arrival(data(flow=1, seq=0), 0.0)
    tracker.observe_arrival(data(flow=2, seq=0), 9.8)
    # Flow 1 has been idle for ~100 epochs; only flow 2 is active.
    assert tracker.active_flows(10.0) == 1


def test_gc_evicts_stale_flows():
    tracker = Middlebox(default_epoch=0.1, idle_timeout=5.0)
    tracker.observe_arrival(data(flow=1, seq=0), 0.0)
    tracker.observe_arrival(data(flow=2, seq=0), 20.0)  # triggers GC
    assert tracker.lookup(1) is None
    assert tracker.lookup(2) is not None


def test_gc_drains_the_expiry_heap_when_nobody_queries_the_census():
    # An unattached queue (or classify_fair_share=False) never asks for
    # the census, so GC is the only thing that can retire heap entries.
    tracker = Middlebox(default_epoch=0.1, idle_timeout=5.0)
    for flow in range(2000):
        tracker.observe_arrival(data(flow=flow, seq=0), flow * 0.1)
    assert len(tracker.flows) <= 101  # ten seconds' worth at most
    assert len(tracker._expiry) <= len(tracker.flows)


def test_rate_estimate_tracks_throughput():
    tracker = make_tracker(epoch=1.0)
    # 2 x 500B per 1s epoch = 8 kbps steady.
    t = 0.0
    for epoch in range(8):
        for j in range(2):
            tracker.observe_arrival(data(seq=epoch * 2 + j, size=500), t)
            t += 0.4
        t = (epoch + 1) * 1.0
    record = tracker.lookup(1)
    record.roll_epochs(t)
    assert record.rate_bps == pytest.approx(8000, rel=0.2)


def test_dropped_bytes_removed_from_rate_basis():
    tracker = make_tracker(epoch=1.0)
    tracker.observe_arrival(data(seq=0), 0.0)
    tracker.observe_drop(data(seq=0), 0.0)
    assert tracker.lookup(1).bytes_forwarded == 0


def test_very_long_idle_gap_does_not_spin():
    tracker = make_tracker(epoch=0.01)
    tracker.observe_arrival(data(seq=0), 0.0)
    # 1e6 epochs later; roll_epochs must not iterate a million times.
    tracker.observe_arrival(data(seq=1), 10_000.0)
    assert tracker.lookup(1).new_packets >= 1
