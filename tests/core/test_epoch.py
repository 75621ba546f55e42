"""Unit tests for middlebox epoch estimation."""

import pytest

from tests.core.reference_taq import ReferenceEstimator


def test_default_estimate_before_signal():
    est = ReferenceEstimator(default_epoch=0.3)
    assert est.estimate == 0.3


def test_syn_to_first_data_bootstraps_one_way_estimate():
    est = ReferenceEstimator(default_epoch=1.0)
    est.observe_syn(10.0)
    est.observe_data(0, 10.25)
    assert est.estimate == pytest.approx(0.25)


def test_two_way_ack_matching_samples_rtt():
    est = ReferenceEstimator(default_epoch=1.0)
    est.observe_data(0, 0.0)
    est.observe_ack(1, 0.2)  # acks segment 0
    assert est.estimate == pytest.approx(0.2)


def test_ack_matches_newest_covered_segment():
    est = ReferenceEstimator(default_epoch=1.0)
    est.observe_data(0, 0.0)
    est.observe_data(1, 0.3)
    est.observe_ack(2, 0.5)  # covers both; newest (seq 1) gives 0.2
    assert est.estimate == pytest.approx(0.2)


def test_moving_average_damps_outliers():
    est = ReferenceEstimator(default_epoch=1.0, alpha=0.25)
    est.observe_data(0, 0.0)
    est.observe_ack(1, 0.2)
    est.observe_data(1, 1.0)
    est.observe_ack(2, 2.0)  # 1.0s outlier
    assert 0.2 < est.estimate < 0.5


def test_estimate_clamped():
    est = ReferenceEstimator(default_epoch=1.0, min_epoch=0.05, max_epoch=2.0)
    est.observe_data(0, 0.0)
    est.observe_ack(1, 100.0)
    assert est.estimate == 2.0


def test_burst_gap_revises_one_way_estimate():
    # No SYN observed (pure one-way, mid-flow): burst spacing drives the
    # estimate from the small default toward the true 0.5 s epoch.
    est = ReferenceEstimator(default_epoch=0.1, alpha=1.0)
    for start in (1.0, 1.5, 2.0):
        est.observe_data(int(start * 10), start)
        est.observe_data(int(start * 10) + 1, start + 0.01)
    assert est.estimate == pytest.approx(0.5, rel=0.2)


def test_ack_without_pending_data_is_harmless():
    est = ReferenceEstimator()
    est.observe_ack(5, 1.0)
    assert est.samples == 0


def test_pending_table_bounded():
    est = ReferenceEstimator()
    for seq in range(1000):
        est.observe_data(seq, seq * 0.001)
    assert len(est._pending) <= 64
