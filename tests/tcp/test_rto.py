"""Unit tests for the RFC 6298 RTO estimator."""

import pytest

from repro.tcp.rto import RtoEstimator


def test_first_sample_initializes_srtt_rttvar():
    est = RtoEstimator(min_rto=0.1)
    est.sample(0.4)
    assert est.srtt == pytest.approx(0.4)
    assert est.rttvar == pytest.approx(0.2)
    assert est.rto == pytest.approx(0.4 + 4 * 0.2)


def test_subsequent_samples_use_ewma():
    est = RtoEstimator(min_rto=0.01)
    est.sample(1.0)
    est.sample(1.0)
    # |SRTT - R| = 0 so RTTVAR shrinks by 3/4 each steady sample.
    assert est.rttvar == pytest.approx(0.5 * 0.75)
    assert est.srtt == pytest.approx(1.0)


def test_rto_clamped_to_min():
    est = RtoEstimator(min_rto=1.0)
    for _ in range(50):
        est.sample(0.01)
    assert est.rto == 1.0


def test_rto_clamped_to_max():
    est = RtoEstimator(min_rto=1.0, max_rto=60.0)
    est.sample(30.0)
    for _ in range(10):
        est.backoff()
    assert est.rto == 60.0


def test_backoff_doubles():
    est = RtoEstimator(min_rto=1.0, max_rto=1000.0)
    est.sample(1.0)
    base = est.rto
    est.backoff()
    assert est.rto == pytest.approx(2 * base)
    est.backoff()
    assert est.rto == pytest.approx(4 * base)


def test_new_sample_collapses_backoff():
    est = RtoEstimator(min_rto=0.1)
    est.sample(1.0)
    est.backoff()
    est.backoff()
    assert est.backoff_exponent == 2
    est.sample(1.0)
    assert est.backoff_exponent == 0


def test_backoff_exponent_capped():
    est = RtoEstimator(max_backoff=3)
    for _ in range(10):
        est.backoff()
    assert est.backoff_exponent == 3


def test_initial_rto_is_one_second_default():
    est = RtoEstimator(min_rto=0.2)
    # RFC 6298: before any sample the RTO is 1 second.
    assert est.rto == pytest.approx(1.0)


def test_negative_sample_rejected():
    est = RtoEstimator()
    with pytest.raises(ValueError):
        est.sample(-1.0)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        RtoEstimator(min_rto=2.0, max_rto=1.0)
    with pytest.raises(ValueError):
        RtoEstimator(min_rto=0.0)
