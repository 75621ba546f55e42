"""Tests of the assembled partial and full models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    build_full_model,
    build_partial_model,
    find_tipping_point,
    packets_sent_census,
    silence_probability,
    timeout_probability,
)

LOSS = st.floats(min_value=0.005, max_value=0.45)


def test_partial_model_states():
    chain = build_partial_model(0.1)
    assert set(chain.states) == {"S1", "b0", "b*", "S2", "S3", "S4", "S5", "S6"}


def test_full_model_states():
    chain = build_full_model(0.1)
    assert set(chain.states) == {
        "b0", "R1", "W2", "R2", "W3", "R3", "S2", "S3", "S4", "S5", "S6",
    }


def test_partial_rows_are_stochastic():
    build_partial_model(0.2).validate()


def test_full_rows_are_stochastic():
    build_full_model(0.2).validate()


def test_b_star_transitions_match_eqs_9_10():
    chain = build_partial_model(0.2)
    assert chain.transition("b*", "S1") == pytest.approx(0.6)
    assert chain.transition("b*", "b*") == pytest.approx(0.4)


def test_s1_recovers_to_s2_or_backs_off():
    chain = build_partial_model(0.3)
    assert chain.transition("S1", "S2") == pytest.approx(0.7)
    assert chain.transition("S1", "b*") == pytest.approx(0.3)


def test_simple_timeouts_route_through_b0():
    chain = build_partial_model(0.1)
    for n in (4, 5, 6):
        assert chain.transition(f"S{n}", "b0") > 0
        assert chain.transition(f"S{n}", "b*") == 0.0
    assert chain.transition("b0", "S1") == pytest.approx(1.0)


def test_small_windows_route_to_aggregate():
    chain = build_partial_model(0.1)
    for n in (2, 3):
        assert chain.transition(f"S{n}", "b*") > 0
        assert chain.transition(f"S{n}", "b0") == 0.0


def test_s2_s3_have_no_fast_retransmit_arcs():
    chain = build_partial_model(0.1)
    assert chain.transition("S2", "S1") == 0.0
    assert chain.transition("S3", "S1") == 0.0


def test_fast_retransmit_halves_window():
    chain = build_partial_model(0.1)
    assert chain.transition("S4", "S2") > 0
    assert chain.transition("S5", "S2") > 0
    assert chain.transition("S6", "S3") > 0


def test_zero_loss_flow_lives_at_wmax():
    pi = build_partial_model(0.0).stationary()
    assert pi["S6"] == pytest.approx(1.0, abs=1e-9)


@given(LOSS)
@settings(max_examples=60, deadline=None)
def test_property_census_is_distribution(p):
    census = packets_sent_census(build_partial_model(p))
    assert sum(census.values()) == pytest.approx(1.0, abs=1e-6)
    assert all(v >= -1e-12 for v in census.values())
    assert set(census) == set(range(0, 7))


@given(LOSS)
@settings(max_examples=60, deadline=None)
def test_property_full_census_is_distribution(p):
    census = packets_sent_census(build_full_model(p))
    assert sum(census.values()) == pytest.approx(1.0, abs=1e-6)


def test_timeout_probability_monotone_in_p():
    values = [timeout_probability(p) for p in (0.02, 0.05, 0.1, 0.2, 0.3, 0.4)]
    assert values == sorted(values)
    # Sharp rise through the tipping region.
    assert values[2] > 2.0 * values[0]


def test_silence_probability_monotone_in_p():
    values = [silence_probability(p) for p in (0.02, 0.05, 0.1, 0.2, 0.3, 0.4)]
    assert values == sorted(values)


def test_full_model_predicts_more_silence_than_partial():
    # The expanded ladder keeps repetitive-timeout flows silent longer.
    assert silence_probability(0.2, "full") > silence_probability(0.2, "partial")


def test_tipping_point_near_ten_percent():
    # §3.2/§4.3: the model's tipping point reads ~0.1.
    assert find_tipping_point("partial") == pytest.approx(0.1, abs=0.02)


def test_tipping_point_monotone_in_threshold():
    low = find_tipping_point("partial", threshold=0.2)
    high = find_tipping_point("partial", threshold=0.4)
    assert low < high


def test_wmax_extension():
    chain = build_partial_model(0.1, wmax=10)
    assert "S10" in chain.states
    census = packets_sent_census(chain)
    assert set(census) == set(range(0, 11))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        build_partial_model(0.6)
    with pytest.raises(ValueError):
        build_partial_model(-0.1)
    with pytest.raises(ValueError):
        build_partial_model(0.1, wmax=3)
    with pytest.raises(ValueError):
        timeout_probability(0.1, variant="bogus")


def test_high_loss_majority_silent():
    # Deep in the breakdown region most epochs transmit nothing.
    assert silence_probability(0.4, "partial") > 0.5
