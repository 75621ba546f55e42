"""Unit and property tests for the Jain index and slice collector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.fairness import SliceGoodputCollector, jain_index
from repro.net.packet import ACK, DATA, Packet


def data(flow, size=500):
    return Packet(flow, DATA, seq=0, size=size)


def test_jain_equal_shares_is_one():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)


def test_jain_single_hog_is_one_over_n():
    assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)


def test_jain_empty_and_all_zero():
    assert jain_index([]) == 1.0
    assert jain_index([0, 0]) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50))
def test_property_jain_bounds(xs):
    j = jain_index(xs)
    assert 1.0 / len(xs) - 1e-9 <= j <= 1.0 + 1e-9 or j == 1.0  # all-zero -> 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=20),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_property_jain_scale_invariant(xs, k):
    assert jain_index(xs) == pytest.approx(jain_index([x * k for x in xs]))


def test_collector_buckets_by_slice():
    col = SliceGoodputCollector(slice_seconds=10.0)
    col.observe(data(1), 5.0)
    col.observe(data(1), 15.0)
    col.observe(data(2), 15.0)
    assert col.slice_indices() == [0, 1]
    assert col.slice_goodputs(0, [1, 2]) == [400.0, 0.0]  # 500B*8/10s
    assert col.slice_goodputs(1, [1, 2]) == [400.0, 400.0]


def test_collector_ignores_acks():
    col = SliceGoodputCollector(10.0)
    col.observe(Packet(1, ACK, ack_seq=1), 1.0)
    assert col.slice_indices() == []


def test_slice_jain_counts_silent_flows():
    col = SliceGoodputCollector(10.0)
    col.observe(data(1), 1.0)
    # Flow 2 exists in the population but got nothing.
    assert col.slice_jain(0, [1, 2]) == pytest.approx(0.5)


def test_long_term_jain_over_all_slices():
    col = SliceGoodputCollector(10.0)
    col.observe(data(1), 1.0)
    col.observe(data(2), 11.0)
    assert col.long_term_jain([1, 2]) == pytest.approx(1.0)


def test_mean_short_term_skips_warmup_and_tail():
    col = SliceGoodputCollector(10.0)
    col.observe(data(1), 5.0)    # warmup slice 0
    col.observe(data(1), 15.0)   # slice 1 (kept)
    col.observe(data(2), 15.0)
    col.observe(data(1), 25.0)   # tail slice 2 (trimmed)
    assert col.mean_short_term_jain([1, 2]) == pytest.approx(1.0)


def test_shut_out_fraction():
    col = SliceGoodputCollector(10.0)
    col.observe(data(1), 1.0)
    assert col.shut_out_fraction(0, [1, 2, 3, 4]) == pytest.approx(0.75)
    assert col.shut_out_fraction(0, []) == 0.0  # an empty population


def test_capture_share_top_heavy():
    col = SliceGoodputCollector(10.0)
    for i in range(80):
        col.observe(data(1), 1.0 + 0.01 * i)
    col.observe(data(2), 1.0)
    col.observe(data(3), 1.5)
    # Top 40% of 3 flows = 1 flow = flow 1 with 80/82 of the bytes.
    assert col.capture_share(0, [1, 2, 3]) == pytest.approx(80 / 82)
    assert col.capture_share(1, [1, 2, 3]) == 0.0  # a slice that carried nothing


def test_paper_2_3_census_from_live_simulation():
    """End to end: the §2.3 census read off the collector every run attaches."""
    from repro.build import build_simulation
    from repro.experiments.runner import dumbbell_spec
    from repro.workloads import spawn_bulk_flows

    built = build_simulation(dumbbell_spec("droptail", 600_000, rtt=0.2, seed=1))
    flows = spawn_bulk_flows(built.topology, 120, start_window=5.0, extra_rtt_max=0.1)
    built.sim.run(until=90.0)
    flow_ids = [f.flow_id for f in flows]
    slices = (1, 2, 3)  # the full 20 s slices from 20 s to 80 s
    shut_out = [built.collector.shut_out_fraction(i, flow_ids) for i in slices]
    capture = [built.collector.capture_share(i, flow_ids) for i in slices]
    # A visible fraction of flows is fully shut down per 20 s slice, and
    # the top 40% of flows take the bulk of the bytes (paper: ~30% and
    # >80% respectively at its scale).
    assert max(shut_out) > 0.05
    assert max(capture) > 0.6


def test_invalid_slice_width():
    with pytest.raises(ValueError):
        SliceGoodputCollector(0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.floats(min_value=0.0, max_value=50.0),
                          st.sampled_from([DATA, DATA, ACK]),
                          st.integers(min_value=40, max_value=1500)),
                max_size=60))
def test_property_observe_matches_setdefault_form(deliveries):
    # observe() keeps the current slice's table and adds a flow id only
    # on its first delivery in a slice; the plain setdefault / get form
    # must agree on every table, its insertion order and the flow set,
    # also when deliveries go back to an earlier slice.
    col = SliceGoodputCollector(slice_seconds=7.0)
    slices, flow_ids = {}, set()
    for flow, now, kind, size in deliveries:
        col.observe(Packet(flow, kind, seq=0, size=size), now)
        if kind == DATA:
            per_flow = slices.setdefault(int(now / 7.0), {})
            per_flow[flow] = per_flow.get(flow, 0) + size
            flow_ids.add(flow)
    assert col._slices == slices
    assert [list(t.items()) for t in col._slices.values()] == [
        list(t.items()) for t in slices.values()]
    assert col.flow_ids == flow_ids
