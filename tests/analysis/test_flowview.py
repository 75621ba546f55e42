"""Tests for per-flow trace analysis (the §2.3 pcap census)."""

import pytest

from repro.analysis import (
    bandwidth_capture,
    build_timelines,
    shut_down_fraction,
    silence_periods,
    slice_census,
)
from repro.analysis.trace import TraceRecord


def record(time, flow, retransmit=False):
    return TraceRecord(time, flow, "data", 0, 500, retransmit)


def test_build_timelines_groups_and_sorts():
    records = [record(2.0, 1), record(1.0, 1), record(0.5, 2, retransmit=True)]
    timelines = build_timelines(records)
    assert timelines[1].times == [1.0, 2.0]
    assert timelines[1].total_bytes == 1000
    assert timelines[2].retransmissions == 1


def test_silence_periods():
    timelines = build_timelines(
        [record(t, 1) for t in (0.0, 0.1, 5.0, 5.1, 20.0)]
    )
    gaps = silence_periods(timelines[1], threshold=2.0)
    assert gaps == [(0.1, 5.0), (5.1, 20.0)]


def test_shut_down_fraction_counts_only_alive_flows():
    timelines = build_timelines(
        # Flow 1 active in the slice; flow 2 alive but silent inside it;
        # flow 3 finished long before the slice (not counted).
        [record(12.0, 1), record(5.0, 2), record(30.0, 2), record(1.0, 3)]
    )
    assert shut_down_fraction(timelines, 10.0, 20.0) == pytest.approx(0.5)


def test_shut_down_fraction_empty():
    assert shut_down_fraction({}, 0.0, 10.0) == 0.0


def test_bandwidth_capture_top_heavy():
    records = [record(1.0 + 0.01 * i, 1) for i in range(80)]
    records += [record(1.0, 2), record(1.5, 3)]
    timelines = build_timelines(records)
    # Top 40% of 3 flows = 1 flow = flow 1 with 80/82 of the packets.
    share = bandwidth_capture(timelines, 0.0, 10.0, top_fraction=0.4)
    assert share == pytest.approx(80 / 82)


def test_slice_census_rows():
    records = [record(t, 1) for t in (1.0, 11.0, 21.0)]
    records += [record(1.0, 2), record(25.0, 2)]  # silent in middle slice
    timelines = build_timelines(records)
    rows = slice_census(timelines, 10.0, 0.0, 30.0)
    assert len(rows) == 3
    starts = [r[0] for r in rows]
    assert starts == [0.0, 10.0, 20.0]
    # Middle slice: flow 2 alive but silent -> 50% shut down.
    assert rows[1][1] == pytest.approx(0.5)


def test_paper_2_3_census_from_live_simulation():
    """End to end: the §2.3 claim measured from an actual trace."""
    from repro.analysis import PacketTraceRecorder
    from repro.build import build_simulation
    from repro.experiments.runner import dumbbell_spec
    from repro.workloads import spawn_bulk_flows

    bench = build_simulation(dumbbell_spec("droptail", 600_000, rtt=0.2, seed=1))
    recorder = PacketTraceRecorder()
    bench.topology.forward.add_delivery_tap(recorder.observe)
    spawn_bulk_flows(bench.topology, 120, start_window=5.0, extra_rtt_max=0.1)
    bench.sim.run(until=90.0)
    timelines = build_timelines(recorder.records)
    rows = slice_census(timelines, 20.0, 20.0, 80.0)
    shut_down = [row[1] for row in rows]
    capture = [row[2] for row in rows]
    # A visible fraction of flows is fully shut down per 20 s slice, and
    # the top 40% of flows take the bulk of the bytes (paper: ~30% and
    # >80% respectively at its scale).
    assert max(shut_down) > 0.05
    assert max(capture) > 0.6
