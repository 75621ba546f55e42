"""The BENCH comparison: an exact gate on counts, in both directions."""

from __future__ import annotations

import os

from repro.perf.bench import (
    BENCH_SCHEMA,
    DEFAULT_BENCH_NAME,
    compare_documents,
    load_bench,
    render_comparison,
)

HERE = os.path.dirname(__file__)


def _document(rows, python="3.11", scale=1.0):
    """A v2 document: *rows* maps a benchmark to ``(events, packets, calls)``."""
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": 2,
        "python": python,
        "benchmarks": {
            name: {"scale": scale, "events": events, "packets": packets,
                   "calls": calls}
            for name, (events, packets, calls) in rows.items()
        },
    }


def _v1_document(rows, **counts):
    """A v1 document: *rows* maps a benchmark to its wall time; *counts*
    adds ``scale``, ``events`` and ``packets`` to every row."""
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": 1,
        "python": "3.11.7",
        "benchmarks": {
            name: {
                "wall_time_s": wall,
                "events_per_sec": 1000.0 / wall,
                "packets_per_sec": 500.0 / wall,
                "peak_rss_bytes": 1 << 20,
                **counts,
            }
            for name, wall in rows.items()
        },
    }


def test_identical_documents_pass():
    doc = _document({"a": (1000, 500, 4000), "b": (10, 0, 70)})
    comparison = compare_documents(doc, doc)
    assert comparison.ok
    assert [d.name for d in comparison.deltas] == ["a", "b"]
    assert all(d.compared == ["events", "packets", "calls"] and d.verdict == "ok"
               for d in comparison.deltas)


def test_a_moved_call_count_fails():
    comparison = compare_documents(
        _document({"a": (1000, 500, 500150), "b": (10, 0, 70)}),
        _document({"a": (1000, 500, 500162), "b": (10, 0, 70)}),
    )
    assert not comparison.ok
    assert [d.name for d in comparison.moved] == ["a"]
    assert comparison.moved[0].moved == ["calls 500150 -> 500162"]


def test_a_lower_count_fails_too():
    """A PR that lowers a count re-records the file, as it would a golden."""
    comparison = compare_documents(
        _document({"a": (1000, 500, 4000)}), _document({"a": (1000, 500, 3999)})
    )
    assert not comparison.ok
    assert comparison.moved[0].moved == ["calls 4000 -> 3999"]


def test_calls_under_another_python_are_reported_not_gated():
    baseline = _document({"a": (1000, 500, 4000)}, python="3.11")
    other = _document({"a": (1000, 500, 4100)}, python="3.12")
    comparison = compare_documents(baseline, other)
    assert comparison.ok
    assert comparison.deltas[0].compared == ["events", "packets"]
    assert "calls 4000 vs 4100 not gated: python 3.11 vs 3.12" in render_comparison(comparison)
    # What the simulator did is gated whatever interprets it.
    other["benchmarks"]["a"]["packets"] = 501
    assert not compare_documents(baseline, other).ok


def test_moved_counts_fail_exactly_whatever_the_clock_says():
    """A v1 pair — rows with wall times and no ``calls`` — is held to
    ``events`` and ``packets``; the clock fields gate nothing."""
    baseline = _v1_document({"a": 1.0, "b": 1.0}, scale=1.0, events=1000, packets=500)
    same = _v1_document({"a": 2.4, "b": 0.4}, scale=1.0, events=1000, packets=500)
    assert compare_documents(baseline, same).ok
    doctored = _v1_document({"a": 1.0, "b": 1.0}, scale=1.0, events=1000, packets=500)
    doctored["benchmarks"]["b"]["events"] = 1001
    comparison = compare_documents(baseline, doctored)
    assert not comparison.ok
    assert [d.name for d in comparison.moved] == ["b"]
    text = render_comparison(comparison)
    assert "MOVED: events 1000 -> 1001" in text  # the row says which
    assert "FAIL: 1 benchmark(s) moved" in text
    assert "OK" not in text


def test_a_v1_baseline_gates_events_and_packets_of_a_v2_candidate():
    baseline = _v1_document({"a": 1.0}, scale=1.0, events=1000, packets=500)
    comparison = compare_documents(baseline, _document({"a": (1000, 500, 4000)}))
    assert comparison.ok
    assert comparison.deltas[0].compared == ["events", "packets"]
    assert not compare_documents(baseline, _document({"a": (1000, 499, 4000)})).ok


def test_a_v1_fixture_compares_clean_against_the_committed_baseline():
    """Three rows cut from ``BENCH_15.json``, the last v1 baseline: the
    document that replaced it may not have moved what the simulator does."""
    fixture = load_bench(os.path.join(HERE, "fixtures", "bench_v1.json"))
    committed = load_bench(os.path.join(HERE, "..", "..", DEFAULT_BENCH_NAME))
    assert fixture["schema_version"] == 1
    comparison = compare_documents(fixture, committed)
    assert comparison.ok
    assert [d.compared for d in comparison.compared] == [["events", "packets"]] * 3


def test_counts_are_compared_at_equal_scale_only():
    baseline = _document({"a": (1000, 500, 4000), "b": (10, 0, 70)})
    smaller = _document({"a": (100, 50, 400)}, scale=0.1)
    smaller["benchmarks"]["b"] = baseline["benchmarks"]["b"]
    comparison = compare_documents(baseline, smaller)
    assert comparison.ok
    assert [d.name for d in comparison.compared] == ["b"]
    assert "not compared: scale 1.0 vs 0.1" in render_comparison(comparison)


def test_a_comparison_that_compared_nothing_fails():
    baseline = _document({"a": (1000, 500, 4000)})
    for other in (_document({"a": (100, 50, 400)}, scale=0.1),
                  _document({"b": (1000, 500, 4000)})):
        comparison = compare_documents(baseline, other)
        assert not comparison.ok and comparison.moved == []
        assert "FAIL: nothing compared" in render_comparison(comparison)


def test_one_sided_benchmarks_reported_not_failed():
    row = (1000, 500, 4000)
    comparison = compare_documents(
        _document({"a": row, "old": row}), _document({"a": row, "new": row})
    )
    assert comparison.ok
    assert [(d.name, d.note) for d in comparison.deltas if not d.compared] == [
        ("new", "only in candidate (skipped)"), ("old", "only in baseline (skipped)")]
    text = render_comparison(comparison)
    assert "only in baseline" in text
    assert "only in candidate" in text


def test_render_verdicts():
    comparison = compare_documents(
        _document({"a": (1000, 500, 4000), "b": (10, 0, 70)}),
        _document({"a": (1001, 500, 4004), "b": (10, 0, 70)}),
    )
    text = render_comparison(comparison)
    assert "MOVED: events 1000 -> 1001, calls 4000 -> 4004" in text
    assert "FAIL: 1 benchmark(s) moved, up or down" in text and text.endswith(": a")
    ok_text = render_comparison(compare_documents(_document({"b": (10, 0, 70)}),
                                                  _document({"b": (10, 0, 70)})))
    assert "OK: 1 benchmark(s), every compared count equal" in ok_text
