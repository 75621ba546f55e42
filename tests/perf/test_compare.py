"""The BENCH comparison: thresholds, overrides, rendering, verdicts."""

from __future__ import annotations

import pytest

from repro.perf.bench import BENCH_SCHEMA, BENCH_SCHEMA_VERSION
from repro.perf.compare import (
    compare_documents,
    parse_threshold_overrides,
    render_comparison,
    render_markdown,
)


def _document(rows, **counts):
    """*rows* maps a benchmark to its wall time; *counts* adds ``scale``,
    ``events`` and ``packets`` to every row (old documents have none)."""
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
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
    doc = _document({"a": 1.0, "b": 0.5})
    comparison = compare_documents(doc, doc)
    assert comparison.ok
    assert [d.name for d in comparison.deltas] == ["a", "b"]
    assert all(d.wall_delta == 0.0 for d in comparison.deltas)


def test_regression_beyond_threshold_fails():
    comparison = compare_documents(
        _document({"a": 1.0, "b": 1.0}),
        _document({"a": 1.6, "b": 1.1}),  # a: +60%, b: +10%
        threshold_pct=50.0,
    )
    assert not comparison.ok
    assert [d.name for d in comparison.regressions] == ["a"]
    assert comparison.deltas[0].wall_delta == pytest.approx(0.6)


def test_speedup_never_fails():
    comparison = compare_documents(
        _document({"a": 2.0}), _document({"a": 0.5}), threshold_pct=10.0
    )
    assert comparison.ok
    assert comparison.deltas[0].wall_delta == pytest.approx(-0.75)


def test_per_benchmark_override_loosens_and_tightens():
    baseline = _document({"micro": 0.01, "macro": 10.0})
    candidate = _document({"micro": 0.02, "macro": 11.0})  # +100%, +10%
    comparison = compare_documents(
        baseline, candidate, threshold_pct=50.0,
        per_benchmark_pct={"micro": 150.0, "macro": 5.0},
    )
    assert [d.name for d in comparison.regressions] == ["macro"]


def test_moved_counts_fail_exactly_whatever_the_clock_says():
    baseline = _document({"a": 1.0, "b": 1.0}, scale=1.0, events=1000, packets=500)
    same = _document({"a": 2.4, "b": 0.4}, scale=1.0, events=1000, packets=500)
    assert compare_documents(baseline, same, threshold_pct=150.0).ok
    doctored = _document({"a": 1.0, "b": 1.0}, scale=1.0, events=1000, packets=500)
    doctored["benchmarks"]["b"]["events"] = 1001
    comparison = compare_documents(baseline, doctored)
    assert not comparison.ok and comparison.regressions == []
    assert [d.name for d in comparison.moved] == ["b"]
    for text in (render_comparison(comparison), render_markdown(comparison)):
        assert "MOVED: events 1000 -> 1001" in text  # the row says which
        assert "1 benchmark(s) did different work" in text
        assert "OK" not in text


def test_counts_are_compared_at_equal_scale_only():
    baseline = _document({"a": 1.0}, scale=1.0, events=1000, packets=500)
    smaller = _document({"a": 0.1}, scale=0.1, events=100, packets=50)
    assert compare_documents(baseline, smaller).ok
    # And not at all against a document that does not record them.
    assert compare_documents(_document({"a": 1.0}), baseline).ok


def test_one_sided_benchmarks_reported_not_failed():
    comparison = compare_documents(
        _document({"a": 1.0, "old": 1.0}), _document({"a": 1.0, "new": 1.0})
    )
    assert comparison.ok
    assert comparison.only_in_baseline == ["old"]
    assert comparison.only_in_candidate == ["new"]
    text = render_comparison(comparison)
    assert "only in baseline" in text
    assert "only in candidate" in text


def test_render_verdicts():
    comparison = compare_documents(
        _document({"a": 1.0, "b": 1.0}), _document({"a": 3.0, "b": 1.0})
    )
    text = render_comparison(comparison)
    assert "REGRESSED" in text
    assert "FAIL: 1 regression(s): a" in text
    ok_text = render_comparison(compare_documents(_document({"b": 1.0}),
                                                  _document({"b": 1.0})))
    assert "OK: 1 benchmark(s) within thresholds" in ok_text


def test_render_markdown_table_and_verdicts():
    comparison = compare_documents(
        _document({"a": 1.0, "b": 1.0, "old": 1.0}),
        _document({"a": 3.0, "b": 1.0, "new": 1.0}),
    )
    text = render_markdown(comparison)
    lines = text.splitlines()
    # A well-formed GitHub table: header, separator, one row per
    # benchmark, with regressed rows bolded for the job summary.
    assert lines[0].startswith("| benchmark |")
    assert set(lines[1].strip("|").split("|")) <= {"---", "---:"}
    assert "| **a** |" in text and "**REGRESSED**" in text
    assert "| b |" in text
    assert "only in baseline" in text and "only in candidate" in text
    assert "**FAIL**: 1 regression(s): a" in text
    ok_text = render_markdown(compare_documents(_document({"b": 1.0}),
                                                _document({"b": 1.0})))
    assert "**OK**: 1 benchmark(s) within thresholds" in ok_text
    assert "REGRESSED" not in ok_text


def test_parse_threshold_overrides():
    assert parse_threshold_overrides(["a=10", "b=2.5"]) == {"a": 10.0, "b": 2.5}
    with pytest.raises(ValueError, match="NAME=PCT"):
        parse_threshold_overrides(["nonsense"])
    with pytest.raises(ValueError, match="must be a number"):
        parse_threshold_overrides(["a=fast"])
