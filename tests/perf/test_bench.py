"""The benchmark registry, runner and BENCH document round-trip.

The whole suite runs here at ``scale=0.02`` — fractions of a second —
so registration, determinism and the document schema are covered by the
default test run without benchmark-scale wall time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.perf.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    DEFAULT_BENCH_NAME,
    BenchCounts,
    Benchmark,
    bench_document,
    get_benchmark,
    load_bench,
    load_suite,
    run_benchmark,
    run_suite,
    write_bench,
)

SCALE = 0.02
#: What a document recorded by this interpreter says under ``python``.
PYTHON = "%d.%d" % sys.version_info[:2]


def test_suite_has_at_least_ten_benchmarks():
    registry = load_suite()
    assert len(registry) >= 10
    groups = {bench.group for bench in registry.values()}
    # Coverage spans every instrumented layer.
    assert {"sim", "queues", "tcp", "scenario", "parallel"} <= groups


def test_every_queue_discipline_has_a_saturation_benchmark():
    registry = load_suite()
    for kind in ("droptail", "red", "sfq", "favorqueue", "taq"):
        assert f"queue_{kind}_saturation" in registry


def test_unknown_benchmark_lists_known_names():
    load_suite()
    with pytest.raises(KeyError, match="event_heap_churn"):
        get_benchmark("no_such_benchmark")


def test_counts_are_deterministic_per_scale():
    bench = get_benchmark("queue_taq_saturation")
    first = bench.fn(SCALE)
    second = bench.fn(SCALE)
    assert (first.events, first.packets) == (second.events, second.packets)
    assert first.packets > 0


def test_run_benchmark_measures_and_scales():
    bench = get_benchmark("event_heap_churn")
    result = run_benchmark(bench, scale=SCALE)
    assert result.name == "event_heap_churn"
    assert result.scale == SCALE
    assert result.events > 0
    # Every event is at least its callback and the reschedule it makes.
    assert result.calls > 2 * result.events
    assert run_benchmark(bench, scale=2 * SCALE).calls > 1.5 * result.calls


def test_calls_do_not_depend_on_what_ran_before():
    """The warm-up's job.  Uncounted, a fresh interpreter's first TCP
    scenario also pays what the process pays once — 9 165 calls at this
    scale against 2 969 for the same benchmark run second."""
    code = ("import sys\n"
            "from repro.perf.bench import run_suite\n"
            f"print([r.calls for r in run_suite(sys.argv[1:], scale={SCALE})])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))

    def calls(*names):
        done = subprocess.run([sys.executable, "-c", code, *names], env=env,
                              check=True, capture_output=True, text=True)
        return json.loads(done.stdout)

    alone = calls("tcp_small_packets_taq")
    assert calls("tcp_small_packets_droptail", "tcp_small_packets_taq")[1:] == alone


def test_scenario_benchmarks_count_events_and_packets():
    result = run_benchmark(get_benchmark("tcp_small_packets_taq"), scale=SCALE)
    assert result.events > 0
    assert result.packets > 0


def test_run_suite_all_and_selection(tmp_path):
    results = run_suite(scale=SCALE)
    assert [r.name for r in results] == sorted(load_suite())
    only = run_suite(names=["event_heap_cancel"], scale=SCALE)
    assert [r.name for r in only] == ["event_heap_cancel"]


def test_bench_document_round_trip(tmp_path):
    results = run_suite(names=["event_heap_cancel", "queue_droptail_saturation"],
                        scale=SCALE)
    document = bench_document(results)
    assert document["schema"] == BENCH_SCHEMA
    assert document["schema_version"] == BENCH_SCHEMA_VERSION == 2
    # Nothing but what the tree and the interpreter's minor version decide.
    assert sorted(document) == ["benchmarks", "python", "schema", "schema_version"]
    assert document["python"] == PYTHON
    path = str(tmp_path / "bench.json")
    write_bench(document, path)
    loaded = load_bench(path)
    assert set(loaded["benchmarks"]) == {
        "event_heap_cancel", "queue_droptail_saturation"
    }
    assert sorted(loaded["benchmarks"]["event_heap_cancel"]) == [
        "calls", "events", "group", "name", "packets", "scale"]


def test_load_bench_rejects_wrong_schema_and_newer_version(tmp_path):
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"schema": "something.else"}))
    with pytest.raises(ValueError, match="not a BENCH document"):
        load_bench(str(other))
    newer = tmp_path / "newer.json"
    newer.write_text(json.dumps({
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION + 1,
        "benchmarks": {},
    }))
    with pytest.raises(ValueError, match="newer than supported"):
        load_bench(str(newer))


def test_duplicate_registration_rejected():
    load_suite()
    from repro.perf.bench import benchmark

    with pytest.raises(ValueError, match="duplicate"):
        benchmark("event_heap_churn")(lambda scale: BenchCounts())


def test_committed_baseline_matches_current_suite():
    """The BENCH document at the repo root is the committed baseline
    the CI perf job compares against — it must stay in step with the
    suite: the same names, and one live row re-run here (the full suite
    under the counter is CI's job)."""
    path = os.path.join(os.path.dirname(__file__), "..", "..", DEFAULT_BENCH_NAME)
    document = load_bench(path)
    assert set(document["benchmarks"]) == set(load_suite())
    row = document["benchmarks"]["queue_droptail_saturation"]
    live = run_benchmark(get_benchmark("queue_droptail_saturation"), row["scale"])
    assert (live.events, live.packets) == (row["events"], row["packets"])
    if document["python"] == PYTHON:
        assert live.calls == row["calls"]


def test_benchmark_dataclass_catches_registration_metadata():
    bench = get_benchmark("parallel_sweep")
    assert isinstance(bench, Benchmark)
    assert bench.group == "parallel"
    assert bench.description
