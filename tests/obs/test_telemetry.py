"""End-to-end telemetry: instrumented runs, bundles, reports.

Telemetry ON: the point still measures the same numbers, and the bundle
directory holds a loadable manifest + metrics + event trace.  That an
instrumented run is bit-identical to an uninstrumented one (probes
never touch the RNG or the event order) is pinned for every observer
family in ``tests/test_bit_identity.py``.
"""

import dataclasses
import os

import pytest

from repro.build import ScenarioSpec, build_simulation
from repro.experiments.sweeps import run_sweep_point
from repro.obs import (
    Telemetry,
    diff_manifests,
    load_manifest,
    load_metrics_jsonl,
    render_run_report,
)
from repro.obs.telemetry import EVENTS_NAME, MANIFEST_NAME, METRICS_NAME
from repro.obs.trace import load_events, summarize_events

POINT = dict(capacity_bps=200_000.0, fair_share_bps=20_000.0, duration=30.0)


@pytest.fixture(scope="module")
def taq_bundle(tmp_path_factory):
    """One instrumented TAQ point, shared across the module's tests."""
    out = tmp_path_factory.mktemp("telemetry")
    point = run_sweep_point("taq", telemetry_dir=str(out), **POINT)
    return point, point.telemetry["bundle_dir"]


def test_bundle_files_exist(taq_bundle):
    _, bundle_dir = taq_bundle
    for name in (MANIFEST_NAME, METRICS_NAME, EVENTS_NAME):
        assert os.path.exists(os.path.join(bundle_dir, name))


def test_manifest_round_trip_and_diff(taq_bundle):
    point, bundle_dir = taq_bundle
    manifest = load_manifest(os.path.join(bundle_dir, MANIFEST_NAME))
    assert manifest.seed == 1
    assert manifest.qdisc["kind"] == "taq"
    assert manifest.topology["capacity_bps"] == POINT["capacity_bps"]
    assert manifest.event_count > 0
    assert len(manifest.source_hash) == 64
    # The payload's manifest dict is the persisted manifest's asdict().
    assert point.telemetry["manifest"] == dataclasses.asdict(manifest)
    assert diff_manifests(manifest, manifest) == {}


def test_metrics_loadable_and_consistent(taq_bundle):
    point, bundle_dir = taq_bundle
    loaded = load_metrics_jsonl(os.path.join(bundle_dir, METRICS_NAME))
    counters = loaded["counters"]
    # The queue's own totals were imported at finalize time.
    assert counters["queue.dropped"] > 0
    assert counters["sim.events_processed"] > 0
    # Drop events in the trace equal the per-kind event counter.
    assert counters["event.drop"] == point.telemetry["summary"]["trace"][
        "events"
    ].get("drop", 0)
    # Gauge series were sampled on the sim clock every second.
    depth = loaded["series"]["queue.depth"]
    assert len(depth) == int(POINT["duration"])
    assert [t for t, _ in depth] == [float(i + 1) for i in range(len(depth))]


def test_trace_loadable_and_summary_matches_payload(taq_bundle):
    point, bundle_dir = taq_bundle
    with open(os.path.join(bundle_dir, EVENTS_NAME), encoding="utf-8") as handle:
        events = load_events(handle)
    summary = summarize_events(events)
    expected = dict(point.telemetry["summary"]["trace"])
    expected.pop("truncated")
    # JSON round-trips dict keys as strings; normalize before comparing.
    for key in ("drops_by_flow", "rto_by_flow", "max_backoff_by_flow"):
        expected[key] = {int(flow): count for flow, count in expected[key].items()}
    assert summary == expected


def test_report_renders(taq_bundle):
    _, bundle_dir = taq_bundle
    report = render_run_report(bundle_dir)
    assert "events:" in report
    assert "queue.depth" in report


def test_telemetry_summary_counts_emits():
    telemetry = Telemetry()
    telemetry.emit("drop", 1.0, flow_id=2, pkt="data", seq=0)
    telemetry.emit("drop", 2.0, flow_id=2, pkt="data", seq=1)
    telemetry.emit("rto", 3.0, flow_id=2, backoff=1, rto=2.0)
    summary = telemetry.summary()
    assert summary["trace"]["events"] == {"drop": 2, "rto": 1}
    assert summary["metrics"]["counters"]["event.drop"] == 2
    assert not summary["trace"]["truncated"]


def test_finalize_without_out_dir_stays_in_memory(tmp_path):
    telemetry = Telemetry()
    telemetry.emit("drop", 1.0, flow_id=1)
    manifest = telemetry.finalize(run_id="mem", seed=7, duration=5.0)
    assert manifest.seed == 7
    assert manifest.trace_events == 1
    assert not any(tmp_path.iterdir())


# ----------------------------------------------------------------------
# Flows spawned mid-run (web sessions) are followed like the rest
# ----------------------------------------------------------------------
WEB = {
    "name": "web-spawned", "seed": 3, "duration": 40.0,
    "topology": {"type": "dumbbell", "capacity_bps": 200_000, "rtt": 0.2},
    "queue": {"kind": "taq+ac", "p_thresh": 0.1, "t_wait": 3.0},
    "workloads": [
        {"type": "web", "n_users": 12, "objects_per_user": 4,
         "object_bytes": 8000, "connections": 2, "start_window": 10.0},
        {"type": "bulk", "n_flows": 2},
    ],
}


def test_every_sender_event_of_a_web_run_is_recorded():
    built = build_simulation(ScenarioSpec.from_document(WEB))
    at_arming = len(built.all_flows())
    first, second = Telemetry(), Telemetry()
    first.arm(built)
    second.arm(built)
    built.run()
    flows = built.all_flows()
    assert len(flows) >= 10 * at_arming  # most flows did not exist at arming
    stats = [flow.sender.stats for flow in flows]
    counters = first.registry.counters
    assert counters["event.rto"].value == sum(s.timeouts for s in stats) > 0
    assert counters["event.retransmit"].value == sum(s.retransmits for s in stats)
    # One flow_done per completed transfer, each flow's own.
    done = [e.flow_id for e in first.trace.events if e.kind == "flow_done"]
    completed = [f.flow_id for f in flows if f.size_segments is not None and f.done]
    assert sorted(done) == sorted(completed) and len(completed) > at_arming
    # A second bundle on the same run sees the same events.
    def seen(telemetry):
        return [(e.kind, e.time, e.flow_id, e.fields) for e in telemetry.trace.events]

    assert seen(first) == seen(second)


def test_flows_are_followed_only_when_flows_were_instrumented():
    built = build_simulation(ScenarioSpec.from_document(WEB))
    telemetry = Telemetry()
    telemetry.attach(built.sim)  # sampler only: no instrument_flows
    built.run()
    assert sum(f.sender.stats.timeouts for f in built.all_flows()) > 0
    assert "event.rto" not in telemetry.registry.counters
