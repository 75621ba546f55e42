"""The bundle on disk: one writer, one lazy reader, one header rule."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.build import ScenarioSpec, build_simulation
from repro.build.harness import manifest_payloads
from repro.obs import recording
from repro.obs.bundle import (
    EVENTS_NAME,
    MANIFEST_NAME,
    METRICS_NAME,
    SPANS_NAME,
    Bundle,
    bundle_dirs,
)
from repro.obs.diff import BEHAVIOR_SCHEMA_VERSION, behavior_summary
from repro.obs.export import bundle_openmetrics
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, load_manifest
from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry, load_metrics_jsonl
from repro.obs.report import run_report_payload
from repro.obs.spans import SPANS_SCHEMA_VERSION, load_spans
from repro.obs.telemetry import Telemetry
from repro.obs.trace import TRACE_SCHEMA_VERSION, load_events

SPEC = {
    "name": "bundle", "seed": 3, "duration": 8.0,
    "topology": {"capacity_bps": 300_000, "rtt": 0.1, "pkt_size": 200},
    "queue": {"kind": "taq"},
    "workloads": [{"type": "bulk", "n_flows": 4}],
}


@pytest.fixture(scope="module")
def full_bundle(tmp_path_factory):
    """A TAQ run's bundle with a SpanRecorder riding along, and the
    live telemetry and recorder that wrote it."""
    out = str(tmp_path_factory.mktemp("bundle") / "run")
    spec = ScenarioSpec.from_document(SPEC)
    with recording() as recorder:
        built = build_simulation(spec)
        telemetry = Telemetry(out, sample_interval=1.0, spans=recorder)
        telemetry.arm(built)
        built.run()
    telemetry.finalize(built.sim, run_id=spec.name, seed=spec.seed,
                       duration=spec.duration, **manifest_payloads(spec))
    return out, telemetry, recorder


def test_full_bundle_round_trips(full_bundle):
    out, telemetry, recorder = full_bundle
    assert sorted(os.listdir(out)) == sorted(
        [MANIFEST_NAME, METRICS_NAME, EVENTS_NAME, SPANS_NAME])
    bundle = Bundle(out)
    assert bundle.manifest == telemetry.manifest
    summary = telemetry.registry.summary()
    assert bundle.metrics["counters"] == summary["counters"]
    assert set(bundle.metrics["series"]) == set(summary["series"])
    assert [event.to_json() for event in bundle.events] == [
        event.to_json() for event in telemetry.trace.events]
    assert bundle.events, "the run recorded no events"
    assert [span.to_json() for span in bundle.spans] == [
        span.to_json() for span in recorder.spans]
    # The readers' own loaders agree with the bundle's parts.
    assert load_manifest(os.path.join(out, MANIFEST_NAME)) == bundle.manifest
    assert load_metrics_jsonl(os.path.join(out, METRICS_NAME)) == bundle.metrics
    assert bundle_dirs(os.path.dirname(out)) == [out]


def test_metrics_only_bundle(tmp_path):
    """A directory holding only a metrics file is a bundle: its other
    parts read as None and every reader takes it."""
    registry = MetricsRegistry()
    registry.counter("queue.dropped").inc(4)
    registry.time_series("queue.depth").append(1.0, 2.0)
    registry.write_jsonl(str(tmp_path / METRICS_NAME))
    bundle = Bundle(str(tmp_path))
    assert (bundle.manifest, bundle.events, bundle.spans) == (None, None, None)
    assert bundle.metrics["counters"] == {"queue.dropped": 4}
    assert bundle.metrics["series"] == {"queue.depth": [(1.0, 2.0)]}
    assert bundle_dirs(str(tmp_path)) == [str(tmp_path)]
    assert behavior_summary(str(tmp_path))["metrics"]["counter.queue.dropped"] == 4.0
    assert "taq_queue_dropped" in bundle_openmetrics(str(tmp_path))
    assert "manifest" not in run_report_payload(str(tmp_path))


def test_parts_load_on_first_access_only(full_bundle, tmp_path):
    """Reading spans never parses the event trace (``taq-obs flows``)."""
    out, _, _ = full_bundle
    for name in (MANIFEST_NAME, METRICS_NAME, SPANS_NAME):
        with open(os.path.join(out, name), encoding="utf-8") as src:
            (tmp_path / name).write_text(src.read(), encoding="utf-8")
    (tmp_path / EVENTS_NAME).write_text("not json\n", encoding="utf-8")
    bundle = Bundle(str(tmp_path))
    assert bundle.spans and bundle.metrics and bundle.manifest
    with pytest.raises(ValueError):
        bundle.events


def test_bundle_dirs_walks_a_tree_in_order(tmp_path):
    for rel in ("b/run", "a", "a/nested"):
        os.makedirs(tmp_path / rel)
        MetricsRegistry().write_jsonl(str(tmp_path / rel / METRICS_NAME))
    os.makedirs(tmp_path / "empty")
    assert bundle_dirs(str(tmp_path)) == [
        str(tmp_path / rel) for rel in ("a", "a/nested", "b/run")]
    assert bundle_dirs(str(tmp_path / "empty")) == []


# ----------------------------------------------------------------------
# One header rule over the five artifacts
# ----------------------------------------------------------------------
def _jsonl(schema, version, body):
    header = json.dumps({"type": "meta", "schema": schema, "version": version})
    return (header + "\n" if schema is not None else "") + body


def _load_jsonl(load):
    return lambda text, tmp_path: load(io.StringIO(text))


def _load_file(load):
    def read(text, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(text, encoding="utf-8")
        return load(str(path))

    return read


def _manifest(schema, version):
    doc = {"run_id": "r", "seed": 1}
    if schema is not None:
        doc.update(schema=schema, schema_version=version)
    return json.dumps(doc)


def _behavior(schema, version):
    # A behavior summary is told apart by its schema key alone, so its
    # headerless form keeps the schema and drops the version.
    doc = {"schema": "repro.obs.behavior", "metrics": {}, "manifests": {}}
    if schema is not None:
        doc.update(schema=schema, version=version)
    return json.dumps(doc)


#: artifact -> (schema, supported version, text for (schema, version),
#: its loader over that text).
ARTIFACTS = {
    "trace": ("repro.obs.trace", TRACE_SCHEMA_VERSION,
              lambda s, v: _jsonl(s, v, '{"t":1.0,"kind":"drop","flow":2}\n'),
              _load_jsonl(load_events)),
    "spans": ("repro.obs.spans", SPANS_SCHEMA_VERSION,
              lambda s, v: _jsonl(s, v, '{"id":0,"kind":"flow","t0":0.0}\n'),
              _load_jsonl(load_spans)),
    "metrics": ("repro.obs.metrics", METRICS_SCHEMA_VERSION,
                lambda s, v: _jsonl(s, v, '{"type":"counter","name":"c","value":1}\n'),
                _load_jsonl(load_metrics_jsonl)),
    "manifest": ("repro.obs.manifest", MANIFEST_SCHEMA_VERSION, _manifest,
                 _load_file(load_manifest)),
    "behavior": ("repro.obs.behavior", BEHAVIOR_SCHEMA_VERSION, _behavior,
                 _load_file(behavior_summary)),
}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_schema_header_rule(artifact, tmp_path):
    schema, supported, text, load = ARTIFACTS[artifact]
    assert load(text(schema, supported), tmp_path)
    assert load(text(None, None), tmp_path), "a missing header is tolerated"
    with pytest.raises(ValueError, match="not a"):
        load(text("somebody.else", supported), tmp_path)
    with pytest.raises(ValueError, match="newer than supported"):
        load(text(schema, supported + 1), tmp_path)
