"""RunManifest v4: timing + backend fields, schema compatibility."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.obs import load_manifest
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, RunManifest, build_manifest


def test_schema_is_v4():
    assert MANIFEST_SCHEMA_VERSION == 4


def test_backend_defaults_to_packet():
    manifest = build_manifest("run-b", 7)
    assert manifest.backend == {"kind": "packet"}
    fluid = build_manifest("run-f", 7, backend={"kind": "fluid"})
    assert fluid.backend == {"kind": "fluid"}


def test_build_manifest_autofills_peak_rss_and_source():
    manifest = build_manifest("run-a", 7, wall_time_s=1.5)
    assert manifest.schema_version == 4
    assert manifest.wall_time_s == 1.5
    assert manifest.peak_rss_bytes > 0  # read from the live process
    assert len(manifest.source_hash) == 64
    explicit = build_manifest("run-b", 7, peak_rss_bytes=12345)
    assert explicit.peak_rss_bytes == 12345


def test_round_trip_preserves_timing_fields(tmp_path):
    manifest = build_manifest("run-rt", 3, duration=10.0, wall_time_s=2.25)
    path = str(tmp_path / "manifest.json")
    manifest.write(path)
    loaded = load_manifest(path)
    assert loaded == manifest
    assert loaded.wall_time_s == 2.25
    assert loaded.peak_rss_bytes == manifest.peak_rss_bytes


def test_load_manifest_accepts_v2_documents(tmp_path):
    """Bundles written before this schema bump (no wall_time_s /
    peak_rss_bytes, or no peak_rss_bytes only) must keep loading, with
    the missing fields at their zero defaults."""
    v2 = {
        "schema": "repro.obs.manifest",
        "schema_version": 2,
        "run_id": "old-run",
        "seed": 5,
        "topology": {"capacity_bps": 200000.0},
        "qdisc": {"kind": "taq"},
        "scenario": {},
        "duration": 30.0,
        "event_count": 1000,
        "trace_events": 50,
        "sample_interval": 1.0,
        "source_hash": "ab" * 32,
        "created_unix": 1700000000.0,
    }
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(v2))
    manifest = load_manifest(str(path))
    assert manifest.run_id == "old-run"
    assert manifest.schema_version == 2
    assert manifest.peak_rss_bytes == 0
    assert manifest.wall_time_s == 0.0
    assert manifest.event_count == 1000
    # Pre-v4 bundles carry no backend field: packet by definition.
    assert manifest.backend == {"kind": "packet"}


def test_load_manifest_rejects_newer_schema(tmp_path):
    doc = {
        "schema": "repro.obs.manifest",
        "schema_version": MANIFEST_SCHEMA_VERSION + 1,
        "run_id": "future",
        "seed": 1,
    }
    path = tmp_path / "future.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="newer than supported"):
        load_manifest(str(path))


def test_manifest_json_payload_shape():
    manifest = build_manifest("run-j", 2)
    payload = json.loads(manifest.to_json())
    assert payload["schema"] == "repro.obs.manifest"
    for key in ("wall_time_s", "peak_rss_bytes", "schema_version"):
        assert key in payload
    assert set(payload) == {"schema"} | {
        f.name for f in dataclasses.fields(RunManifest)
    }


def test_to_json_and_to_dict_are_what_asdict_made():
    """Built field by field, not by ``dataclasses.asdict``: the same
    bytes, an equal dict in the same order, and copies all the way
    down, for a manifest carrying a nested scenario document."""
    from repro.build.harness import manifest_payloads
    from repro.build.spec import WorkloadSpec
    from repro.experiments.runner import dumbbell_spec

    spec = dumbbell_spec("taq", 200_000.0, duration=5.0, workloads=[
        WorkloadSpec(kind="bulk", params={"flows": 4})])
    manifest = build_manifest("run-n", 5, **manifest_payloads(spec))
    assert manifest.scenario["workloads"]
    expected = dataclasses.asdict(manifest)
    assert manifest.to_json() == json.dumps(
        {"schema": "repro.obs.manifest", **expected}, indent=2, sort_keys=True)
    copied = manifest.to_dict()
    assert copied == expected and list(copied) == list(expected)
    assert pickle.dumps(copied) == pickle.dumps(expected)
    scenario = copied["scenario"]
    assert scenario is not manifest.scenario
    assert scenario["workloads"] is not manifest.scenario["workloads"]
    assert scenario["workloads"][0] is not manifest.scenario["workloads"][0]
