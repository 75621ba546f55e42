"""OpenMetrics export: rendering, parsing, validation, bundle round-trip."""

from __future__ import annotations

import pytest

from repro.obs.export import (
    OPENMETRICS_CONTENT_TYPE,
    Family,
    bundle_openmetrics,
    families_from_metrics_doc,
    parse_openmetrics,
    render_openmetrics,
    sanitize_name,
    validate_openmetrics,
)
from repro.obs.metrics import MetricsRegistry


def test_sanitize_name_maps_dotted_registry_names():
    assert sanitize_name("queue.drops") == "taq_queue_drops"
    assert sanitize_name("fluid.drop_pps.bulk0.r1") == "taq_fluid_drop_pps_bulk0_r1"
    assert sanitize_name("weird name!") == "taq_weird_name"
    assert sanitize_name("") == "taq_metric"


def test_render_basic_families():
    families = [
        Family("taq_jobs", "gauge", help="jobs by state")
        .add(3, {"state": "pending"})
        .add(1, {"state": "running"}),
        Family("taq_drops", "counter", help="total drops").add(42),
    ]
    text = render_openmetrics(families)
    assert text.endswith("# EOF\n")
    assert 'taq_jobs{state="pending"} 3' in text
    # Counters get the mandatory _total sample suffix.
    assert "taq_drops_total 42" in text
    assert "# TYPE taq_drops counter" in text


def test_render_escapes_label_values_and_formats_specials():
    fam = Family("taq_x", "gauge").add(
        float("nan"), {"k": 'a"b\\c\nd'}
    )
    text = render_openmetrics([fam])
    assert '\\"' in text and "\\\\" in text and "\\n" in text
    assert "NaN" in text


def test_parse_round_trips_rendered_output():
    families = [
        Family("taq_jobs", "gauge", help="jobs").add(3, {"state": "pending"}),
        Family("taq_hits", "counter").add(7, {"kind": "dir"}),
        Family("taq_run", "info").add(1, {"seed": "1"}),
    ]
    text = render_openmetrics(families)
    assert validate_openmetrics(text) == []
    parsed = parse_openmetrics(text)
    assert parsed["taq_jobs"]["type"] == "gauge"
    samples = parsed["taq_jobs"]["samples"]
    assert samples[0]["labels"] == {"state": "pending"}
    assert samples[0]["value"] == 3.0
    assert parsed["taq_hits"]["samples"][0]["suffix"] == "_total"


@pytest.mark.parametrize(
    "bad, problem",
    [
        ("taq_x 1\n# EOF\n", "no # TYPE"),
        ("# TYPE taq_x gauge\ntaq_x 1\n", "EOF"),
        ("# TYPE taq_x gauge\n# TYPE taq_x gauge\ntaq_x 1\n# EOF\n",
         "declared twice"),
        ("# TYPE taq_x counter\ntaq_x 1\n# EOF\n", "not allowed"),
    ],
)
def test_validate_flags_malformed_documents(bad, problem):
    problems = validate_openmetrics(bad)
    assert problems, f"expected problems for {bad!r}"
    assert any(problem in p for p in problems)


def test_families_from_metrics_doc_summarizes_histograms():
    registry = MetricsRegistry()
    hist = registry.histogram("queue.delay")
    for v in (1.0, 2.0, 3.0, 4.0):
        hist.observe(v)
    doc = {
        "counters": {"drops": 2},
        "histograms": {"queue.delay": registry.histograms["queue.delay"].summary()},
        "series": {},
    }
    text = render_openmetrics(families_from_metrics_doc(doc))
    assert validate_openmetrics(text) == []
    assert "taq_queue_delay_count 4" in text
    assert 'quantile="0.5"' in text


def test_bundle_openmetrics_round_trip(tmp_path):
    from repro.obs.telemetry import Telemetry

    out = tmp_path / "bundle"
    telemetry = Telemetry(str(out))
    telemetry.registry.counter("queue.drops").inc(9)
    telemetry.finalize(None, run_id="r1", seed=3, duration=1.0)
    text = bundle_openmetrics(str(out))
    assert validate_openmetrics(text) == []
    parsed = parse_openmetrics(text)
    info = parsed["taq_run"]["samples"][0]
    assert info["labels"]["run_id"] == "r1"
    assert info["labels"]["seed"] == "3"
    assert parsed["taq_queue_drops"]["samples"][0]["value"] == 9.0


def test_bundle_openmetrics_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        bundle_openmetrics(str(tmp_path / "nope"))


def test_content_type_constant():
    assert "openmetrics-text" in OPENMETRICS_CONTENT_TYPE
    assert "version=1.0.0" in OPENMETRICS_CONTENT_TYPE
