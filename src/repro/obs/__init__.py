"""repro.obs — the unified telemetry layer.

One subsystem for *seeing inside a run*: a metrics registry of named
counters/gauges/histograms, a sim-clock sampler turning gauges into
time series, a schema-versioned structured event trace (drops,
retransmits, RTO firings, TAQ verdicts, flow state transitions), and a
run manifest recording provenance (seed, parameters, source hash).

Everything is opt-in and zero-overhead when off: components carry one
``obs`` slot that defaults to ``None`` (:mod:`repro.sim.observe`) and
observer hooks that default to empty, so an uninstrumented run executes
byte-for-byte the same simulation.  See ``docs/observability.md``.
"""

from importlib import import_module

#: Where each name lives: imported on first use (docs/performance.md,
#: *Cold start*).
_SOURCES = {
    "BehaviorDiff": "repro.obs.diff",
    "Counter": "repro.obs.metrics",
    "EventTrace": "repro.obs.trace",
    "Family": "repro.obs.export",
    "OPENMETRICS_CONTENT_TYPE": "repro.obs.export",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "LogHistogram": "repro.obs.streamstats",
    "MANIFEST_SCHEMA_VERSION": "repro.obs.manifest",
    "METRICS_SCHEMA_VERSION": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "RunManifest": "repro.obs.manifest",
    "Sampler": "repro.obs.sampler",
    "Span": "repro.obs.spans",
    "SpanRecorder": "repro.obs.spans",
    "SPANS_SCHEMA_VERSION": "repro.obs.spans",
    "StreamingFlowStats": "repro.obs.streamstats",
    "Telemetry": "repro.obs.telemetry",
    "TimeSeries": "repro.obs.metrics",
    "ToleranceRule": "repro.obs.diff",
    "TRACE_SCHEMA_VERSION": "repro.obs.trace",
    "TraceEvent": "repro.obs.trace",
    "behavior_summary": "repro.obs.diff",
    "build_manifest": "repro.obs.manifest",
    "bundle_openmetrics": "repro.obs.export",
    "critical_path": "repro.obs.causal",
    "diff_behavior": "repro.obs.diff",
    "families_from_metrics_doc": "repro.obs.export",
    "instrument_flow": "repro.obs.telemetry",
    "instrument_flows": "repro.obs.telemetry",
    "instrument_link": "repro.obs.telemetry",
    "instrument_queue": "repro.obs.telemetry",
    "load_events": "repro.obs.trace",
    "load_manifest": "repro.obs.manifest",
    "load_metrics_jsonl": "repro.obs.metrics",
    "load_spans": "repro.obs.spans",
    "parse_openmetrics": "repro.obs.export",
    "recording": "repro.obs.spans",
    "render_behavior_markdown": "repro.obs.diff",
    "render_behavior_text": "repro.obs.diff",
    "render_critical_path": "repro.obs.causal",
    "render_run_report": "repro.obs.report",
    "render_telemetry_report": "repro.obs.report",
    "render_timeline": "repro.obs.causal",
    "render_openmetrics": "repro.obs.export",
    "run_report_payload": "repro.obs.report",
    "save_events": "repro.obs.trace",
    "save_spans": "repro.obs.spans",
    "summarize_events": "repro.obs.trace",
    "validate_openmetrics": "repro.obs.export",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_SOURCES[name]), name)
    return value
