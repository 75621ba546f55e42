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

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    build_manifest,
    load_manifest,
)
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    load_metrics_jsonl,
)
from repro.obs.causal import critical_path, render_critical_path, render_timeline
from repro.obs.diff import (
    BehaviorDiff,
    ToleranceRule,
    behavior_summary,
    diff_behavior,
    render_behavior_markdown,
    render_behavior_text,
)
from repro.obs.export import (
    OPENMETRICS_CONTENT_TYPE,
    Family,
    bundle_openmetrics,
    families_from_metrics_doc,
    parse_openmetrics,
    render_openmetrics,
    validate_openmetrics,
)
from repro.obs.report import (
    render_run_report,
    render_telemetry_report,
    run_report_payload,
)
from repro.obs.sampler import Sampler
from repro.obs.spans import (
    SPANS_SCHEMA_VERSION,
    Span,
    SpanRecorder,
    load_spans,
    recording,
    save_spans,
)
from repro.obs.streamstats import LogHistogram, StreamingFlowStats
from repro.obs.telemetry import (
    Telemetry,
    instrument_flow,
    instrument_flows,
    instrument_link,
    instrument_queue,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    EventTrace,
    TraceEvent,
    load_events,
    save_events,
    summarize_events,
)

__all__ = [
    "BehaviorDiff",
    "Counter",
    "EventTrace",
    "Family",
    "OPENMETRICS_CONTENT_TYPE",
    "Gauge",
    "Histogram",
    "LogHistogram",
    "MANIFEST_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "RunManifest",
    "Sampler",
    "Span",
    "SpanRecorder",
    "SPANS_SCHEMA_VERSION",
    "StreamingFlowStats",
    "Telemetry",
    "TimeSeries",
    "ToleranceRule",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "behavior_summary",
    "build_manifest",
    "bundle_openmetrics",
    "critical_path",
    "diff_behavior",
    "families_from_metrics_doc",
    "instrument_flow",
    "instrument_flows",
    "instrument_link",
    "instrument_queue",
    "load_events",
    "load_manifest",
    "load_metrics_jsonl",
    "load_spans",
    "parse_openmetrics",
    "recording",
    "render_behavior_markdown",
    "render_behavior_text",
    "render_critical_path",
    "render_run_report",
    "render_telemetry_report",
    "render_timeline",
    "render_openmetrics",
    "run_report_payload",
    "save_events",
    "save_spans",
    "summarize_events",
    "validate_openmetrics",
]
