"""Human-readable rendering of a telemetry bundle.

``render_run_report`` answers the first three questions anyone asks of
a finished run — who lost the most packets, who timed out the most,
and what did the bottleneck queue look like over time — as plain text
(tables + :mod:`repro.metrics.asciichart` pictures), from either a
live :class:`~repro.obs.telemetry.Telemetry` or a bundle directory::

    python -m repro.obs.report out/fig02-200k
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.asciichart import bar_chart, line_chart
from repro.obs.bundle import Bundle
from repro.obs.metrics import _rank
from repro.obs.telemetry import Telemetry
from repro.obs.trace import summarize_events


def _top(counts: Dict[int, int], limit: int) -> Dict[str, float]:
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:limit]
    return {f"flow {flow}": float(count) for flow, count in ordered}


def _series_percentiles(samples: List[Tuple[float, float]]) -> Dict[str, float]:
    values = sorted(value for _, value in samples)
    if not values:
        return {}
    return {
        "min": values[0],
        "p50": _rank(values, 50),
        "p95": _rank(values, 95),
        "p99": _rank(values, 99),
        "max": values[-1],
    }


def _manifest_line(manifest) -> str:
    if manifest is None:
        return ""
    return (
        f"run {manifest.run_id}: seed={manifest.seed} "
        f"duration={manifest.duration:g}s "
        f"events={manifest.event_count} source={manifest.source_hash[:12]}"
    )


def render_report(
    summary: Dict[str, Any],
    series: Optional[Dict[str, List[Tuple[float, float]]]] = None,
    manifest_line: str = "",
    top_n: int = 10,
) -> str:
    """Render the report from a telemetry *summary* (see
    :meth:`Telemetry.summary`) plus optional raw gauge series."""
    lines: List[str] = []
    if manifest_line:
        lines.append(manifest_line)
    trace = summary.get("trace", {})
    events = trace.get("events", {})
    if events:
        lines.append("events: " + ", ".join(f"{k}={v}" for k, v in sorted(events.items())))
    if trace.get("truncated"):
        lines.append("(!) event trace truncated at its record cap")

    droppers = _top(trace.get("drops_by_flow", {}), top_n)
    if droppers:
        lines.append("")
        lines.append(f"top droppers (packets dropped, top {top_n}):")
        lines.append(bar_chart(droppers))

    rto = _top(trace.get("rto_by_flow", {}), top_n)
    if rto:
        lines.append("")
        lines.append(f"RTO firings per flow (top {top_n}):")
        lines.append(bar_chart(rto))

    for name, samples in sorted((series or {}).items()):
        if "depth" not in name and "queue" not in name:
            continue
        stats = _series_percentiles(samples)
        if not stats:
            continue
        lines.append("")
        lines.append(
            f"{name}: " + ", ".join(f"{k}={v:g}" for k, v in stats.items())
        )
        lines.append(line_chart({name: samples}, x_label="sim time (s)", y_label="pkts"))
    return "\n".join(lines)


def render_telemetry_report(telemetry: Telemetry, top_n: int = 10) -> str:
    """Report for a live (not yet persisted) telemetry object."""
    series = {
        name: list(ts.samples) for name, ts in telemetry.registry.series.items()
    }
    return render_report(
        telemetry.summary(), series=series,
        manifest_line=_manifest_line(telemetry.manifest), top_n=top_n
    )


def _load_bundle(bundle_dir: str):
    """(manifest | None, trace summary, gauge series) for a bundle dir."""
    bundle = Bundle(bundle_dir)
    events, metrics = bundle.events, bundle.metrics
    trace = summarize_events(events) if events is not None else {}
    series = metrics["series"] if metrics is not None else {}
    return bundle.manifest, trace, series


def render_run_report(bundle_dir: str, top_n: int = 10) -> str:
    """Report for a bundle directory written by :meth:`Telemetry.finalize`."""
    manifest, trace, series = _load_bundle(bundle_dir)
    return render_report(
        {"trace": trace}, series=series, manifest_line=_manifest_line(manifest), top_n=top_n
    )


def run_report_payload(bundle_dir: str, top_n: int = 10) -> Dict[str, Any]:
    """Machine-readable counterpart of :func:`render_run_report` — the
    same bundle contents as one JSON-serializable document (``--format
    json``): manifest provenance, trace summary with top-N per-flow
    tables, and percentile stats for every recorded gauge series."""
    manifest, trace, series = _load_bundle(bundle_dir)
    payload: Dict[str, Any] = {"bundle": bundle_dir}
    if manifest is not None:
        payload["manifest"] = {
            "run_id": manifest.run_id,
            "seed": manifest.seed,
            "duration": manifest.duration,
            "event_count": manifest.event_count,
            "source_hash": manifest.source_hash,
            "schema_version": manifest.schema_version,
        }
    payload["trace"] = {
        "events": trace.get("events", {}),
        "truncated": bool(trace.get("truncated", False)),
        "top_droppers": _top(trace.get("drops_by_flow", {}), top_n),
        "top_rto": _top(trace.get("rto_by_flow", {}), top_n),
    }
    payload["series"] = {
        name: _series_percentiles(samples)
        for name, samples in sorted(series.items())
        if samples
    }
    return payload


def main(argv=None) -> int:  # pragma: no cover - thin CLI shim
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Render a report for a telemetry bundle directory."
    )
    parser.add_argument("bundle_dir", help="directory holding manifest/metrics/events")
    parser.add_argument("--top", type=int, default=10, help="rows in the top-N charts")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text tables (default) or a machine-readable JSON document",
    )
    args = parser.parse_args(argv)
    if args.format == "json":
        print(json.dumps(run_report_payload(args.bundle_dir, top_n=args.top),
                         indent=2, sort_keys=True))
    else:
        print(render_run_report(args.bundle_dir, top_n=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
