"""Behavioral diffing of telemetry bundles — ``taq-perf compare`` for
*what the run did*, not what it cost.

Two runs can take identical wall time yet behave differently: more
drops, extra RTO firings, a different admission verdict, worse slice
Jain.  This module reduces a telemetry bundle (or a tree of bundles,
e.g. one per sweep point) to a flat, deterministic *behavior summary* —
every counter, histogram and series roll-up, span counts, compact
manifest provenance — and diffs two summaries under per-metric
tolerance rules.  CI keeps a committed baseline summary
(``BEHAVIOR_fig02.json``) and diffs every push's fig02 telemetry
against it, the behavioral analogue of the exact ``BENCH_22.json`` count
gate.

Flat metric names, one value each::

    counter.queue.drops                  counter value
    hist.bottleneck.queue_delay_s.p95    histogram summary field
    series.link.queue_depth.last         series roll-up field
    spans.flow                           span count by kind

For a tree of bundles each name is prefixed with the bundle's relative
path (``fig02-n16/counter.queue.drops``), so a whole sweep diffs as
one namespace.

Default tolerances are deliberately near-zero (the repo's determinism
contract makes same-seed runs bit-identical); ``--tolerance PAT=REL``
or :class:`ToleranceRule` loosen named metrics where a looser contract
is intended.  Manifest provenance (seed, backend, queue kind) rides
along informationally and never gates — ``source_hash`` changes on
every commit by design.
"""

from __future__ import annotations

import fnmatch
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.obs.bundle import Bundle, bundle_dirs, check_header

#: Bump when the summary layout changes.
BEHAVIOR_SCHEMA_VERSION = 1

BEHAVIOR_SCHEMA = "repro.obs.behavior"

#: Same-seed runs are bit-identical, so the default tolerance only
#: forgives float-formatting dust, not behavior.
DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12


@dataclass(frozen=True)
class ToleranceRule:
    """Per-metric tolerance: first rule whose pattern matches wins."""

    #: :mod:`fnmatch` pattern over flat metric names.
    pattern: str
    rel: float = DEFAULT_REL_TOL
    abs: float = DEFAULT_ABS_TOL


def parse_tolerance(item: str) -> ToleranceRule:
    """Parse a ``PATTERN=REL[:ABS]`` CLI value into a rule."""
    pattern, sep, spec = item.partition("=")
    if not sep or not pattern:
        raise ValueError(f"expected PATTERN=REL[:ABS], got {item!r}")
    rel_text, _, abs_text = spec.partition(":")
    try:
        rel = float(rel_text)
        abs_tol = float(abs_text) if abs_text else DEFAULT_ABS_TOL
    except ValueError:
        raise ValueError(f"tolerance for {pattern!r} must be numeric, got {spec!r}")
    return ToleranceRule(pattern=pattern, rel=rel, abs=abs_tol)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

def _flatten_bundle(bundle: Bundle) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """One bundle's flat metrics plus its compact manifest record."""
    metrics: Dict[str, float] = {}
    doc = bundle.metrics
    for name, value in doc["counters"].items():
        metrics[f"counter.{name}"] = float(value)
    for name, summary in doc["histograms"].items():
        for key in ("count", "mean", "p50", "p95", "max"):
            if key in summary:
                metrics[f"hist.{name}.{key}"] = float(summary[key])
    for name, samples in doc["series"].items():
        values = [v for _, v in samples]
        if not values:
            continue
        metrics[f"series.{name}.count"] = float(len(values))
        metrics[f"series.{name}.mean"] = sum(values) / len(values)
        metrics[f"series.{name}.last"] = float(values[-1])
        metrics[f"series.{name}.max"] = float(max(values))
    if bundle.spans is not None:
        by_kind = Counter(span.kind for span in bundle.spans)
        for kind in sorted(by_kind):
            metrics[f"spans.{kind}"] = float(by_kind[kind])

    provenance: Dict[str, Any] = {}
    manifest = bundle.manifest
    if manifest is not None:
        provenance = {
            "seed": manifest.seed,
            "backend": manifest.backend.get("kind", "packet"),
            "qdisc": manifest.qdisc.get("kind"),
            "duration": manifest.duration,
            "source_hash": manifest.source_hash[:12],
        }
    return metrics, provenance


def behavior_summary(source: Union[str, Mapping[str, Any]]) -> Dict[str, Any]:
    """The flat behavior summary of *source*.

    *source* may be a summary JSON file (pass-through after schema
    checks), a single bundle directory, or a directory tree of bundles
    (metrics prefixed with each bundle's relative path).  Already-built
    summary dicts pass through untouched so callers can mix sources.
    """
    if not isinstance(source, Mapping) and os.path.isfile(source):
        with open(source, "r", encoding="utf-8") as handle:
            source = json.load(handle)
    if isinstance(source, Mapping):
        check_header(source.get("schema"), source.get("version"),
                     BEHAVIOR_SCHEMA, BEHAVIOR_SCHEMA_VERSION, "a behavior summary")
        return dict(source)
    if not os.path.isdir(source):
        raise FileNotFoundError(f"no summary file or bundle directory at {source!r}")
    bundles = bundle_dirs(source)
    if not bundles:
        raise FileNotFoundError(f"no telemetry bundles under {source!r}")
    metrics: Dict[str, float] = {}
    manifests: Dict[str, Any] = {}
    for bundle in bundles:
        rel = os.path.relpath(bundle, source)
        prefix = "" if rel == "." else rel.replace(os.sep, "/") + "/"
        flat, provenance = _flatten_bundle(Bundle(bundle))
        for name, value in flat.items():
            metrics[prefix + name] = value
        if provenance:
            manifests[prefix.rstrip("/") or "."] = provenance
    return {
        "schema": BEHAVIOR_SCHEMA,
        "version": BEHAVIOR_SCHEMA_VERSION,
        "metrics": metrics,
        "manifests": manifests,
    }


def write_summary(summary: Mapping[str, Any], path: str) -> None:
    """Persist a behavior summary (sorted keys — diffable on disk)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------

@dataclass
class MetricDelta:
    """One metric's A-vs-B comparison."""

    name: str
    a: float
    b: float
    delta: float
    #: Relative change against A (0 when A is 0).
    rel_delta: float
    #: The tolerance rule pattern that applied ("<default>" otherwise).
    rule: str
    ok: bool


@dataclass
class BehaviorDiff:
    """The full behavioral diff of two summaries."""

    rows: List[MetricDelta]
    only_in_a: List[str]
    only_in_b: List[str]
    #: Per-bundle manifest provenance changes — informational only.
    manifest_changes: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)

    @property
    def out_of_tolerance(self) -> List[MetricDelta]:
        return [row for row in self.rows if not row.ok]

    @property
    def ok(self) -> bool:
        """True when every shared metric is in tolerance and neither
        side has metrics the other lacks."""
        return not self.out_of_tolerance and not self.only_in_a and not self.only_in_b


def _rule_for(
    name: str, rules: Sequence[ToleranceRule]
) -> ToleranceRule:
    for rule in rules:
        if fnmatch.fnmatch(name, rule.pattern):
            return rule
    return ToleranceRule(pattern="<default>")


def diff_behavior(
    a: Union[str, Mapping[str, Any]],
    b: Union[str, Mapping[str, Any]],
    tolerances: Sequence[ToleranceRule] = (),
) -> BehaviorDiff:
    """Diff two behavior sources (summaries, bundles, or trees).

    Every metric present on both sides becomes a :class:`MetricDelta`;
    a delta is in tolerance when ``|b - a| <= abs`` or the relative
    change stays under ``rel``.  Metrics on one side only are listed
    separately and fail the diff (behavior appeared or vanished).
    """
    summary_a = behavior_summary(a)
    summary_b = behavior_summary(b)
    metrics_a = summary_a.get("metrics", {})
    metrics_b = summary_b.get("metrics", {})
    rows: List[MetricDelta] = []
    for name in sorted(set(metrics_a) & set(metrics_b)):
        va, vb = float(metrics_a[name]), float(metrics_b[name])
        delta = vb - va
        rel_delta = delta / abs(va) if va != 0 else (0.0 if delta == 0 else float("inf"))
        rule = _rule_for(name, tolerances)
        ok = abs(delta) <= rule.abs or abs(rel_delta) <= rule.rel
        rows.append(
            MetricDelta(
                name=name, a=va, b=vb, delta=delta, rel_delta=rel_delta,
                rule=rule.pattern, ok=ok,
            )
        )
    manifests_a = summary_a.get("manifests", {})
    manifests_b = summary_b.get("manifests", {})
    manifest_changes: Dict[str, Tuple[Any, Any]] = {}
    for key in sorted(set(manifests_a) | set(manifests_b)):
        if manifests_a.get(key) != manifests_b.get(key):
            manifest_changes[key] = (manifests_a.get(key), manifests_b.get(key))
    return BehaviorDiff(
        rows=rows,
        only_in_a=sorted(set(metrics_a) - set(metrics_b)),
        only_in_b=sorted(set(metrics_b) - set(metrics_a)),
        manifest_changes=manifest_changes,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.6g}"


def render_behavior_text(diff: BehaviorDiff, show_ok: bool = False) -> str:
    """Plain-text rendering: out-of-tolerance rows first, verdict last."""
    lines: List[str] = []
    bad = diff.out_of_tolerance
    if bad:
        lines.append(f"{'metric':<56} {'A':>12} {'B':>12} {'Δ':>12}")
        for row in bad:
            lines.append(
                f"{row.name:<56} {_fmt(row.a):>12} {_fmt(row.b):>12} "
                f"{_fmt(row.delta):>12}"
            )
    for name in diff.only_in_a:
        lines.append(f"{name:<56} only in A")
    for name in diff.only_in_b:
        lines.append(f"{name:<56} only in B")
    in_tol = len(diff.rows) - len(bad)
    if show_ok:
        for row in diff.rows:
            if row.ok:
                lines.append(
                    f"{row.name:<56} {_fmt(row.a):>12} {_fmt(row.b):>12} ok"
                )
    elif in_tol:
        lines.append(f"({in_tol} metric(s) in tolerance not shown)")
    for key, (va, vb) in diff.manifest_changes.items():
        lines.append(f"manifest[{key}]: {va!r} -> {vb!r} (informational)")
    if diff.ok:
        lines.append(f"OK: {len(diff.rows)} metric(s) within tolerance")
    else:
        lines.append(
            f"DIFFER: {len(bad)} out-of-tolerance, "
            f"{len(diff.only_in_a) + len(diff.only_in_b)} one-sided"
        )
    return "\n".join(lines)


def render_behavior_markdown(diff: BehaviorDiff, max_rows: int = 50) -> str:
    """GitHub-table rendering for ``$GITHUB_STEP_SUMMARY``,
    out-of-tolerance first."""
    lines = [
        "| metric | A | B | Δ | rel Δ | verdict |",
        "|---|---:|---:|---:|---:|---|",
    ]
    shown = 0
    for row in diff.out_of_tolerance:
        if shown >= max_rows:
            break
        shown += 1
        rel = "∞" if row.rel_delta == float("inf") else f"{row.rel_delta * 100.0:+.2f}%"
        lines.append(
            f"| **{row.name}** | {_fmt(row.a)} | {_fmt(row.b)} "
            f"| {_fmt(row.delta)} | {rel} | **OUT OF TOLERANCE** |"
        )
    for name in diff.only_in_a[: max(0, max_rows - shown)]:
        shown += 1
        lines.append(f"| **{name}** | ✓ | — | — | — | only in A |")
    for name in diff.only_in_b[: max(0, max_rows - shown)]:
        shown += 1
        lines.append(f"| **{name}** | — | ✓ | — | — | only in B |")
    in_tol = len(diff.rows) - len(diff.out_of_tolerance)
    if in_tol:
        lines.append(f"| _{in_tol} metric(s) in tolerance_ | | | | | ok |")
    lines.append("")
    if diff.manifest_changes:
        changed = ", ".join(sorted(diff.manifest_changes))
        lines.append(f"_manifest provenance changed for: {changed} (informational)_")
        lines.append("")
    if diff.ok:
        lines.append(f"✅ **OK**: {len(diff.rows)} behavioral metric(s) within tolerance")
    else:
        lines.append(
            f"❌ **DIFFER**: {len(diff.out_of_tolerance)} out-of-tolerance, "
            f"{len(diff.only_in_a) + len(diff.only_in_b)} one-sided metric(s)"
        )
    return "\n".join(lines)
