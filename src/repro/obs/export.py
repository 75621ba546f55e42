"""OpenMetrics (Prometheus text) export for every metric source we own.

The repo accumulates metric-shaped state in several places — a run's
:class:`~repro.obs.metrics.MetricsRegistry`, a finished telemetry
bundle on disk, the service plane's job store / cache / progress bus —
and until now each had its own ad-hoc JSON rendering.  This module is
the one renderer: anything reducible to a list of :class:`Family`
objects serializes to the OpenMetrics text exposition format, the
lingua franca every Prometheus-compatible scraper understands.

Three layers:

- the data model (:class:`Sample`, :class:`Family`) plus
  :func:`render_openmetrics` / :func:`parse_openmetrics` /
  :func:`validate_openmetrics` — a self-contained, dependency-free
  implementation of the format subset we emit (counter, gauge,
  summary, info; ``# TYPE``/``# HELP``/``# UNIT`` metadata; the
  mandatory ``# EOF`` terminator);
- builders from our sources: :func:`families_from_metrics_doc` (the
  plain dicts :func:`repro.obs.metrics.load_metrics_jsonl` returns) and
  :func:`bundle_openmetrics` (a whole bundle directory, manifest
  provenance included as an ``info`` family);
- ``python -m repro.obs.export [--validate] TARGET`` so CI can assert
  well-formedness of whatever a live ``/metrics`` endpoint served.

Metric names follow the OpenMetrics charset: dotted registry names are
prefixed with ``taq_`` and every non-alphanumeric run collapses to one
underscore (``queue.drops`` -> ``taq_queue_drops``).  Counters render
with the spec-required ``_total`` sample suffix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: What a served exposition declares (OpenMetrics 1.0).
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Valid exposition metric/label name (OpenMetrics, no colons — we
#: never emit recording-rule names).
NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Metric types this module emits and validates.
FAMILY_TYPES = ("counter", "gauge", "summary", "info", "unknown")

#: Sample suffixes each family type may legally use.
_ALLOWED_SUFFIXES = {
    "counter": {"_total", "_created"},
    "gauge": {""},
    "summary": {"", "_count", "_sum", "_created"},
    "info": {"_info"},
    "unknown": {""},
}


@dataclass
class Sample:
    """One exposition line: ``name+suffix{labels} value``."""

    value: float
    labels: Dict[str, str] = field(default_factory=dict)
    suffix: str = ""


@dataclass
class Family:
    """One metric family: metadata plus its samples, kept contiguous."""

    name: str
    type: str
    help: str = ""
    unit: str = ""
    samples: List[Sample] = field(default_factory=list)

    def add(self, value: float, labels: Optional[Dict[str, str]] = None,
            suffix: str = "") -> "Family":
        self.samples.append(Sample(value=float(value),
                                   labels=dict(labels or {}), suffix=suffix))
        return self


def sanitize_name(name: str, prefix: str = "taq_") -> str:
    """Map a dotted registry name onto the OpenMetrics charset.

    ``queue.drops`` -> ``taq_queue_drops``; any run of characters
    outside ``[a-zA-Z0-9_]`` collapses to a single underscore.  The
    prefix namespaces everything this repo exports, and also rescues
    names that would otherwise start with a digit.
    """
    cleaned = re.sub(r"[^a-zA-Z0-9_]+", "_", name).strip("_")
    return f"{prefix}{cleaned}" if cleaned else f"{prefix}metric"


def escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
    return "".join(out)


def _format_value(value: float) -> str:
    """Render a float the way scrapers expect (integers without .0)."""
    number = float(value)
    if number != number:  # NaN
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_openmetrics(families: Iterable[Family]) -> str:
    """Serialize *families* to OpenMetrics text (``# EOF`` terminated).

    Counter samples that carry no explicit suffix get the mandatory
    ``_total``; info samples get ``_info``.  Families render in the
    order given — callers wanting determinism sort before rendering.
    """
    lines: List[str] = []
    for family in families:
        lines.append(f"# TYPE {family.name} {family.type}")
        if family.unit:
            lines.append(f"# UNIT {family.name} {family.unit}")
        if family.help:
            help_text = family.help.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {family.name} {help_text}")
        for sample in family.samples:
            suffix = sample.suffix
            if not suffix:
                if family.type == "counter":
                    suffix = "_total"
                elif family.type == "info":
                    suffix = "_info"
            if sample.labels:
                body = ",".join(
                    f'{key}="{escape_label_value(str(val))}"'
                    for key, val in sorted(sample.labels.items())
                )
                labels = "{" + body + "}"
            else:
                labels = ""
            lines.append(
                f"{family.name}{suffix}{labels} {_format_value(sample.value)}"
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<timestamp>\S+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _parse_labels(text: str) -> Optional[Dict[str, str]]:
    """Parse a label body; None when the body is malformed."""
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_RE.match(text, pos)
        if match is None:
            return None
        labels[match.group("key")] = _unescape_label_value(match.group("value"))
        pos = match.end()
        if pos < len(text):
            if text[pos] != ",":
                return None
            pos += 1
    return labels


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse an exposition back into ``{family: {type, help, unit,
    samples: [{"suffix", "labels", "value"}]}}``.

    Strict enough for round-trip tests; :func:`validate_openmetrics`
    reports structural problems instead of raising.
    """
    problems = validate_openmetrics(text)
    if problems:
        raise ValueError("invalid OpenMetrics text: " + "; ".join(problems[:5]))
    return _parse_lenient(text)[0]


def _family_for(sample_name: str, families: Dict[str, Dict[str, Any]]) -> Optional[str]:
    """Which known family a sample name belongs to (longest match)."""
    if sample_name in families:
        return sample_name
    for suffix in ("_total", "_created", "_count", "_sum", "_info", "_bucket"):
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
            return sample_name[: -len(suffix)]
    return None


def _parse_lenient(
    text: str,
) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    families: Dict[str, Dict[str, Any]] = {}
    problems: List[str] = []
    current: Optional[str] = None
    saw_eof = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            problems.append(f"line {lineno}: blank lines are not allowed")
            continue
        if saw_eof:
            problems.append(f"line {lineno}: content after # EOF")
            break
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "TYPE", "HELP", "UNIT"
            ):
                problems.append(f"line {lineno}: malformed comment {line!r}")
                continue
            keyword, name = parts[1], parts[2]
            rest = parts[3] if len(parts) > 3 else ""
            if not NAME_RE.match(name):
                problems.append(f"line {lineno}: bad metric name {name!r}")
                continue
            if keyword == "TYPE":
                if name in families:
                    problems.append(
                        f"line {lineno}: family {name!r} declared twice "
                        "(families must be contiguous)"
                    )
                if rest not in FAMILY_TYPES:
                    problems.append(
                        f"line {lineno}: unknown metric type {rest!r}"
                    )
                    rest = "unknown"
                families.setdefault(
                    name, {"type": rest, "help": "", "unit": "", "samples": []}
                )
                current = name
            else:
                target = name if name in families else current
                if target is None or name != target:
                    problems.append(
                        f"line {lineno}: {keyword} for undeclared family {name!r}"
                    )
                    continue
                families[target][keyword.lower()] = rest
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        sample_name = match.group("name")
        if not NAME_RE.match(sample_name):
            problems.append(f"line {lineno}: bad sample name {sample_name!r}")
            continue
        labels_text = match.group("labels")
        labels = _parse_labels(labels_text) if labels_text is not None else {}
        if labels is None:
            problems.append(f"line {lineno}: malformed labels in {line!r}")
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            )
            continue
        owner = _family_for(sample_name, families)
        if owner is None:
            problems.append(
                f"line {lineno}: sample {sample_name!r} has no # TYPE"
            )
            continue
        if owner != current:
            problems.append(
                f"line {lineno}: sample for {owner!r} interleaved into "
                f"family {current!r}"
            )
        family = families[owner]
        suffix = sample_name[len(owner):]
        allowed = _ALLOWED_SUFFIXES.get(family["type"], {""})
        if suffix not in allowed and not (
            family["type"] == "summary" and suffix == ""
        ):
            problems.append(
                f"line {lineno}: suffix {suffix!r} not allowed on "
                f"{family['type']} family {owner!r}"
            )
        if family["type"] == "summary" and suffix == "" and "quantile" not in labels:
            problems.append(
                f"line {lineno}: bare summary sample without a quantile label"
            )
        family["samples"].append(
            {"suffix": suffix, "labels": labels, "value": value}
        )
    if not saw_eof:
        problems.append("missing # EOF terminator")
    return families, problems


def validate_openmetrics(text: str) -> List[str]:
    """Every structural problem in *text*; empty list = well-formed."""
    return _parse_lenient(text)[1]


# ----------------------------------------------------------------------
# Builders from this repo's metric sources
# ----------------------------------------------------------------------

def _summary_family(name: str, summary: Mapping[str, Any],
                    help: str = "") -> Family:
    """A histogram summary dict as an OpenMetrics summary family."""
    family = Family(name, "summary", help=help)
    count = float(summary.get("count", 0) or 0)
    mean = float(summary.get("mean", 0.0) or 0.0)
    family.add(count, suffix="_count")
    family.add(count * mean, suffix="_sum")
    for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
        if key in summary:
            family.add(float(summary[key]), labels={"quantile": quantile})
    return family


def families_from_metrics_doc(doc: Mapping[str, Any]) -> List[Family]:
    """The plain dicts of :func:`repro.obs.metrics.load_metrics_jsonl`
    (or a ``MetricsRegistry.summary()``) as families."""
    families: List[Family] = []
    for name in sorted(doc.get("counters", {})):
        families.append(
            Family(sanitize_name(name), "counter",
                   help=f"bundle counter {name}")
            .add(doc["counters"][name])
        )
    for name in sorted(doc.get("histograms", {})):
        families.append(
            _summary_family(sanitize_name(name), doc["histograms"][name],
                            help=f"bundle histogram {name}")
        )
    for name in sorted(doc.get("series", {})):
        value = doc["series"][name]
        if isinstance(value, Mapping):  # a summary() roll-up
            if value.get("count"):
                families.append(
                    Family(sanitize_name(name) + "_last", "gauge",
                           help=f"last sample of series {name}")
                    .add(value["last"])
                )
        elif value:  # raw [(t, v), ...] samples
            families.append(
                Family(sanitize_name(name) + "_last", "gauge",
                       help=f"last sample of series {name}")
                .add(value[-1][1])
            )
    return families


def bundle_openmetrics(bundle_dir: str) -> str:
    """A telemetry bundle directory rendered as one exposition.

    Provenance rides along as the standard ``info`` idiom: a
    ``taq_run_info`` family whose labels carry run id, backend, seed
    and source hash with a constant value of 1.
    """
    import os

    from repro.obs.manifest import load_manifest
    from repro.obs.metrics import load_metrics_jsonl
    from repro.obs.telemetry import MANIFEST_NAME, METRICS_NAME

    families: List[Family] = []
    manifest_path = os.path.join(bundle_dir, MANIFEST_NAME)
    if os.path.isfile(manifest_path):
        manifest = load_manifest(manifest_path)
        families.append(
            Family("taq_run", "info", help="run provenance (manifest)")
            .add(1, labels={
                "run_id": manifest.run_id,
                "seed": str(manifest.seed),
                "backend": str(manifest.backend.get("kind", "packet")),
                "source_hash": manifest.source_hash[:12],
            })
        )
    metrics_path = os.path.join(bundle_dir, METRICS_NAME)
    if os.path.isfile(metrics_path):
        families.extend(families_from_metrics_doc(load_metrics_jsonl(metrics_path)))
    if not families:
        raise FileNotFoundError(
            f"no {MANIFEST_NAME} or {METRICS_NAME} under {bundle_dir!r}"
        )
    return render_openmetrics(families)


def main(argv=None) -> int:
    """``python -m repro.obs.export [--validate] TARGET``.

    Without ``--validate``, TARGET is a telemetry bundle directory and
    its exposition prints to stdout.  With ``--validate``, TARGET is a
    file of OpenMetrics text (e.g. a curl'd ``/metrics``) and the exit
    status reports well-formedness — the CI hook.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Render a telemetry bundle as OpenMetrics text, or "
                    "validate captured exposition text.",
    )
    parser.add_argument("target", help="bundle directory, or a text file "
                                       "with --validate")
    parser.add_argument("--validate", action="store_true",
                        help="treat TARGET as exposition text and report "
                             "structural problems")
    args = parser.parse_args(argv)
    if args.validate:
        with open(args.target, "r", encoding="utf-8") as handle:
            problems = validate_openmetrics(handle.read())
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            return 1
        print(f"{args.target}: valid OpenMetrics")
        return 0
    print(bundle_openmetrics(args.target), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
