"""The telemetry bundle: one directory per run, laid out here once.

Its files are :data:`MANIFEST_NAME` (provenance), :data:`METRICS_NAME`
(counters, histograms, gauge series), :data:`EVENTS_NAME` (the event
trace) and, when a span recorder rode along, :data:`SPANS_NAME`.
:func:`write_bundle` writes them, :class:`Bundle` reads them part by
part and :func:`bundle_dirs` finds bundles in a tree.  The artifacts
share one schema-header rule (:func:`check_header`), and the three
JSON-lines files one format (:func:`save_jsonl`, :func:`read_jsonl`).
"""

from __future__ import annotations

import json
import os
from functools import cached_property
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    TextIO)

if TYPE_CHECKING:  # pragma: no cover - the artifact modules import this one
    from repro.obs.manifest import RunManifest
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import Span
    from repro.obs.trace import TraceEvent

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"
EVENTS_NAME = "events.jsonl"
SPANS_NAME = "spans.jsonl"


def check_header(schema: Any, version: Any, expected: str, supported: int,
                 what: str) -> None:
    """Refuse *what* when its header names another schema than
    *expected*, or a version newer than *supported*; a header without a
    version passes."""
    if schema != expected:
        raise ValueError(f"not {what}: schema {schema!r}, expected {expected!r}")
    if version is not None and version > supported:
        raise ValueError(f"{what}: schema v{version} is newer than supported v{supported}")


def save_jsonl(records: Iterable[Any], handle: TextIO, schema: str, version: int) -> int:
    """A meta header, then each record's ``to_json()`` on a line of its
    own; returns records written."""
    handle.write(json.dumps({"type": "meta", "schema": schema, "version": version},
                            separators=(",", ":")) + "\n")
    count = 0
    for record in records:
        handle.write(record.to_json() + "\n")
        count += 1
    return count


def read_jsonl(lines: Iterable[str], schema: str, supported: int,
               what: str) -> Iterator[Dict[str, Any]]:
    """The records of a JSON-lines file, meta headers checked and
    skipped, blank lines skipped.  A file without a header (written
    before it had a schema) reads as it is."""
    for line in lines:
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("type") != "meta":
            yield record
        else:
            check_header(record.get("schema"), record.get("version"), schema, supported,
                         what)


def write_bundle(out_dir: str, manifest: "RunManifest", registry: "MetricsRegistry",
                 events: Iterable["TraceEvent"], spans: Optional[Iterable["Span"]] = None
                 ) -> None:
    """Write one run's bundle into *out_dir*, a spans file only with *spans*."""
    from repro.obs.trace import save_events

    os.makedirs(out_dir, exist_ok=True)
    manifest.write(os.path.join(out_dir, MANIFEST_NAME))
    registry.write_jsonl(os.path.join(out_dir, METRICS_NAME))
    with open(os.path.join(out_dir, EVENTS_NAME), "w", encoding="utf-8") as handle:
        save_events(events, handle)
    if spans is not None:
        from repro.obs.spans import save_spans

        with open(os.path.join(out_dir, SPANS_NAME), "w", encoding="utf-8") as handle:
            save_spans(spans, handle)


class Bundle:
    """A bundle directory whose parts each load on first access, and
    are ``None`` when their file is absent; ``metrics`` holds the dicts
    of :func:`~repro.obs.metrics.load_metrics_jsonl`.  Which parts a
    reader requires, and what it raises without them, is its own rule."""

    def __init__(self, path: str) -> None:
        self.path = path

    def _read(self, name: str, load: Callable[[TextIO], Any]) -> Any:
        path = os.path.join(self.path, name)
        if not os.path.isfile(path):
            return None
        with open(path, encoding="utf-8") as handle:
            return load(handle)

    @cached_property
    def manifest(self) -> Optional["RunManifest"]:
        from repro.obs.manifest import load_manifest

        path = os.path.join(self.path, MANIFEST_NAME)
        return load_manifest(path) if os.path.isfile(path) else None

    @cached_property
    def metrics(self) -> Optional[Dict[str, Any]]:
        from repro.obs.metrics import load_metrics_jsonl

        return self._read(METRICS_NAME, load_metrics_jsonl)

    @cached_property
    def events(self) -> Optional[List["TraceEvent"]]:
        from repro.obs.trace import load_events

        return self._read(EVENTS_NAME, load_events)

    @cached_property
    def spans(self) -> Optional[List["Span"]]:
        from repro.obs.spans import load_spans

        return self._read(SPANS_NAME, load_spans)


def bundle_dirs(root: str) -> List[str]:
    """*root* when it is a bundle, else every bundle under it, sorted; a
    bundle is a directory holding a metrics file."""
    if os.path.isfile(os.path.join(root, METRICS_NAME)):
        return [root]
    return sorted(dirpath for dirpath, _, filenames in os.walk(root)
                  if METRICS_NAME in filenames)
