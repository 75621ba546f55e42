"""The run manifest: what produced this result, exactly.

A manifest is a small JSON document emitted next to every telemetry
bundle (and usable standalone) answering the questions a reader of a
months-old ``results/`` directory asks: which seed, which topology and
queue parameters, which *source code* (content hash of every ``.py``
file in the package — the same hash that keys the result cache), how
long it ran and how much work that was.

Two manifests with equal ``source_hash``, ``seed`` and parameters
describe bit-identical runs; diffing manifests is therefore the first
step of diffing two runs (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.obs.bundle import check_header

#: Bump when manifest fields change incompatibly.
#: v2: added ``scenario`` (full canonical ScenarioSpec document).
#: v3: added ``peak_rss_bytes`` (process peak RSS at manifest build).
#: v4: added ``backend`` (which engine ran the scenario; packet/fluid).
MANIFEST_SCHEMA_VERSION = 4
MANIFEST_SCHEMA = "repro.obs.manifest"


@dataclass
class RunManifest:
    """Provenance record for one simulation run."""

    run_id: str
    seed: int
    #: Topology parameters (capacity_bps, rtt, pkt_size, ...).
    topology: Dict[str, Any] = field(default_factory=dict)
    #: Queue discipline: at least {"kind": ...}; knobs alongside.
    qdisc: Dict[str, Any] = field(default_factory=dict)
    #: Full canonical scenario document (``ScenarioSpec.canonical()``)
    #: when the run was built declaratively; empty for ad-hoc runs.
    scenario: Dict[str, Any] = field(default_factory=dict)
    #: Which engine produced the numbers: at least {"kind": "packet"}
    #: or {"kind": "fluid", ...params}.  Pre-v4 manifests load with the
    #: packet default (the only engine that existed).
    backend: Dict[str, Any] = field(default_factory=lambda: {"kind": "packet"})
    #: Sim-clock duration of the run, seconds.
    duration: float = 0.0
    #: Wall-clock seconds the run took (not deterministic!).
    wall_time_s: float = 0.0
    #: Peak resident set size of the producing process in bytes, read
    #: at manifest build time (not deterministic; 0 where unavailable).
    peak_rss_bytes: int = 0
    #: Simulator events processed.
    event_count: int = 0
    #: Structured trace events recorded.
    trace_events: int = 0
    #: Gauge sampling interval, seconds (0 = sampling disabled).
    sample_interval: float = 0.0
    #: Content hash of the repro package source (see
    #: :func:`repro.parallel.cache.code_version`).
    source_hash: str = ""
    #: Unix timestamp of manifest creation (not deterministic).
    created_unix: float = 0.0
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """``dataclasses.asdict(self)``, built field by field: dicts and
        lists are copied all the way down, as ``asdict`` copies them,
        without its per-value dataclass checks and deep copies of
        scalars."""
        return _copied({name: getattr(self, name) for name in _FIELDS})

    def to_json(self) -> str:
        # Encoding reads the fields without changing them, so unlike
        # ``to_dict`` it needs no copies.
        payload = {"schema": MANIFEST_SCHEMA}
        payload.update((name, getattr(self, name)) for name in _FIELDS)
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")


_FIELDS = tuple(RunManifest.__dataclass_fields__)


def _copied(value: Any) -> Any:
    """*value*, a dict or a list, copied down to its scalars."""
    if isinstance(value, dict):
        return {key: _copied(item) if isinstance(item, (dict, list)) else item
                for key, item in value.items()}
    return [_copied(item) if isinstance(item, (dict, list)) else item
            for item in value]


def build_manifest(
    run_id: str,
    seed: int,
    *,
    topology: Optional[Dict[str, Any]] = None,
    qdisc: Optional[Dict[str, Any]] = None,
    scenario: Optional[Dict[str, Any]] = None,
    backend: Optional[Dict[str, Any]] = None,
    duration: float = 0.0,
    wall_time_s: float = 0.0,
    peak_rss_bytes: Optional[int] = None,
    event_count: int = 0,
    trace_events: int = 0,
    sample_interval: float = 0.0,
) -> RunManifest:
    """Assemble a manifest, filling in source hash and timestamp.

    ``peak_rss_bytes`` defaults to the producing process's own peak RSS
    (``repro.perf.peak_rss_bytes``), so every bundle records its memory
    footprint without callers having to thread it through.
    """
    from repro.parallel.cache import code_version
    from repro.perf.probe import peak_rss_bytes as _peak_rss

    return RunManifest(
        run_id=run_id,
        seed=seed,
        topology=dict(topology or {}),
        qdisc=dict(qdisc or {}),
        scenario=dict(scenario or {}),
        backend=dict(backend or {"kind": "packet"}),
        duration=duration,
        wall_time_s=wall_time_s,
        peak_rss_bytes=_peak_rss() if peak_rss_bytes is None else peak_rss_bytes,
        event_count=event_count,
        trace_events=trace_events,
        sample_interval=sample_interval,
        source_hash=code_version(),
        created_unix=_time.time(),
    )


def load_manifest(path: str) -> RunManifest:
    """Read a manifest written by :meth:`RunManifest.write`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    check_header(payload.get("schema", MANIFEST_SCHEMA),
                 payload.get("schema_version"), MANIFEST_SCHEMA,
                 MANIFEST_SCHEMA_VERSION, f"a run manifest ({path})")
    return RunManifest(**{k: v for k, v in payload.items() if k in _FIELDS})
