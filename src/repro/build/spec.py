"""Typed scenario specifications with strict JSON load/dump.

A :class:`ScenarioSpec` is the single declarative description of one
simulation run: topology + queue discipline + workloads + metrics.
Every experiment module constructs its runs from one (see
:func:`repro.build.harness.build_simulation`), the JSON scenario runner
is a thin loader over it, the parallel engine's point specs carry its
canonical serialization, and :class:`repro.obs.RunManifest` embeds it
so every telemetry bundle records exactly what was built.

Document loading is *strict*: unknown keys are rejected with a
did-you-mean suggestion, kind-specific parameters are validated against
the registered builder's signature, and missing required keys fail
before anything is constructed (so a topology without ``capacity_bps``
is reported as such, not as a confusing buffer-sizing error four layers
down).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.build.errors import SpecError, unknown_key_message
from repro.build.registries import (
    BACKENDS,
    QUEUES,
    TOPOLOGIES,
    WORKLOADS,
    load_plugins,
)
from repro.build.registry import Registry


def _require(document: Mapping[str, Any], key: str, context: str) -> Any:
    try:
        return document[key]
    except (KeyError, TypeError):
        raise SpecError(f"missing {key!r} in {context}") from None


def _require_mapping(value: Any, context: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise SpecError(f"{context} must be a JSON object, got {type(value).__name__}")
    return value


def _number(value: Any, key: str, context: str, minimum: Optional[float] = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{key!r} in {context} must be a number, got {value!r}")
    if value != value:
        raise SpecError(f"{key!r} in {context} must be a number, got NaN")
    if minimum is not None and value < minimum:
        raise SpecError(f"{key!r} in {context} must be >= {minimum}, got {value!r}")
    return float(value)


def _split_params(
    document: Mapping[str, Any],
    base_keys: Sequence[str],
    registry: Registry,
    kind: str,
    context: str,
) -> Dict[str, Any]:
    """Non-base keys of *document*, validated against *kind*'s builder.

    Unknown keys raise :class:`SpecError` with a did-you-mean built
    from the base keys plus the builder's keyword parameters.  Builders
    with ``**kwargs`` accept an open set, so only the base-key typo
    check applies (the constructed component validates the rest).
    """
    accepted_extras, open_ended = registry.accepted_params(kind)
    accepted = set(base_keys) | set(accepted_extras)
    params: Dict[str, Any] = {}
    for key, value in document.items():
        if key in base_keys:
            continue
        if key not in accepted and not open_ended:
            raise SpecError(unknown_key_message(key, context, accepted))
        params[key] = value
    # Required builder parameters (no default) must be present up front.
    builder_signature = inspect.signature(registry.get(kind))
    for index, parameter in enumerate(builder_signature.parameters.values()):
        if index == 0 or parameter.kind.name in ("VAR_KEYWORD", "VAR_POSITIONAL"):
            continue
        if parameter.default is parameter.empty and parameter.name not in params:
            raise SpecError(f"missing {parameter.name!r} in {context}")
    return params


@dataclass
class TopologySpec:
    """Where the bottleneck lives: kind + link parameters + extras."""

    capacity_bps: float
    kind: str = "dumbbell"
    rtt: float = 0.2
    pkt_size: int = 500
    #: Kind-specific extras (e.g. ``mode``/``underlay_loss`` for
    #: "overlay"), forwarded to the registered topology builder.
    params: Dict[str, Any] = field(default_factory=dict)

    BASE_KEYS = ("type", "capacity_bps", "rtt", "pkt_size")

    @classmethod
    def from_document(cls, document: Any, context: str = "topology") -> "TopologySpec":
        document = _require_mapping(document, context)
        kind = document.get("type", "dumbbell")
        TOPOLOGIES.get(kind)  # unknown kinds fail here, listing what exists
        capacity = _number(
            _require(document, "capacity_bps", context), "capacity_bps", context,
            minimum=1.0,
        )
        spec = cls(
            capacity_bps=capacity,
            kind=kind,
            rtt=_number(document.get("rtt", 0.2), "rtt", context, minimum=0.0),
            pkt_size=int(_number(document.get("pkt_size", 500), "pkt_size", context,
                                 minimum=1.0)),
            params=_split_params(document, cls.BASE_KEYS, TOPOLOGIES, kind, context),
        )
        return spec

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "type": self.kind,
            "capacity_bps": self.capacity_bps,
            "rtt": self.rtt,
            "pkt_size": self.pkt_size,
        }
        document.update(self.params)
        return document


@dataclass
class QueueSpec:
    """Which discipline guards the bottleneck buffer, and how big."""

    kind: str = "droptail"
    buffer_rtts: float = 1.0
    #: When False, a TAQ queue is left in one-way mode (§3.3): no ACK
    #: tap, epochs from SYN-to-first-data gaps and burst spacing only.
    reverse_tap: bool = True
    #: Kind-specific knobs (TAQ ablations, admission parameters, ...),
    #: forwarded to the registered queue builder.
    params: Dict[str, Any] = field(default_factory=dict)

    BASE_KEYS = ("kind", "buffer_rtts", "reverse_tap")

    @classmethod
    def from_document(cls, document: Any, context: str = "queue") -> "QueueSpec":
        document = _require_mapping(document, context)
        kind = document.get("kind", "droptail")
        QUEUES.get(kind)
        return cls(
            kind=kind,
            buffer_rtts=_number(document.get("buffer_rtts", 1.0), "buffer_rtts",
                                context, minimum=0.0),
            reverse_tap=bool(document.get("reverse_tap", True)),
            params=_split_params(document, cls.BASE_KEYS, QUEUES, kind, context),
        )

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "kind": self.kind,
            "buffer_rtts": self.buffer_rtts,
            "reverse_tap": self.reverse_tap,
        }
        document.update(self.params)
        return document


@dataclass
class WorkloadSpec:
    """One traffic source: kind + generator parameters."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    BASE_KEYS = ("type",)

    @classmethod
    def from_document(cls, document: Any, context: str = "workload") -> "WorkloadSpec":
        document = _require_mapping(document, context)
        kind = document.get("type")
        if kind is None:
            raise SpecError(f"missing 'type' in {context}")
        WORKLOADS.get(kind)
        return cls(
            kind=kind,
            params=_split_params(document, cls.BASE_KEYS, WORKLOADS, kind, context),
        )

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {"type": self.kind}
        document.update(self.params)
        return document


@dataclass
class BackendSpec:
    """Which simulation engine executes the scenario.

    ``packet`` (the default) is the reference event simulator — every
    golden and cache key was recorded against it, and a default
    backend is *omitted* from serialized documents so existing
    documents, keys, and manifests stay byte-identical.  ``fluid``
    selects the mean-field integrator (:mod:`repro.fluid`) with
    kind-specific parameters (``dt``, ``wmax``, ``fault_leak``)
    validated against the registered builder like every other plane.
    """

    kind: str = "packet"
    params: Dict[str, Any] = field(default_factory=dict)

    BASE_KEYS = ("kind",)

    @property
    def is_default(self) -> bool:
        return self.kind == "packet" and not self.params

    @classmethod
    def from_document(cls, document: Any, context: str = "backend") -> "BackendSpec":
        document = _require_mapping(document, context)
        kind = document.get("kind", "packet")
        BACKENDS.get(kind)
        return cls(
            kind=kind,
            params=_split_params(document, cls.BASE_KEYS, BACKENDS, kind, context),
        )

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {"kind": self.kind}
        document.update(self.params)
        return document


@dataclass
class MetricsSpec:
    """How results are collected."""

    slice_seconds: float = 20.0

    BASE_KEYS = ("slice_seconds",)

    @classmethod
    def from_document(cls, document: Any, context: str = "metrics") -> "MetricsSpec":
        document = _require_mapping(document, context)
        for key in document:
            if key not in cls.BASE_KEYS:
                raise SpecError(unknown_key_message(key, context, cls.BASE_KEYS))
        return cls(
            slice_seconds=_number(document.get("slice_seconds", 20.0),
                                  "slice_seconds", context, minimum=0.0),
        )

    def to_document(self) -> Dict[str, Any]:
        return {"slice_seconds": self.slice_seconds}


@dataclass
class ScenarioSpec:
    """A complete, buildable description of one simulation run."""

    topology: TopologySpec
    name: str = "unnamed"
    seed: int = 1
    duration: float = 0.0
    queue: QueueSpec = field(default_factory=QueueSpec)
    workloads: List[WorkloadSpec] = field(default_factory=list)
    metrics: MetricsSpec = field(default_factory=MetricsSpec)
    #: Which engine runs it: packet event simulation (default) or the
    #: mean-field fluid integrator.
    backend: BackendSpec = field(default_factory=BackendSpec)
    #: Modules imported before building, so out-of-tree components can
    #: register themselves (see :func:`repro.build.load_plugins`).
    plugins: List[str] = field(default_factory=list)

    BASE_KEYS = ("name", "seed", "duration", "topology", "queue", "workloads",
                 "metrics", "backend", "plugins")

    @classmethod
    def from_document(cls, document: Any, context: str = "scenario") -> "ScenarioSpec":
        document = _require_mapping(document, context)
        for key in document:
            if key not in cls.BASE_KEYS:
                raise SpecError(unknown_key_message(key, context, cls.BASE_KEYS))
        plugins = document.get("plugins", [])
        if not isinstance(plugins, list) or not all(isinstance(p, str) for p in plugins):
            raise SpecError(f"'plugins' in {context} must be a list of module names")
        load_plugins(plugins)
        duration = _number(_require(document, "duration", context), "duration",
                           context, minimum=0.0)
        topology = TopologySpec.from_document(_require(document, "topology", context))
        queue = QueueSpec.from_document(document.get("queue", {"kind": "droptail"}))
        workloads_doc = _require(document, "workloads", context)
        if not isinstance(workloads_doc, list) or not workloads_doc:
            raise SpecError("workloads must be a non-empty list")
        workloads = [
            WorkloadSpec.from_document(entry, context=f"workloads[{index}]")
            for index, entry in enumerate(workloads_doc)
        ]
        seed = document.get("seed", 1)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise SpecError(f"'seed' in {context} must be an integer, got {seed!r}")
        return cls(
            topology=topology,
            name=str(document.get("name", "unnamed")),
            seed=seed,
            duration=duration,
            queue=queue,
            workloads=workloads,
            metrics=MetricsSpec.from_document(document.get("metrics", {})),
            backend=BackendSpec.from_document(document.get("backend", {})),
            plugins=list(plugins),
        )

    @classmethod
    def from_file(cls, path: str) -> "ScenarioSpec":
        def reject_constant(literal: str) -> Any:
            # json.load accepts NaN / Infinity / -Infinity, which are not JSON.
            raise SpecError(f"invalid JSON in {path}: {literal} is not a JSON number")

        with open(path, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle, parse_constant=reject_constant)
            except json.JSONDecodeError as exc:
                raise SpecError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_document(document)

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "duration": self.duration,
            "topology": self.topology.to_document(),
            "queue": self.queue.to_document(),
            "workloads": [w.to_document() for w in self.workloads],
            "metrics": self.metrics.to_document(),
        }
        if not self.backend.is_default:
            # The default packet backend is omitted so pre-backend
            # documents, cache keys, and manifests stay byte-identical.
            document["backend"] = self.backend.to_document()
        if self.plugins:
            document["plugins"] = list(self.plugins)
        return document

    def canonical(self) -> Dict[str, Any]:
        """A JSON-safe rendering of :meth:`to_document`.

        Programmatic specs may hold live objects in ``params`` (e.g. a
        pre-built admission controller); those are rendered via
        ``repr`` so the result always serializes — this is what travels
        in :class:`repro.parallel.PointSpec` and the run manifest.
        """
        return _json_safe(self.to_document())


def _json_safe(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return repr(value)
