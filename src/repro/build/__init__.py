"""The declarative build plane: typed specs + pluggable registries.

One simulation run is described by a :class:`ScenarioSpec` (topology +
queue + workloads + metrics) and constructed by
:func:`build_simulation`.  The components behind the spec's short kind
strings live in four decorator-populated registries — adding a queue
discipline, topology, workload generator or backend never means
editing an if/elif chain:

>>> from repro.build import QUEUES
>>> @QUEUES.register("myqueue")
... def _build(ctx):
...     return MyQueue(ctx.buffer_pkts)

Out-of-tree modules register the same way and enter JSON scenarios via
the document's ``"plugins"`` list (see :func:`load_plugins`).
:func:`point` marks the functions a :class:`repro.parallel.PointSpec`
may name: a sweep runs marked points only.

Each name is imported the first time it is asked for, and the builtin
kinds when a registry first misses (:func:`load_builtins`), so a sweep
that only marks, resolves and serves cached points never loads the
harness or the simulator (docs/performance.md, *Cold start*).
"""

from importlib import import_module

#: Where each name lives: imported on first use.
_SOURCES = {
    "BACKENDS": "repro.build.registries",
    "BackendSpec": "repro.build.spec",
    "BuiltScenario": "repro.build.harness",
    "DuplicateKindError": "repro.build.errors",
    "MetricsSpec": "repro.build.spec",
    "QUEUES": "repro.build.registries",
    "QueueContext": "repro.build.harness",
    "QueueSpec": "repro.build.spec",
    "Registry": "repro.build.registry",
    "RegistryError": "repro.build.errors",
    "ScenarioSpec": "repro.build.spec",
    "SpecError": "repro.build.errors",
    "TOPOLOGIES": "repro.build.registries",
    "TopologyContext": "repro.build.harness",
    "TopologySpec": "repro.build.spec",
    "UnknownKindError": "repro.build.errors",
    "WORKLOADS": "repro.build.registries",
    "WorkloadContext": "repro.build.harness",
    "WorkloadGroup": "repro.build.harness",
    "WorkloadSpec": "repro.build.spec",
    "build_queue": "repro.build.harness",
    "build_simulation": "repro.build.harness",
    "load_builtins": "repro.build.registries",
    "load_plugins": "repro.build.registries",
    "manifest_payloads": "repro.build.harness",
    "point": "repro.build.registry",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_SOURCES[name]), name)
    return value
