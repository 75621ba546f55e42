"""The registries of the build plane, plus builtin loading.

Kept separate from :mod:`repro.build.registry` (the mechanism) and the
builtin component modules (the population) so that plugin modules can
``from repro.build.registries import QUEUES`` without importing the
whole harness: the builtin kinds, and the harness with them, load when
a registry is first asked for a kind it does not hold, registers one or
lists its kinds (:func:`load_builtins`).
"""

from __future__ import annotations

import importlib

from repro.build.registry import Registry

#: Queue disciplines: builders take a :class:`repro.build.harness.QueueContext`.
QUEUES = Registry("queue discipline")

#: Topologies: builders take a :class:`repro.build.harness.TopologyContext`.
TOPOLOGIES = Registry("topology")

#: Workload generators: builders take a
#: :class:`repro.build.harness.WorkloadContext` and return a
#: :class:`repro.build.harness.WorkloadGroup`.
WORKLOADS = Registry("workload")

#: Simulation backends: builders take a full
#: :class:`repro.build.ScenarioSpec` and return something with
#: ``run()`` — the packet event simulator or the mean-field fluid
#: integrator (:mod:`repro.fluid`).
BACKENDS = Registry("backend")

#: Modules whose import populates the registries with the built-in kinds.
#: Every packet run imports all of them, so none may load numpy:
#: ``builtin_backends`` registers the ``fluid`` kind and imports the
#: engine when a fluid document is built.
BUILTIN_MODULES = (
    "repro.build.builtin_queues",
    "repro.build.builtin_topologies",
    "repro.build.builtin_workloads",
    "repro.queues.favorqueue",
    "repro.build.builtin_backends",
)


def load_builtins() -> None:
    """Import the builtin component modules (idempotent).

    Every registry calls it when it misses a kind, registers one or
    lists its kinds, so no caller needs to.
    """
    for module in BUILTIN_MODULES:
        importlib.import_module(module)


def load_plugins(modules) -> None:
    """Import *modules* so their registration decorators run.

    This is how a scenario document's ``"plugins"`` list brings
    out-of-tree disciplines/topologies/workloads into scope without
    any edit to this repository.
    """
    from repro.build.errors import SpecError

    for module in modules:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise SpecError(f"cannot import plugin module {module!r}: {exc}") from exc
