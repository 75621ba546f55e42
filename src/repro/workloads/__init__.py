"""Workload generators.

- :mod:`repro.workloads.bulk` — long-running bulk flows (the Fig 2/8/9
  population);
- :mod:`repro.workloads.web` — web-session users: pools of parallel TCP
  connections draining an object queue (the §2.3 hang experiment and
  the Fig 12 admission-control replay);
- :mod:`repro.workloads.shortflows` — short flows injected over a
  long-flow background (Fig 10);
- :mod:`repro.workloads.traces` — a synthetic proxy access log
  calibrated to the paper's Kerala-university aggregates, plus a replay
  engine (Fig 1).  See DESIGN.md for the substitution rationale.
"""

from importlib import import_module

#: Where each name lives: imported on first use (docs/performance.md,
#: *Cold start*).
_SOURCES = {
    "spawn_bulk_flows": "repro.workloads.bulk",
    "spawn_short_flows": "repro.workloads.shortflows",
    "SyntheticTrace": "repro.workloads.traces",
    "TraceRequest": "repro.workloads.traces",
    "generate_trace": "repro.workloads.traces",
    "replay_trace": "repro.workloads.traces",
    "sample_object_size": "repro.workloads.traces",
    "WebUser": "repro.workloads.web",
    "spawn_web_users": "repro.workloads.web",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_SOURCES[name]), name)
    return value
