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

from repro.workloads.bulk import spawn_bulk_flows
from repro.workloads.shortflows import spawn_short_flows
from repro.workloads.traces import (
    SyntheticTrace,
    TraceRequest,
    generate_trace,
    replay_trace,
    sample_object_size,
)
from repro.workloads.web import WebUser, spawn_web_users

__all__ = [
    "spawn_bulk_flows",
    "spawn_short_flows",
    "SyntheticTrace",
    "TraceRequest",
    "generate_trace",
    "replay_trace",
    "sample_object_size",
    "WebUser",
    "spawn_web_users",
]
