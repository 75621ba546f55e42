"""Measurement machinery for the paper's evaluation.

- :mod:`repro.metrics.fairness` — Jain's fairness index and the
  time-sliced goodput collector behind Figs 2, 8, 11;
- :mod:`repro.metrics.evolution` — per-epoch flow classification
  (arriving / dropped / maintained / stalled) behind Fig 9;
- :mod:`repro.metrics.hangs` — user-perceived hang detection over
  web-session connection pools (§2.3);
- :mod:`repro.metrics.downloads` — size-bucketed download-time
  percentiles (Fig 1) and CDFs (Fig 12);
- :mod:`repro.metrics.flowstats` — per-flow rollups (goodput efficiency).
"""

from importlib import import_module

#: Where each name lives: imported on first use (docs/performance.md,
#: *Cold start*).
_SOURCES = {
    "SliceGoodputCollector": "repro.metrics.fairness",
    "jain_index": "repro.metrics.fairness",
    "FlowEvolution": "repro.metrics.evolution",
    "classify_evolution": "repro.metrics.evolution",
    "hang_durations": "repro.metrics.hangs",
    "longest_hang": "repro.metrics.hangs",
    "DownloadSample": "repro.metrics.downloads",
    "bucket_statistics": "repro.metrics.downloads",
    "cdf_points": "repro.metrics.downloads",
    "log_bucket": "repro.metrics.downloads",
    "goodput_efficiency": "repro.metrics.flowstats",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_SOURCES[name]), name)
    return value
