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

from repro.metrics.fairness import SliceGoodputCollector, jain_index
from repro.metrics.evolution import FlowEvolution, classify_evolution
from repro.metrics.hangs import hang_durations, longest_hang
from repro.metrics.downloads import (
    DownloadSample,
    bucket_statistics,
    cdf_points,
    log_bucket,
)
from repro.metrics.flowstats import goodput_efficiency

__all__ = [
    "SliceGoodputCollector",
    "jain_index",
    "FlowEvolution",
    "classify_evolution",
    "hang_durations",
    "longest_hang",
    "DownloadSample",
    "bucket_statistics",
    "cdf_points",
    "log_bucket",
    "goodput_efficiency",
]
