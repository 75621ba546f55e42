"""Timeout Aware Queuing (TAQ) — the paper's contribution.

TAQ is an in-network middlebox realized as a queue discipline for the
bottleneck link.  It combines:

- :mod:`repro.core.epoch` — middlebox-side RTT ("epoch") estimation,
  two-way when ACKs are visible, SYN-to-first-data + burst tracking
  when only one direction is observable (§3.3);
- :mod:`repro.core.tracker` + :mod:`repro.core.classifier` — per-flow
  observation (new packets, highest sequence, retransmissions, drops)
  and the approximate state model of Fig 7 (slow start / normal /
  loss recovery / timeout silence / timeout recovery / extended
  silence / dormant);
- :mod:`repro.core.fairshare` — per-flow rate estimation against the
  fair-queuing (or RTT-proportional) fair share;
- :mod:`repro.core.scheduler` — the five queues (Recovery, NewFlow,
  OverPenalized, BelowFairShare, AboveFairShare) arranged in the
  3-level hierarchy of §4.2, with silence-length priority inside the
  recovery queue and a capacity cap on recovery service;
- :mod:`repro.core.admission` — flow-pool admission control triggered
  when the drop rate crosses the model's tipping point
  ``p_thresh = 0.1`` (§4.3);
- :class:`repro.core.taq.TAQQueue` — the assembled queue discipline.
"""

from importlib import import_module

#: Where each name lives: imported on first use (docs/performance.md,
#: *Cold start*).
_SOURCES = {
    "AdmissionController": "repro.core.admission",
    "classify_epoch": "repro.core.classifier",
    "TaqReport": "repro.core.report",
    "taq_report": "repro.core.report",
    "EpochEstimator": "repro.core.epoch",
    "FairShareEstimator": "repro.core.fairshare",
    "PacketClass": "repro.core.scheduler",
    "TAQScheduler": "repro.core.scheduler",
    "FlowState": "repro.core.states",
    "TAQQueue": "repro.core.taq",
    "FlowRecord": "repro.core.tracker",
    "FlowTracker": "repro.core.tracker",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_SOURCES[name]), name)
    return value
