"""Queue disciplines.

The paper compares TAQ against the queueing mechanisms deployed in
practice: plain tail-drop (DropTail), Random Early Detection (RED) and
Stochastic Fair Queueing (SFQ).  All three are implemented here behind
the common :class:`~repro.queues.base.QueueDiscipline` interface; TAQ
itself lives in :mod:`repro.core` because it is the paper's
contribution rather than a baseline.
"""

from importlib import import_module

#: Where each name lives: imported on first use (docs/performance.md,
#: *Cold start*).
_SOURCES = {
    "QueueDiscipline": "repro.queues.base",
    "DropTailQueue": "repro.queues.droptail",
    "REDQueue": "repro.queues.red",
    "SFQQueue": "repro.queues.sfq",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_SOURCES[name]), name)
    return value
