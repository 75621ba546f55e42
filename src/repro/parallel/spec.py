"""Picklable descriptions of one simulation point and its outcome.

A :class:`PointSpec` names its target function by dotted path
(``"package.module:callable"``) rather than holding the callable
itself, so a spec crosses process boundaries as two plain strings and
a kwargs dict — no closure pickling, no dependence on how the parent
process imported things.  Only a function marked with
:func:`repro.build.point` resolves: a spec that arrives over the wire
(``taq-serve``'s ``/submit``) can name a sweep point, never ``os:system``.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict


@dataclass
class PointSpec:
    """One unit of experiment work: call ``fn(**kwargs)``.

    Parameters
    ----------
    fn:
        Dotted path ``"package.module:callable"`` of a module-level
        function marked with :func:`repro.build.point`.
    kwargs:
        Keyword arguments for the call.  Must be picklable for
        ``jobs > 1`` and JSON-stable for caching — scalars, strings
        and sequences thereof, which is all a sweep point needs
        (queue kind, capacity, fair share, seed, duration, ...).
    label:
        Optional human-readable tag used by progress reporting.
    """

    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def resolve(self) -> Callable[..., Any]:
        """Import and return the target, refusing any unmarked callable."""
        return _resolve(self.fn)

    def describe(self) -> str:
        """The label, or a compact fn(kwargs) rendering as fallback."""
        if self.label:
            return self.label
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.kwargs.items()))
        return f"{self.fn.partition(':')[2]}({args})"


# Once per process and path: a sweep resolves the same few functions for
# every point.  A refusal raises, so it is never cached and an unmarked
# callable is refused on every request.
@functools.lru_cache(maxsize=None)
def _resolve(fn: str) -> Callable[..., Any]:
    module_name, _, attr = fn.partition(":")
    if not attr:
        raise ValueError(f"spec fn {fn!r} must look like 'package.module:callable'")
    target = getattr(importlib.import_module(module_name), attr)
    if getattr(target, "repro_point", False) is not True:
        raise ValueError(f"spec fn {fn!r} is not a @point function")
    return target


@dataclass
class PointResult:
    """The outcome of one executed (or cache-served) :class:`PointSpec`."""

    spec: PointSpec
    value: Any
    #: Seconds the point took to compute.  For cache hits this is the
    #: wall time recorded when the point was originally computed.
    wall_time: float
    #: True when the value came from the on-disk cache.
    cached: bool = False
    #: Seconds the cache lookup itself took (hits only; 0.0 for
    #: computed points).  Kept separate from ``wall_time`` so sweep
    #: timing summaries never dilute cold-run compute time with the
    #: near-zero cost of serving hits.
    lookup_time: float = 0.0
