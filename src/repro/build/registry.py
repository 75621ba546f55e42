"""Decorator-based registries for pluggable build components.

A :class:`Registry` maps a short *kind* string ("droptail", "overlay",
"bulk", ...) to a builder callable.  The four instances that make up
the build plane — queue disciplines, topologies, workload generators,
backends — live in :mod:`repro.build.registries` and are populated by
:mod:`repro.build.builtin_queues` / ``builtin_topologies`` /
``builtin_workloads`` / ``builtin_backends`` when a lookup first misses
(:func:`repro.build.registries.load_builtins`).  Adding a component
never means editing an if/elif chain:

>>> from repro.build import QUEUES
>>> @QUEUES.register("myqueue")
... def _build_myqueue(ctx):
...     return MyQueue(ctx.buffer_pkts)

Builders take a context object as their only positional argument plus
keyword parameters from the spec.  The registry introspects each
builder's signature so spec validation can reject unknown parameters
with a did-you-mean suggestion (builders with ``**kwargs`` accept an
open set and are validated by the component they construct).
"""

from __future__ import annotations

import inspect
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.build.errors import (
    DuplicateKindError,
    UnknownKindError,
    did_you_mean,
)


def point(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark *fn* as a point function: the only kind of callable a
    :class:`repro.parallel.PointSpec` resolves by name."""
    fn.repro_point = True  # type: ignore[attr-defined]
    return fn


def _load_builtins() -> None:
    # By name: the builtin component modules import this one.
    import_module("repro.build.registries").load_builtins()


class Registry:
    """A named collection of kind -> builder mappings.

    Parameters
    ----------
    role:
        What the registry builds ("queue discipline", "topology",
        "workload") — used in error messages.

    The builtin kinds load whenever a lookup misses, a kind is
    registered or the kinds are listed, so a hit costs no call and a
    plugin cannot shadow a builtin kind.
    """

    def __init__(self, role: str) -> None:
        self.role = role
        self._builders: Dict[str, Callable[..., Any]] = {}

    # -- registration --------------------------------------------------
    def register(self, kind: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering *kind*; duplicate kinds are an error."""

        def decorator(builder: Callable[..., Any]) -> Callable[..., Any]:
            _load_builtins()
            if kind in self._builders:
                raise DuplicateKindError(
                    f"{self.role} kind {kind!r} is already registered "
                    f"(to {self._builders[kind]!r})"
                )
            self._builders[kind] = builder
            return builder

        return decorator

    def unregister(self, kind: str) -> None:
        """Remove *kind* (test helper; unknown kinds are an error)."""
        if kind not in self:
            raise UnknownKindError(self._unknown_message(kind))
        del self._builders[kind]

    # -- lookup --------------------------------------------------------
    def kinds(self) -> List[str]:
        """Registered kinds, sorted."""
        _load_builtins()
        return sorted(self._builders)

    def __contains__(self, kind: str) -> bool:
        if kind not in self._builders:
            _load_builtins()
        return kind in self._builders

    def get(self, kind: str) -> Callable[..., Any]:
        """The builder for *kind*; unknown kinds list what exists."""
        try:
            return self._builders[kind]
        except KeyError:
            _load_builtins()
        if kind not in self._builders:
            raise UnknownKindError(self._unknown_message(kind))
        return self._builders[kind]

    def create(self, kind: str, *args: Any, **kwargs: Any) -> Any:
        """Build an instance: ``get(kind)(*args, **kwargs)``."""
        return self.get(kind)(*args, **kwargs)

    def accepted_params(self, kind: str) -> Tuple[Optional[List[str]], bool]:
        """``(parameter names, open)`` accepted by *kind*'s builder.

        *open* is True when the builder takes ``**kwargs`` — the
        parameter set cannot be enumerated, so spec validation defers
        to the component's own constructor.
        """
        builder = self.get(kind)
        signature = inspect.signature(builder)
        names: List[str] = []
        open_ended = False
        for index, parameter in enumerate(signature.parameters.values()):
            if parameter.kind is inspect.Parameter.VAR_KEYWORD:
                open_ended = True
                continue
            if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
                continue
            if index == 0:
                continue  # the context argument is never a spec key
            names.append(parameter.name)
        return names, open_ended

    def _unknown_message(self, kind: str) -> str:
        known = self.kinds()
        message = f"unknown {self.role} kind {kind!r}"
        suggestion = did_you_mean(kind, known)
        if suggestion is not None:
            message += f" (did you mean {suggestion!r}?)"
        message += f"; registered kinds: {', '.join(known) or '(none)'}"
        return message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.role!r}, kinds={self.kinds()})"
