"""The instrumentation seam: one observer slot per component.

Every instrumented component carries exactly one slot, ``obs``, ``None``
until something subscribes.  A hook site is one guard and one call that
passes the component itself (plus the packet and time where there is
one); subscribers pull whatever fields they want from it::

    if self.obs is not None:
        self.obs.rto(self, now)

Unarmed, a site costs that one ``is None`` test: no call, no loop.
Armed, the slot holds the subscriber itself when there is one, else a
:class:`Fanout` whose routes are fixed when it is composed from its
held subscribers, so a subscriber is only invoked for events its class
implements.
``docs/observability.md`` has the vocabulary table with each event's
arguments and subscribers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: Emitting class -> the events it adds to its bases'.  Fixed and small
#: on purpose; ``FlowTracker`` only hands its slot to the
#: ``FlowRecord``s it creates.
VOCABULARY = {
    "Simulator": ("run_start", "run_end", "event", "flow_spawned"),
    "TCPSender": ("sent", "syn_retry", "established", "retransmit",
                  "fast_retransmit", "rto", "flow_done"),
    "Link": ("enqueued", "tx", "delivered"),
    "QueueDiscipline": ("dropped",),
    "TAQQueue": ("refused", "penalized", "evicted"),
    "FlowTracker": ("flow_state",),
    "FlowRecord": ("flow_state",),
    "FluidModel": ("step",),
}


def _ignore(self, *args: Any) -> None:
    """An event the subscriber's class does not implement."""


class Observer:
    """Base class of every subscriber: a subclass implements only the
    events it uses, the rest stay :func:`_ignore`.  Observers must be
    passive — never schedule or cancel events, draw randomness or
    mutate a component — so that an armed run stays bit-identical to an
    unarmed one."""

    __slots__ = ()


for _events in VOCABULARY.values():
    for _name in _events:
        setattr(Observer, _name, _ignore)


def implements(observer: Observer, event: str) -> bool:
    """True when *observer* does work for *event*."""
    return bool(_handlers(observer, (event,)))


def _fan(targets: Sequence[Callable[..., None]]) -> Callable[..., None]:
    def fan(*args: Any) -> None:
        for target in targets:
            target(*args)

    return fan


def _handlers(observer: Observer, events: Tuple[str, ...]) -> Dict[str, Callable[..., None]]:
    """*observer*'s bound methods among *events*: the ones it does work
    for, that is every event whose method is not the inherited no-op."""
    handlers = {}
    for name in events:
        method = getattr(observer, name)
        if getattr(method, "__func__", None) is not _ignore:
            handlers[name] = method
    return handlers


class Fanout(Observer):
    """Several subscribers behind one slot, in subscription order.
    Each of the component's events is routed once, here, from the held
    subscribers: straight to the bound method when one subscriber
    implements it, through a loop when several do, and left as the
    inherited no-op when none does."""

    def __init__(self, held: List[Observer], events: Tuple[str, ...]) -> None:
        self.subscribers = held
        routes: Dict[str, List[Callable[..., None]]] = {}
        for subscriber in held:
            for name, method in _handlers(subscriber, events).items():
                routes.setdefault(name, []).append(method)
        for name, targets in routes.items():
            setattr(self, name,
                    targets[0] if len(targets) == 1 else _fan(targets))


def subscribers(component: Any) -> List[Observer]:
    """The observers currently subscribed to *component*."""
    obs = component.obs
    if obs is None:
        return []
    return list(obs.subscribers) if isinstance(obs, Fanout) else [obs]


#: Emitting class -> its events, bases' included (VOCABULARY is fixed).
_EVENTS: Dict[type, Tuple[str, ...]] = {}


def _events_of(component: Any) -> Tuple[str, ...]:
    klass = type(component)
    events = _EVENTS.get(klass)
    if events is None:
        events = _EVENTS[klass] = tuple(
            name for base in klass.__mro__
            for name in VOCABULARY.get(base.__name__, ()))
    return events


def _hold(component: Any, held: List[Observer]) -> None:
    if len(held) > 1:
        component.obs = Fanout(held, _events_of(component))
    else:
        component.obs = held[0] if held else None


def subscribe(component: Any, observer: Observer) -> None:
    """Add *observer* to *component*'s slot, composing with whoever is
    already there.  Nothing happens when *observer* implements none of
    the component's events (so it is never called for nothing) or is
    subscribed already."""
    if not _handlers(observer, _events_of(component)):
        return
    held = subscribers(component)
    if observer not in held:
        _hold(component, held + [observer])


def unsubscribe(component: Any, observer: Observer) -> None:
    """Remove *observer* from *component*'s slot (a no-op if absent)."""
    _hold(component, [s for s in subscribers(component) if s is not observer])


#: What ``profiled()`` and ``recording()`` are made of: the observers
#: ``build_simulation`` arms (``observer.arm(built)``) on every build.
AMBIENT: List[Observer] = []


@contextmanager
def ambient(observer: Observer) -> Iterator[Observer]:
    """``with ambient(observer):`` — every simulation built inside the
    block is handed to ``observer.arm(built)``, which subscribes to
    whatever it wants.  Blocks nest, and every observer on the stack
    arms every build."""
    AMBIENT.append(observer)
    try:
        yield observer
    finally:
        AMBIENT.pop()
