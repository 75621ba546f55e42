"""Event handles and the sorted pending list backing the simulator.

Events are ordered by ``(time, sequence)``: the sequence number is a
monotonically increasing tie-breaker, which gives deterministic FIFO
ordering for events scheduled at the same instant.

The store is **one list of ``(time, seq, event)`` tuples kept sorted**:
push is a C ``insort``, pop reads and deletes ``pending[0]``, and every
ordering decision compares plain tuples in C — no Python-level
``__lt__`` on the hot path.  Insert and front delete are one memmove of
at most the live population, which at the populations the paper's
regime holds (a few hundred timers; the largest shipped scenario peaks
under 500) beats any structure with bookkeeping of its own.  Past
~2 000 live events a tuple ``heapq`` with tombstones overtakes it
(docs/architecture.md, *The event store*); ``tests/sim/test_population.py``
fails before a shipped scenario gets there.

Cancellation is **physical**: :meth:`Event.cancel` bisects to the entry
and deletes it, so cancelled timers never accumulate as tombstones,
``len(queue)`` is the length of the list and ``discards`` is a fact
counted when the cancel happens.  Pop order depends on nothing but the
entries themselves, so replaying a schedule/cancel script reproduces
bit-identical pop order: the determinism contract the goldens pin.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`repro.sim.simulator.Simulator.schedule`
    and can be cancelled at any point before they fire.  After an event
    has fired or been cancelled, cancelling again is a no-op.
    """

    # Built only by ``EventQueue.push`` and the scheduling methods of
    # ``Simulator``, which repeat its body.  ``_queue`` is the owning
    # queue while scheduled (None once popped or cancelled).
    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_queue")

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            # Delete the entry here rather than through a queue method:
            # every timer restart cancels, so this is one frame per
            # restart.  (time, seq) sorts immediately before its own
            # (time, seq, event) entry, so bisect_left lands on it.
            pending = queue._pending
            del pending[bisect_left(pending, (self.time, self.seq))]
            self._queue = None
            queue.discards += 1

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} #{self.seq} {name} [{state}]>"


class EventQueue:
    """A priority queue of :class:`Event` objects.

    Pop order is exactly ``(time, seq)``, including FIFO ties, events
    scheduled before the last popped time and ``inf`` times, whatever
    the interleaving of schedules and cancellations (property-tested
    differentially against a reference heap in
    ``tests/sim/test_events_differential.py``).

    ``push`` builds its :class:`Event` inline, and the simulator's
    scheduling methods and run loop repeat the push and pop bodies on
    ``_pending`` itself, because at millions of events per run every
    spare Python call frame shows up in the benchmarks.
    """

    __slots__ = ("_pending", "_next_seq", "discards")

    def __init__(self) -> None:
        self._pending: List[Tuple[float, int, Event]] = []
        self._next_seq = 0
        #: Cancelled events removed from the store so far (always on; the
        #: perf probe reports it as ``sim.heap_discards``).
        self.discards = 0

    def push(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule *callback(\\*args)* at absolute *time* and return its handle."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event()
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.fired = False
        event._queue = self
        insort(self._pending, (time, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, or ``None``."""
        pending = self._pending
        if not pending:
            return None
        event = pending[0][2]
        del pending[0]
        event._queue = None
        return event

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest pending event, or ``None``."""
        pending = self._pending
        return pending[0][0] if pending else None

    def __len__(self) -> int:
        """Number of live (pending) events."""
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)
