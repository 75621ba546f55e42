"""Event handles and the calendar-queue scheduler backing the simulator.

Events are ordered by ``(time, sequence)``: the sequence number is a
monotonically increasing tie-breaker, which gives deterministic FIFO
ordering for events scheduled at the same instant.

The store is a **bucketed timer wheel** (a calendar queue in the style
of Brown 1988) rather than a binary heap: pending events hash into
``floor(time / width)`` buckets spread over a power-of-two array of
slots, each slot a small list kept sorted by the precomputed
``(time, seq, event)`` entry tuple.  Insert is an O(1)-amortized bisect
into a slot of a few entries; pop takes the cached head and, most of
the time, finds its successor adjacent in the same bucket.  All
ordering decisions compare plain tuples in C — no Python-level
``__lt__`` calls on the hot path, which is where the old heap spent
most of its time.

The wheel sizes itself from the live population, with a degenerate
small-population mode: up to ``_LIST_MAX`` live events the "wheel" is a
single sorted slot — every entry maps to bucket 0, so push skips the
bucket arithmetic entirely and pop is ``del slot[0]`` of a short list.
That is the fastest structure Python offers at the populations real
scenarios hold (a few hundred timers), and it is still the same
calendar queue, just with one slot.  Past ``_LIST_MAX`` the store
spreads into a power-of-two slot array sized to ``live /
TARGET_OCCUPANCY`` (so each slot holds a handful of entries — coarse
enough that consecutive pops usually stay in one bucket, fine enough
that bisects stay cheap) with the bucket width a multiple of the mean
gap between the earliest pending events.  Either way, pop order is the
global ``(time, seq)`` minimum — the layout can never change *which*
event pops next — and resizing depends only on the sequence of
operations performed, so replaying a schedule/cancel script reproduces
bit-identical pop order: the determinism contract the goldens pin.

Cancellation is **physical**: :meth:`Event.cancel` removes the entry
from its slot immediately (a bisect plus a small memmove), so cancelled
timers never accumulate as tombstones and the pop loop never has to
reap them — the retransmit-timer churn TCP subjects the scheduler to
costs one slot edit instead of a heap percolation now and a discard
later.  The live-event count is tracked incrementally, making
``len(queue)`` O(1).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import nsmallest
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "EventQueue"]

#: Largest live population served by the single-slot layout.  Up to
#: here one sorted list (bisect insert, pop-from-front) beats the full
#: wheel: no bucket arithmetic on push, and the pop memmove is at most
#: a few KiB.  Past it, slot edits would start moving too much memory
#: and the store spreads into a real slot array.
_LIST_MAX = 512
#: Mean entries per slot right after a resize.  A couple: consecutive
#: pops then usually hit the same bucket (head fast path) while slot
#: bisects stay a few C comparisons.
_TARGET_OCCUPANCY = 2
#: Grow when mean occupancy exceeds this (8x the post-resize target):
#: resizes then happen once per ~8x population growth, keeping total
#: rebuild work well under one entry-move per push.
_GROW_OCCUPANCY = 16
#: Bucket width as a multiple of the mean inter-event gap.
_WIDTH_GAPS = 8.0
#: Inter-event gaps sampled (from the earliest pending events) when the
#: wheel re-estimates its bucket width on resize.
_WIDTH_SAMPLE = 64
#: Bucket index used for times the float bucket arithmetic cannot
#: represent (``inf``); entry-tuple comparisons still order them.
_FAR_BUCKET = 1 << 62

#: A slot entry: the precomputed comparison key with its event.
_Entry = Tuple[float, int, "Event"]


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`repro.sim.simulator.Simulator.schedule`
    and can be cancelled at any point before they fire.  After an event
    has fired or been cancelled, cancelling again is a no-op.
    """

    # ``EventQueue.push`` is the only constructor.  ``_queue`` is the
    # owning queue while scheduled (None once popped or cancelled),
    # ``_bucket`` the absolute wheel bucket under its current width.
    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired",
                 "_queue", "_bucket")

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._remove(self)

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} #{self.seq} {name} [{state}]>"


class EventQueue:
    """A calendar-queue priority structure of :class:`Event` objects.

    The public surface is unchanged from the heap era — ``push``,
    ``pop``, ``peek_time``, ``len``/``bool`` — plus :meth:`pop_due`,
    the single-scan pop-if-due the run loop uses.  Pop order is exactly
    ``(time, seq)``, including FIFO ties, whatever the interleaving of
    schedules and cancellations (property-tested differentially against
    a reference heap in ``tests/sim/test_wheel_differential.py``).

    The hot methods trade a little repetition for speed: ``push``
    builds its :class:`Event` inline and ``pop_due`` duplicates the pop
    body, because at millions of events per run every spare Python call
    frame shows up in the benchmarks.
    """

    __slots__ = ("_slots", "_nslots", "_mask", "_width", "_live",
                 "_next_seq", "_last_time", "_head", "discards")

    def __init__(self) -> None:
        # Single-slot layout (mask 0): every entry buckets to 0 and the
        # one slot is simply the sorted pending list.  _resize() swaps
        # in the spread wheel once the population outgrows _LIST_MAX.
        self._nslots = 1
        self._mask = 0
        self._width = float("inf")
        self._slots: List[List[_Entry]] = [[]]
        self._live = 0
        self._next_seq = 0
        # Lower bound on every pending event's time (the last popped
        # event's time, lowered again by any push scheduled before it);
        # anchors the wheel scan.
        self._last_time = 0.0
        # Cached minimum entry, or None when unknown (recomputed lazily).
        self._head: Optional[_Entry] = None
        #: Cancelled events removed from the wheel so far (always on; the
        #: perf probe reports it as ``sim.heap_discards``).
        self.discards = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule *callback(\\*args)* at absolute *time* and return its handle."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.fired = False
        event._queue = self
        mask = self._mask
        if mask:
            try:
                bucket = int(time / self._width)
            except (OverflowError, ValueError):
                bucket = _FAR_BUCKET
            event._bucket = bucket
            entry = (time, seq, event)
            insort(self._slots[bucket & mask], entry)
            live = self._live + 1
            self._live = live
            if time < self._last_time:
                # Scheduling into the past: restore the _last_time lower
                # bound or _find_head would start its scan beyond this
                # event's bucket and pop a later event first.
                self._last_time = time
            head = self._head
            if head is not None:
                if entry < head:
                    self._head = entry
            elif live == 1:
                self._head = entry
            if live > (self._nslots << 4):
                self._resize()
        else:
            # Single-slot layout: no bucket arithmetic at all.
            event._bucket = 0
            entry = (time, seq, event)
            insort(self._slots[0], entry)
            live = self._live + 1
            self._live = live
            if time < self._last_time:
                self._last_time = time
            head = self._head
            if head is not None:
                if entry < head:
                    self._head = entry
            elif live == 1:
                self._head = entry
            if live > _LIST_MAX:
                self._resize()
        return event

    # ------------------------------------------------------------------
    # Popping
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, or ``None``."""
        if self._live == 0:
            return None
        head = self._head
        if head is None:
            head = self._find_head()
        event = head[2]
        bucket = event._bucket
        slot = self._slots[bucket & self._mask]
        # The head is the global minimum, so it leads its slot.
        del slot[0]
        self._live -= 1
        self._last_time = head[0]
        event._queue = None
        # Fast path: anything left in the popped event's bucket is the
        # next global minimum (no pending event can sit in an earlier
        # bucket, and equal buckets share this slot).
        if slot and slot[0][2]._bucket == bucket:
            self._head = slot[0]
        else:
            self._head = None
        if self._live < (self._nslots >> 2) and self._nslots > 1:
            self._resize()
        return event

    def pop_due(self, limit: float) -> Optional[Event]:
        """Pop the earliest event if its time is ``<= limit``, else ``None``.

        The run loop's single-scan combination of :meth:`peek_time` and
        :meth:`pop` (body inlined: this is the hottest call in a run).
        """
        if self._live == 0:
            return None
        head = self._head
        if head is None:
            head = self._find_head()
        if head[0] > limit:
            return None
        event = head[2]
        bucket = event._bucket
        slot = self._slots[bucket & self._mask]
        del slot[0]
        self._live -= 1
        self._last_time = head[0]
        event._queue = None
        if slot and slot[0][2]._bucket == bucket:
            self._head = slot[0]
        else:
            self._head = None
        if self._live < (self._nslots >> 2) and self._nslots > 1:
            self._resize()
        return event

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest pending event, or ``None``."""
        if self._live == 0:
            return None
        head = self._head
        if head is None:
            head = self._find_head()
        return head[0]

    def _find_head(self) -> _Entry:
        """Locate, cache and return the minimum entry (``_live`` > 0)."""
        slots = self._slots
        mask = self._mask
        try:
            bucket = int(self._last_time / self._width)
        except (OverflowError, ValueError):
            bucket = _FAR_BUCKET
        for _ in range(self._nslots):
            slot = slots[bucket & mask]
            if slot:
                entry = slot[0]
                if entry[2]._bucket == bucket:
                    self._head = entry
                    self._last_time = entry[0]
                    return entry
            bucket += 1
        # A whole lap found nothing due this "year": the population is
        # sparse relative to the wheel, so take the minimum directly.
        head = min(slot[0] for slot in slots if slot)
        self._head = head
        self._last_time = head[0]
        return head

    # ------------------------------------------------------------------
    # Cancellation (called by Event.cancel)
    # ------------------------------------------------------------------
    def _remove(self, event: Event) -> None:
        slot = self._slots[event._bucket & self._mask]
        # (time, seq) sorts immediately before its own (time, seq, event)
        # entry, so bisect_left lands exactly on the entry to delete.
        del slot[bisect_left(slot, (event.time, event.seq))]
        self._live -= 1
        event._queue = None
        head = self._head
        if head is not None and head[1] == event.seq:
            self._head = None
        self.discards += 1
        if self._live < (self._nslots >> 2) and self._nslots > 1:
            self._resize()

    # ------------------------------------------------------------------
    # Wheel maintenance
    # ------------------------------------------------------------------
    def _resize(self) -> None:
        """Rebuild the store around the current live population.

        Triggered when mean slot occupancy leaves ``[1, 4 * TARGET]``
        (or when the single slot outgrows ``_LIST_MAX``); the new slot
        count restores roughly ``_TARGET_OCCUPANCY`` entries per slot,
        so successive resizes are geometric and the total rebuild work
        stays O(1) amortized per operation.
        """
        entries = [entry for slot in self._slots for entry in slot]
        live = len(entries)
        if live <= _LIST_MAX:
            # Collapse back to the single sorted slot.
            if self._nslots == 1:
                return
            self._nslots = 1
            self._mask = 0
            self._width = float("inf")
            entries.sort()
            self._slots = [entries]
            for entry in entries:
                entry[2]._bucket = 0
            return
        nslots = 2
        while nslots * _TARGET_OCCUPANCY < live:
            nslots <<= 1
        if nslots == self._nslots:
            # Population sits between the grow and shrink bands; a
            # rebuild at the same size would be wasted work.
            return
        self._nslots = nslots
        mask = self._mask = nslots - 1
        width = self._width = self._estimate_width(entries)
        slots = self._slots = [[] for _ in range(nslots)]
        for entry in entries:
            try:
                bucket = int(entry[0] / width)
            except (OverflowError, ValueError):
                bucket = _FAR_BUCKET
            entry[2]._bucket = bucket
            slots[bucket & mask].append(entry)
        for slot in slots:
            if len(slot) > 1:
                slot.sort()

    def _estimate_width(self, entries: List[_Entry]) -> float:
        """Bucket width from the gaps between the earliest pending events.

        Deterministic: depends only on the pending population, so
        replayed schedules resize identically.
        """
        if len(entries) < 2:
            return min(self._width, 1e12)
        sample = nsmallest(_WIDTH_SAMPLE + 1, (entry[0] for entry in entries))
        gaps = [b - a for a, b in zip(sample, sample[1:]) if b > a]
        finite = [gap for gap in gaps if gap < float("inf")]
        if not finite:
            return min(self._width, 1e12)
        width = _WIDTH_GAPS * sum(finite) / len(finite)
        # Clamp against degenerate populations (all-identical or
        # astronomically spread timestamps).
        return min(max(width, 1e-12), 1e12)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live (pending) events.  O(1): tracked incrementally."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
