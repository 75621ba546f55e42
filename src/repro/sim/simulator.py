"""The simulation clock and run loop."""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.observe import implements
from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for scheduling in the past or a runaway event loop."""


class Simulator:
    """A discrete-event simulator.

    The simulator owns the clock (:attr:`now`, float seconds), the event
    queue, and the random-stream registry.  Components schedule work with
    :meth:`schedule` / :meth:`schedule_at` and the experiment driver
    advances time with :meth:`run`.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, ("hello",))
    >>> sim.run(until=10.0)
    >>> (sim.now, fired)
    (10.0, ['hello'])
    """

    def __init__(self, seed: int = 0, max_events: Optional[int] = None) -> None:
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self.events = EventQueue()
        # The queue's sorted list, which scheduling and the run loop edit
        # in place (the queue is fixed for the simulator's lifetime).
        self._pending = self.events._pending
        self.max_events = max_events
        self.processed = 0
        #: The observer slot (:mod:`repro.sim.observe`).  ``event`` fires
        #: for every popped event *before* the clock advances and the
        #: callback runs.  None keeps the run loop uninstrumented.
        self.obs = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], args: tuple = ()
    ) -> Event:
        """Schedule *callback* to run *delay* seconds from now."""
        if not delay >= 0:  # not `delay < 0`: that is False for NaN
            raise SimulationError(f"negative or NaN delay {delay!r}")
        time = self.now + delay
        # EventQueue.push's body, repeated here and in schedule_at: every
        # packet, wakeup and timer is scheduled through one of the two,
        # and this way each costs one frame instead of two.
        events = self.events
        seq = events._next_seq
        events._next_seq = seq + 1
        event = Event()
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = event.fired = False
        event._queue = events
        insort(self._pending, (time, seq, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., Any], args: tuple = ()
    ) -> Event:
        """Schedule *callback* at absolute *time* (must not be in the past)."""
        if not time >= self.now:  # not `time < now`: False for NaN
            raise SimulationError(f"cannot schedule at {time!r}, now is {self.now!r}")
        events = self.events
        seq = events._next_seq
        events._next_seq = seq + 1
        event = Event()
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = event.fired = False
        event._queue = events
        insort(self._pending, (time, seq, event))
        return event

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order.

        With ``until`` set, events up to and including that time are
        processed and the clock is left exactly at ``until``; without it,
        the loop drains the queue.  ``max_events`` is an exact budget:
        :class:`SimulationError` is raised on the attempt to process
        event ``max_events + 1``, never after it has run.
        """
        obs = self.obs
        on_event = None
        if obs is not None:
            obs.run_start(self)
            if implements(obs, "event"):
                on_event = obs.event  # the one subscription paid per event
        events = self.events
        limit = float("inf") if until is None else until
        if self.max_events is None:
            # No budget check and no queue call: the loop pops the sorted
            # list itself (EventQueue.pop's body), armed or not, so an
            # event costs the frame of its callback and nothing else.
            # processed still advances per iteration — callbacks read it
            # mid-run.
            pending = self._pending
            if on_event is None:
                while pending and (head := pending[0])[0] <= limit:
                    del pending[0]
                    event = head[2]
                    event._queue = None
                    self.now = head[0]
                    event.fired = True
                    event.callback(*event.args)
                    self.processed += 1
            else:
                while pending and (head := pending[0])[0] <= limit:
                    del pending[0]
                    event = head[2]
                    event._queue = None
                    on_event(self, event, self.now)
                    self.now = head[0]
                    event.fired = True
                    event.callback(*event.args)
                    self.processed += 1
        else:
            while True:
                next_time = events.peek_time()
                if next_time is None or next_time > limit:
                    break
                if self.max_events is not None and self.processed >= self.max_events:
                    raise SimulationError(f"exceeded max_events={self.max_events}")
                event = events.pop()
                assert event is not None
                if on_event is not None:
                    on_event(self, event, self.now)
                self.now = event.time
                event.fired = True
                event.callback(*event.args)
                self.processed += 1
        if until is not None and until > self.now:
            self.now = until
        if obs is not None:
            obs.run_end(self)

    def step(self) -> bool:
        """Process a single event.  Returns False when the queue is empty."""
        if self.events.peek_time() is None:
            return False
        if self.max_events is not None and self.processed >= self.max_events:
            raise SimulationError(f"exceeded max_events={self.max_events}")
        event = self.events.pop()
        if self.obs is not None:
            self.obs.event(self, event, self.now)
        self.now = event.time
        event.fired = True
        event.callback(*event.args)
        self.processed += 1
        return True
