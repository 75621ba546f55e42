"""The simulation clock and run loop."""

from __future__ import annotations

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
        # Bound-method cache for the per-event scheduling path (the
        # queue is fixed for the simulator's lifetime).
        self._push = self.events.push
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
        return self._push(self.now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], args: tuple = ()
    ) -> Event:
        """Schedule *callback* at absolute *time* (must not be in the past)."""
        if not time >= self.now:  # not `time < now`: False for NaN
            raise SimulationError(f"cannot schedule at {time!r}, now is {self.now!r}")
        return self._push(time, callback, args)

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
            # One queue call per event via pop_due and no budget check,
            # armed or not.  processed still advances per iteration —
            # callbacks read it mid-run.
            pop_due = events.pop_due
            if on_event is None:
                while (event := pop_due(limit)) is not None:
                    self.now = event.time
                    event.fired = True
                    event.callback(*event.args)
                    self.processed += 1
            else:
                while (event := pop_due(limit)) is not None:
                    on_event(self, event, self.now)
                    self.now = event.time
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
