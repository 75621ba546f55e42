"""The instrumentation seam: vocabulary, composition, cost rules."""

from __future__ import annotations

import pytest

from repro.queues.droptail import DropTailQueue
from repro.sim.observe import (
    AMBIENT,
    VOCABULARY,
    Fanout,
    Observer,
    ambient,
    implements,
    subscribe,
    subscribers,
    unsubscribe,
)
from repro.sim.simulator import SimulationError, Simulator


class Runs(Observer):
    def __init__(self):
        self.seen = []

    def run_start(self, sim):
        self.seen.append(("start", sim.now))

    def run_end(self, sim):
        self.seen.append(("end", sim.now))


class Events(Observer):
    def __init__(self):
        self.seen = []

    def event(self, sim, event, now):
        self.seen.append((event.seq, now))


class Drops(Observer):
    def dropped(self, queue, packet, now):
        pass


def test_every_vocabulary_event_is_a_noop_on_the_base_class():
    observer = Observer()
    for events in VOCABULARY.values():
        for name in events:
            assert not implements(observer, name)
            assert getattr(observer, name)("component", "packet", 0.0) is None


def test_implements_sees_only_what_the_class_defines():
    runs = Runs()
    assert implements(runs, "run_start") and implements(runs, "run_end")
    assert not implements(runs, "event")
    assert not implements(runs, "dropped")


def test_single_subscriber_is_held_directly():
    sim, runs = Simulator(), Runs()
    subscribe(sim, runs)
    assert sim.obs is runs
    sim.run(until=2.0)
    assert runs.seen == [("start", 0.0), ("end", 2.0)]


def test_subscribers_compose_and_route_only_implemented_events():
    sim, runs, events, more_runs = Simulator(), Runs(), Events(), Runs()
    for observer in (runs, events, more_runs):
        subscribe(sim, observer)
    assert isinstance(sim.obs, Fanout)
    assert subscribers(sim) == [runs, events, more_runs]
    # One implementer: the slot's attribute is its bound method itself.
    assert sim.obs.event == events.event
    # Nobody implements flow_spawned: still the inherited no-op.
    assert not implements(sim.obs, "flow_spawned")
    sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    assert runs.seen == more_runs.seen == [("start", 0.0), ("end", 2.0)]
    assert events.seen == [(0, 0.0)]


def test_subscribing_twice_or_for_nothing_changes_nothing():
    sim, runs = Simulator(), Runs()
    subscribe(sim, runs)
    subscribe(sim, runs)
    assert sim.obs is runs
    # Drops implements none of a Simulator's events: never subscribed,
    # so never called for nothing.
    subscribe(sim, Drops())
    assert sim.obs is runs
    # And a component outside the vocabulary (no slot at all) is left be.
    subscribe(object(), runs)


def test_unsubscribe_restores_the_smaller_composition():
    sim, runs, events = Simulator(), Runs(), Events()
    subscribe(sim, runs)
    subscribe(sim, events)
    unsubscribe(sim, runs)
    assert sim.obs is events
    unsubscribe(sim, runs)  # absent: a no-op
    unsubscribe(sim, events)
    assert sim.obs is None


def test_queue_subclasses_emit_their_base_vocabulary():
    queue, drops = DropTailQueue(4), Drops()
    subscribe(queue, drops)
    assert queue.obs is drops
    subscribe(queue, Runs())  # implements nothing a queue emits
    assert queue.obs is drops


def test_a_per_event_subscriber_sees_every_event_before_the_clock_advances():
    sim, runs, fired = Simulator(), Runs(), []
    subscribe(sim, runs)
    for delay in (0.5, 0.5, 1.5):
        sim.schedule(delay, fired.append, (delay,))
    sim.run(until=1.0)                      # armed, but not per event
    assert fired == [0.5, 0.5] and runs.seen == [("start", 0.0), ("end", 1.0)]
    events = Events()
    subscribe(sim, events)
    for delay in (0.25, 0.25, 3.0):
        sim.schedule(delay, fired.append, (delay,))
    sim.run(until=2.0)
    # Every event popped inside the horizon, each with the clock of the
    # event before it (same-time events included); nothing past it.
    assert events.seen == [(3, 1.0), (4, 1.25), (2, 1.25)]
    assert fired == [0.5, 0.5, 0.25, 0.25, 1.5] and sim.now == 2.0
    sim.run()                               # and when draining
    assert events.seen[-1] == (5, 2.0) and sim.now == 4.0


def test_the_event_budget_stays_exact_under_a_per_event_subscriber():
    sim, events, fired = Simulator(max_events=2), Events(), []
    subscribe(sim, events)
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, fired.append, (delay,))
    with pytest.raises(SimulationError, match="max_events=2"):
        sim.run()
    # Raised on the attempt to process event 3: it neither ran nor was
    # reported, and it is still queued.
    assert fired == [1.0, 2.0] and sim.processed == 2 and sim.now == 2.0
    assert events.seen == [(0, 0.0), (1, 1.0)]
    assert len(sim.events) == 1


def test_step_reports_the_event_before_the_clock_advances():
    sim, events = Simulator(), Events()
    subscribe(sim, events)
    sim.schedule(1.5, lambda: None)
    assert sim.step() is True
    assert events.seen == [(0, 0.0)] and sim.now == 1.5


def test_ambient_stack_nests_and_unwinds():
    # What build_simulation arms: tests/perf/test_probe.py and
    # tests/obs/test_spans.py drive it through profiled()/recording().
    outer, inner = Observer(), Observer()
    with ambient(outer):
        with pytest.raises(RuntimeError):
            with ambient(inner):
                assert AMBIENT == [outer, inner]
                raise RuntimeError("boom")
        assert AMBIENT == [outer]
    assert AMBIENT == []
