"""Unit tests for the simulator run loop and clock."""

import pytest

from repro.sim.simulator import SimulationError, Simulator


def test_clock_advances_to_event_times():
    sim = Simulator()
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(0.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [0.5, 1.5]


def test_run_until_stops_and_sets_clock():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, (1,))
    sim.schedule(15.0, fired.append, (2,))
    sim.run(until=10.0)
    assert fired == [1]
    assert sim.now == 10.0
    sim.run(until=20.0)
    assert fired == [1, 2]


def test_event_at_exactly_until_fires():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, (1,))
    sim.run(until=10.0)
    assert fired == [1]


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    log = []

    def first():
        log.append("first")
        sim.schedule(1.0, lambda: log.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert log == ["first", "second"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_nan_never_reaches_the_clock():
    # `nan < 0` and `nan < now` are both False: the guards must be
    # written as `not x >= bound`.  inf stays a legal "never".
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)
    assert len(sim.events) == 0
    assert sim.schedule(float("inf"), lambda: None).pending
    assert sim.schedule_at(float("inf"), lambda: None).pending


def test_max_events_guard():
    sim = Simulator(max_events=10)

    def loop():
        sim.schedule(0.1, loop)

    sim.schedule(0.1, loop)
    with pytest.raises(SimulationError):
        sim.run(until=1e9)


def test_max_events_is_an_exact_budget():
    # Regression: the guard used to fire only after processing event
    # max_events + 1.  Exactly max_events callbacks may run, and the
    # error is raised on the *attempt* to process the next one.
    sim = Simulator(max_events=5)
    fired = []
    for i in range(8):
        sim.schedule(0.1 * (i + 1), fired.append, (i,))
    with pytest.raises(SimulationError):
        sim.run()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.processed == 5


def test_max_events_exactly_consumed_does_not_raise():
    sim = Simulator(max_events=3)
    fired = []
    for i in range(3):
        sim.schedule(0.1 * (i + 1), fired.append, (i,))
    sim.run()  # queue drains at exactly the budget: no error
    assert fired == [0, 1, 2]
    assert sim.processed == 3


def test_step_respects_max_events():
    sim = Simulator(max_events=1)
    sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    assert sim.step()
    with pytest.raises(SimulationError):
        sim.step()


def test_step_processes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, (1,))
    sim.schedule(2.0, fired.append, (2,))
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, (1,))
    event.cancel()
    sim.run()
    assert fired == []


def test_rng_streams_are_deterministic_and_independent():
    sim_a = Simulator(seed=42)
    sim_b = Simulator(seed=42)
    a1 = [sim_a.rng.stream("x").random() for _ in range(5)]
    # Interleave another stream in sim_b; "x" must be unaffected.
    sim_b.rng.stream("y").random()
    b1 = [sim_b.rng.stream("x").random() for _ in range(5)]
    assert a1 == b1


def test_rng_different_seeds_differ():
    from repro.sim.rng import RngRegistry

    assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()


def test_rng_spawn_children_differ_by_name():
    from repro.sim.rng import RngRegistry

    root = RngRegistry(7)
    a = root.spawn("trial-1").stream("s").random()
    b = root.spawn("trial-2").stream("s").random()
    assert a != b
