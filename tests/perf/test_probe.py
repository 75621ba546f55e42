"""PerfProbe mechanics: counters, spans, arming, ambient activation."""

from __future__ import annotations

from types import SimpleNamespace

from repro.build import ScenarioSpec, build_simulation
from repro.perf import PerfProbe, peak_rss_bytes, profiled
from repro.sim.observe import implements, subscribers
from repro.sim.simulator import Simulator

SCENARIO = {
    "name": "probe-smoke",
    "seed": 3,
    "duration": 15.0,
    "topology": {"capacity_bps": 400_000, "rtt": 0.1, "pkt_size": 300},
    "queue": {"kind": "droptail"},
    "workloads": [{"type": "bulk", "n_flows": 4}],
}


def test_simulator_counters():
    sim = Simulator(seed=1)
    probe = PerfProbe()
    # A bare simulator: no links or queue to read ledgers from.
    probe.arm(SimpleNamespace(sim=sim, queue=None, links=list))
    fired = []
    events = [sim.schedule(0.01 * i, fired.append, (i,)) for i in range(10)]
    events[3].cancel()
    events[7].cancel()
    sim.run()
    assert fired == [0, 1, 2, 4, 5, 6, 8, 9]
    counters = probe.counter_summary()
    assert counters["sim.callbacks_dispatched"] == 8
    # events_popped counts live dispatches (read from
    # Simulator.processed); the two cancelled events left the store
    # through EventQueue.discards.
    assert counters["sim.events_popped"] == 8
    assert counters["sim.heap_discards"] == 2
    # The whole run sits inside one sim.run span.
    assert probe.spans["sim.run"].calls == 1
    assert probe.spans["sim.run"].total_s > 0


def test_event_queue_pop_counts_discards():
    from repro.sim.events import EventQueue

    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    second = queue.push(2.0, lambda: None)
    first.cancel()
    assert queue.pop() is second
    # The always-on ledger the probe's sim.heap_discards is read from.
    assert queue.discards == 1


def test_counter_summary_merges_hot_and_named():
    probe = PerfProbe()
    probe.cache_hits = 5
    probe.count("taq.evictions")
    probe.count("taq.evictions", 2)
    summary = probe.counter_summary()
    assert summary == {"parallel.cache_hits": 5, "taq.evictions": 3}
    # Zero-valued ledger counters stay out of the roll-up.
    assert "net.packets_dropped" not in summary


def test_span_aggregation():
    probe = PerfProbe()
    for _ in range(3):
        with probe.span("phase"):
            pass
    stats = probe.spans["phase"]
    assert stats.calls == 3
    assert stats.total_s >= stats.max_s > 0
    rendered = probe.render()
    assert "phase: calls=3" in rendered


def test_profiled_arms_built_scenarios():
    with profiled() as probe:
        built = build_simulation(ScenarioSpec.from_document(SCENARIO))
        # Arming the probe alone keeps the simulator's fast loop.
        assert not implements(built.sim.obs, "event")
        built.run()
    # The run flowed through every instrumented layer.
    counters = probe.counter_summary()
    assert counters["sim.callbacks_dispatched"] > 0
    assert counters["net.packets_enqueued"] > 0
    assert counters["net.packets_dequeued"] > 0
    assert probe.spans["sim.run"].calls == 1
    # Ledger-derived counters are the components' own books.
    forward, reverse = built.links()
    assert counters["sim.events_popped"] == built.sim.processed > 0
    assert counters["net.packets_delivered"] == (
        forward.stats.delivered + reverse.stats.delivered) > 0
    assert counters["net.packets_dropped"] == (
        forward.queue.dropped + reverse.queue.dropped) > 0


def test_rearming_the_same_probe_does_not_count_twice():
    probe = PerfProbe()
    built = build_simulation(ScenarioSpec.from_document(SCENARIO))
    probe.arm(built)
    probe.arm(built)
    built.run(until=5.0)
    built.run()
    assert probe.counter_summary()["sim.events_popped"] == built.sim.processed
    assert probe.spans["sim.run"].calls == 2


def test_profiled_nesting_restores_outer_probe():
    spec = ScenarioSpec.from_document(SCENARIO)
    with profiled() as outer:
        with profiled() as inner:
            both = build_simulation(spec)
        only_outer = build_simulation(spec)
    neither = build_simulation(spec)
    # Nested probes compose; leaving a block disarms later builds.
    assert subscribers(both.sim) == [outer, inner]
    assert subscribers(only_outer.sim) == [outer]
    assert neither.sim.obs is None


def test_unarmed_components_stay_unarmed():
    built = build_simulation(ScenarioSpec.from_document(SCENARIO))
    assert built.sim.obs is None
    assert built.queue.obs is None
    assert all(link.obs is None for link in built.links())


def test_peak_rss_is_positive_on_posix():
    assert peak_rss_bytes() > 0
