"""Armed observers must not change what the simulation computes.

One suite for every observer family — telemetry, perf probe, span
recorder, invariant monitors, and all four at once — where there used
to be one per family.  Observers only read component state, the wall
clock and their own buffers, so an armed run has to schedule and fire
exactly the same simulated event sequence as an unarmed one.  Two
layers of evidence per family:

- a scenario-level A/B on the shared ``SCENARIO`` (behind taq, taq+ac
  and droptail): identical goodput slices, event count, final clock,
  queue ledger and per-flow loss counters; ``obs is None`` on every
  component when unarmed; and each armed family demonstrably fired;
- the goldens harness re-run *armed*: the experiments CI pins
  byte-for-byte must still match their seed CSVs.  fig09 and pool run
  in the default suite; the other fast goldens ride behind
  ``--run-slow``.

Every family is armed through its public entry point: ``profiled()``,
``recording()``, ``attach_monitors`` and ``Telemetry.arm``, by the
helper the benchmark suite's armed rows use
(:func:`repro.perf.suite.armed`).  The last two are armed per build (a
suite and a bundle belong to one run), so it hands them every build
through the seam's ``ambient`` — which is also what lets a golden
experiment, whose builds happen out of the test's sight, run under
them.
"""

from __future__ import annotations

import importlib
import os
from functools import lru_cache

import pytest

from repro.build import ScenarioSpec, build_simulation
from repro.perf.suite import ALL_FOUR, armed
from repro.sim.observe import implements, subscribers
from tests.experiments.test_goldens import EXPERIMENTS, GOLDEN_DIR

SCENARIO = {
    "name": "bitid",
    "seed": 11,
    "duration": 30.0,
    "topology": {"capacity_bps": 600_000, "rtt": 0.2, "pkt_size": 200},
    "queue": {"kind": "taq"},
    "workloads": [
        {"type": "bulk", "n_flows": 6},
        {"type": "short", "lengths": [5, 9, 13], "start_time": 10.0},
    ],
}

FAMILIES = {name: (name,) for name in ALL_FOUR}
FAMILIES["all-four"] = ALL_FOUR


def assert_fired(arms, families):
    """Each armed family saw the run(s); returns the sampler's events."""
    sampler_events = 0
    if "probe" in families:
        counters = arms.probe.counter_summary()
        assert counters["sim.events_popped"] > 0
        assert counters["sim.callbacks_dispatched"] > 0
        assert counters["net.packets_delivered"] > 0
        assert arms.probe.spans["sim.run"].calls >= 1
    if "spans" in families:
        kinds = arms.recorder.counts_by_kind()
        assert kinds["run"] >= 1            # simulator events
        assert kinds["flow"] >= 1           # sender events
        assert kinds["pkt"] > 0             # link events
    if "monitors" in families:
        assert arms.suites
        for suite in arms.suites:
            suite.finalize()
            assert suite.violations == []
            assert suite.by_name("clock")._last_seq >= 0        # per-event
            assert suite.by_name("conservation").arrived > 0    # taps
    if "telemetry" in families:
        assert arms.telemetries
        for telemetry, sim in arms.telemetries:
            telemetry.finalize(sim)
            assert telemetry.sampler.samples_taken > 0
            assert telemetry.registry.counters["bottleneck.arrived"].value > 0
            sampler_events += telemetry.sampler.samples_taken
    return sampler_events


# ----------------------------------------------------------------------
# Scenario-level A/B
# ----------------------------------------------------------------------
def _document(queue_kind):
    return dict(SCENARIO, queue={"kind": queue_kind})


def fingerprint(built):
    return {
        "now": built.sim.now,
        "slices": built.collector._slices,
        "queue": (built.queue.enqueued, built.queue.dropped),
        "flows": sorted(
            (f.flow_id, f.sender.stats.timeouts, f.sender.stats.retransmits)
            for f in built.all_flows()
        ),
    }


def components(built):
    """Everything that carries an observer slot."""
    links = built.links()
    found = [built.sim, built.queue, *links, *(link.queue for link in links)]
    found += [flow.sender for flow in built.all_flows()]
    if hasattr(built.queue, "tracker"):
        found.append(built.queue.tracker)
    return found


@lru_cache(maxsize=None)
def unarmed(queue_kind):
    built = build_simulation(ScenarioSpec.from_document(_document(queue_kind)))
    # The zero-overhead-when-off contract: every hook site is an
    # ``obs is None`` test on one of these, before and after the run.
    assert all(c.obs is None for c in components(built))
    built.run()
    assert all(c.obs is None for c in components(built))
    return built.sim.processed, fingerprint(built)


@pytest.mark.parametrize("queue_kind", ["taq", "taq+ac", "droptail"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_armed_scenario_is_bit_identical(family, queue_kind):
    families = FAMILIES[family]
    processed, plain = unarmed(queue_kind)
    with armed(families) as arms:
        built = build_simulation(ScenarioSpec.from_document(_document(queue_kind)))
        # Only a per-event subscriber takes the run off the fast loop.
        per_event = built.sim.obs is not None and implements(built.sim.obs, "event")
        assert per_event == ("monitors" in families)
        built.run()
    sampler_events = assert_fired(arms, families)
    # The gauge sampler rides the event heap; nothing else may add events.
    assert built.sim.processed - sampler_events == processed
    assert fingerprint(built) == plain
    if "spans" in families:
        # Every layer's slot holds the recorder.
        for component in (built.sim, built.queue, built.topology.forward,
                          *(flow.sender for flow in built.all_flows())):
            assert arms.recorder in subscribers(component)


def test_second_subscriber_composes_instead_of_replacing():
    """Two Telemetry objects and two monitor suites on one run each see
    every event (a second arming used to overwrite the first silently),
    and the run stays bit-identical."""
    processed, plain = unarmed("taq")
    with armed(("telemetry", "monitors")) as first, \
            armed(("telemetry", "monitors")) as second:
        built = build_simulation(ScenarioSpec.from_document(_document("taq")))
        built.run()
    sampler_events = assert_fired(first, ("telemetry", "monitors"))
    sampler_events += assert_fired(second, ("telemetry", "monitors"))
    assert built.sim.processed - sampler_events == processed
    assert fingerprint(built) == plain
    (one, _), (two, _) = first.telemetries + second.telemetries
    seen = lambda telemetry: [
        (e.kind, e.time, e.flow_id) for e in telemetry.trace.events]
    assert seen(one) == seen(two)
    assert {kind for kind, _, _ in seen(one)} >= {"flow_state", "flow_done"}
    clocks = [suite.by_name("clock") for suite in first.suites + second.suites]
    assert clocks[0]._last_seq == clocks[1]._last_seq >= 0


# ----------------------------------------------------------------------
# The goldens, re-run armed
# ----------------------------------------------------------------------
#: Subset of the goldens' FAST set cheap enough to re-run armed in the
#: default suite; the rest are slow-marked (same convention as the
#: goldens module).
GOLDEN_FAST = ("fig09", "pool")
GOLDEN_SLOW = ("fig10", "overlay", "rttf")


def _golden_params():
    params = [pytest.param(name, id=name) for name in GOLDEN_FAST]
    params += [
        pytest.param(name, id=name, marks=pytest.mark.slow) for name in GOLDEN_SLOW
    ]
    return params


@pytest.mark.parametrize("name", _golden_params())
@pytest.mark.parametrize("family", list(FAMILIES))
def test_golden_experiment_unchanged_when_armed(family, name):
    families = FAMILIES[family]
    module = importlib.import_module(EXPERIMENTS[name])
    with armed(families) as arms:
        result = module.run(module.Config())
    produced = result.table().to_csv().replace("\r\n", "\n")
    with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), encoding="utf-8") as handle:
        golden = handle.read().replace("\r\n", "\n")
    assert produced == golden, (
        f"{name} diverged from its golden when run with {family} armed — "
        f"instrumentation must never alter the simulated event sequence"
    )
    # And the family really was armed on the experiment's simulations.
    assert_fired(arms, families)
