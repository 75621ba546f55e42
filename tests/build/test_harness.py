"""build_simulation wiring: construction order side effects, taps, groups."""

import os
import subprocess
import sys

import pytest

import repro
from repro.build import (
    QUEUES,
    QueueSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
    build_queue,
    build_simulation,
    manifest_payloads,
)
from repro.core import TAQQueue
from repro.sim.simulator import Simulator


def scenario(**overrides):
    fields = dict(
        name="harness-test",
        seed=3,
        duration=20.0,
        topology=TopologySpec(capacity_bps=600_000.0, rtt=0.2),
        queue=QueueSpec(kind="taq"),
        workloads=[WorkloadSpec("bulk", dict(n_flows=4))],
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def test_build_queue_matches_registry():
    sim = Simulator(seed=1)
    queue = build_queue("taq", sim, 600_000.0, 0.2)
    assert isinstance(queue, TAQQueue)


def test_importing_any_submodule_has_already_loaded_the_builtins():
    # Why nothing inside repro.build calls load_builtins() again: the
    # package __init__ ends in it and runs before any submodule can.
    code = """
from repro.build.harness import build_queue, build_simulation
from repro.build.spec import ScenarioSpec
from repro.sim.simulator import Simulator

queue = build_queue("droptail", Simulator(seed=1), 600_000.0, 0.2)
assert type(queue).__name__ == "DropTailQueue"
spec = ScenarioSpec.from_document({
    "duration": 1.0,
    "topology": {"type": "dumbbell", "capacity_bps": 600000, "rtt": 0.2},
    "queue": {"kind": "droptail-blackhole"},
    "workloads": [{"type": "bulk", "n_flows": 2}],
    "plugins": ["repro.check.faults"],
})
assert type(build_simulation(spec).queue).__name__ == "BlackholeDropTailQueue"
"""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_build_queue_unknown_kind():
    sim = Simulator(seed=1)
    with pytest.raises(SpecError, match="registered kinds"):
        build_queue("fifo", sim, 600_000.0, 0.2)


def test_taq_reverse_tap_installed_by_default():
    built = build_simulation(scenario())
    assert built.queue.observe_reverse in built.topology.reverse._taps


def test_reverse_tap_disabled_leaves_one_way_mode():
    built = build_simulation(scenario(queue=QueueSpec(kind="taq", reverse_tap=False)))
    assert built.queue.observe_reverse not in built.topology.reverse._taps


def test_delivery_link_is_forward_for_dumbbell():
    built = build_simulation(scenario())
    assert built.delivery_link is built.topology.forward


def test_delivery_link_is_underlay_for_overlay():
    built = build_simulation(
        scenario(
            topology=TopologySpec(
                capacity_bps=600_000.0,
                kind="overlay",
                rtt=0.2,
                params=dict(mode="overlay", underlay_loss=0.1),
            )
        )
    )
    assert built.delivery_link is built.topology.underlay


def test_workload_groups_preserve_order_and_flows():
    built = build_simulation(
        scenario(
            workloads=[
                WorkloadSpec("bulk", dict(n_flows=3)),
                WorkloadSpec("short", dict(lengths=[2, 5], start_time=5.0)),
            ]
        )
    )
    assert [g.kind for g in built.groups] == ["bulk", "short"]
    assert len(built.groups[0].flows) == 3
    assert len(built.groups[1].flows) == 2
    assert len(built.all_flows()) == 5


def test_second_workload_sees_flows_spawned_offset():
    built = build_simulation(
        scenario(
            workloads=[
                WorkloadSpec("bulk", dict(n_flows=3)),
                WorkloadSpec("bulk", dict(n_flows=2)),
            ]
        )
    )
    ids = [f.flow_id for f in built.all_flows()]
    assert ids == [0, 1, 2, 3, 4]


def test_run_defaults_to_spec_duration():
    built = build_simulation(scenario(duration=5.0))
    built.run()
    assert built.sim.now == pytest.approx(5.0, abs=1.0)


def test_manifest_payloads_mirror_canonical_document():
    spec = scenario()
    payloads = manifest_payloads(spec)
    assert payloads["scenario"] == spec.canonical()
    assert payloads["topology"] == spec.canonical()["topology"]
    assert payloads["qdisc"] == spec.canonical()["queue"]


def test_same_spec_builds_bit_identical_runs():
    spec = scenario(duration=10.0)
    results = []
    for _ in range(2):
        built = build_simulation(spec)
        built.run()
        results.append(
            (
                built.queue.loss_rate(),
                sum(f.sender.stats.timeouts for f in built.all_flows()),
                built.sim.processed,
            )
        )
    assert results[0] == results[1]


def test_registry_only_discipline_builds_end_to_end():
    # A kind registered by a plugin module (favorqueue ships as one)
    # works through the full harness without any edits elsewhere.
    assert "favorqueue" in QUEUES
    built = build_simulation(scenario(queue=QueueSpec(kind="favorqueue")))
    built.run(until=5.0)
    assert built.sim.processed > 0
