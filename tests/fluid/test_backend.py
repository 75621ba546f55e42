"""The fluid entry of the backend registry: spec plumbing and domain
errors.

Covers the :class:`BackendSpec` document round-trip (and the guarantee
that packet-default documents never grow a ``backend`` key — goldens
and cache keys must stay byte-identical), the build-time rejection of
everything outside the fluid validity domain, and the reduction of a
fluid run to the standard scenario metric set.
"""

import inspect

import pytest

from repro.build import (
    BACKENDS,
    BackendSpec,
    ScenarioSpec,
    SpecError,
    build_simulation,
)
from repro.fluid.backend import BuiltFluid, build_fluid


def document(**overrides):
    doc = {
        "name": "fluid-backend-test",
        "seed": 1,
        "duration": 20,
        "topology": {
            "type": "dumbbell",
            "capacity_bps": 600_000,
            "rtt": 0.2,
            "pkt_size": 200,
        },
        "queue": {"kind": "taq", "buffer_rtts": 1.0},
        "workloads": [{"type": "bulk", "n_flows": 16}],
        "backend": {"kind": "fluid"},
    }
    doc.update(overrides)
    return doc


def test_backend_spec_round_trip():
    spec = ScenarioSpec.from_document(document(backend={"kind": "fluid", "wmax": 12}))
    assert spec.backend.kind == "fluid"
    assert spec.backend.params == {"wmax": 12}
    assert spec.to_document()["backend"] == {"kind": "fluid", "wmax": 12}
    again = ScenarioSpec.from_document(spec.to_document())
    assert again.backend == spec.backend


def test_packet_default_document_has_no_backend_key():
    doc = document()
    del doc["backend"]
    spec = ScenarioSpec.from_document(doc)
    assert spec.backend == BackendSpec()
    assert spec.backend.is_default
    assert "backend" not in spec.to_document()


def test_unknown_backend_kind_rejected():
    with pytest.raises(SpecError, match="backend"):
        ScenarioSpec.from_document(document(backend={"kind": "quantum"}))


def test_unknown_backend_param_rejected():
    with pytest.raises(SpecError, match="nope"):
        ScenarioSpec.from_document(document(backend={"kind": "fluid", "nope": 1}))


def test_registered_builder_restates_the_engine_signature():
    # The thin builder in build/builtin_backends.py spells the keywords
    # out so documents validate without importing numpy; the two must
    # not drift apart.
    registered = inspect.signature(BACKENDS.get("fluid"))
    engine = inspect.signature(build_fluid)
    assert registered.parameters == engine.parameters


def test_build_returns_built_fluid():
    built = build_simulation(ScenarioSpec.from_document(document()))
    assert isinstance(built, BuiltFluid)
    assert built.backend == "fluid"


def test_non_bulk_workload_rejected():
    doc = document(
        workloads=[{"type": "web", "n_users": 4, "objects_per_user": 2}]
    )
    with pytest.raises(SpecError, match="bulk"):
        build_simulation(ScenarioSpec.from_document(doc))


def test_sized_transfers_rejected():
    doc = document(workloads=[{"type": "bulk", "n_flows": 4, "size_segments": 100}])
    with pytest.raises(SpecError, match="size_segments"):
        build_simulation(ScenarioSpec.from_document(doc))


def test_unsupported_queue_kind_rejected():
    doc = document(queue={"kind": "sfq", "buffer_rtts": 1.0})
    with pytest.raises(SpecError, match="no drop model"):
        build_simulation(ScenarioSpec.from_document(doc))


def test_non_dumbbell_topology_rejected():
    doc = document(
        topology={
            "type": "overlay",
            "capacity_bps": 600_000,
            "rtt": 0.2,
            "pkt_size": 200,
            "underlay_loss": 0.01,
        }
    )
    with pytest.raises(SpecError, match="dumbbell"):
        build_simulation(ScenarioSpec.from_document(doc))


def test_ignored_params_are_recorded():
    doc = document(
        workloads=[{"type": "bulk", "n_flows": 8, "start_window": 2.0}]
    )
    built = build_simulation(ScenarioSpec.from_document(doc))
    assert built.ignored_params == {"workloads[0].start_window": 2.0}
    outcome = built.scenario_outcome()
    assert outcome.extras["ignored_params"] == built.ignored_params


def test_scenario_outcome_carries_fluid_metrics():
    built = build_simulation(ScenarioSpec.from_document(document()))
    outcome = built.scenario_outcome()
    assert outcome.extras["backend"] == "fluid"
    assert 0.0 <= outcome.loss_rate <= 1.0
    assert 0.0 < outcome.utilization <= 1.0 + 1e-9
    assert 0.0 < outcome.short_term_jain <= 1.0
    assert outcome.extras["mean_queue_pkts"] >= 0.0
    assert outcome.extras["queue_p99_pkts"] >= outcome.extras["mean_queue_pkts"]


def test_admission_control_parks_flows_under_overload():
    doc = document(
        queue={"kind": "taq+ac", "buffer_rtts": 1.0, "p_thresh": 0.02},
        workloads=[{"type": "bulk", "n_flows": 200}],
    )
    built = build_simulation(ScenarioSpec.from_document(doc))
    outcome = built.scenario_outcome()
    refused = outcome.extras.get("admission_refusals", 0)
    assert refused > 0
    # Parked flows drag population fairness down: they are members with
    # zero goodput.
    assert outcome.long_term_jain < 0.9


def test_rtt_buckets_spread_access_rtts():
    built = build_simulation(
        ScenarioSpec.from_document(
            document(backend={"kind": "fluid", "rtt_buckets": 4})
        )
    )
    rtts = sorted(c.rtt for c in built.model.classes)
    assert len(rtts) == 4
    assert rtts[0] != rtts[-1]
    built1 = build_simulation(
        ScenarioSpec.from_document(
            document(backend={"kind": "fluid", "rtt_buckets": 1})
        )
    )
    assert len(built1.model.classes) == 1
