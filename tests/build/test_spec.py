"""Strict spec loading: round trips, rejection messages, suggestions."""

import json

import pytest

from repro.build import ScenarioSpec, SpecError


def base_document(**overrides):
    document = {
        "name": "spec-test",
        "seed": 3,
        "duration": 30,
        "topology": {"type": "dumbbell", "capacity_bps": 600_000, "rtt": 0.2},
        "queue": {"kind": "taq", "buffer_rtts": 1.0, "reverse_tap": True},
        "workloads": [
            {"type": "bulk", "n_flows": 20, "start_window": 5.0},
            {"type": "short", "lengths": [2, 10], "start_time": 10.0},
        ],
        "metrics": {"slice_seconds": 20.0},
    }
    document.update(overrides)
    return document


def test_round_trip_is_identity():
    spec = ScenarioSpec.from_document(base_document())
    dumped = spec.to_document()
    again = ScenarioSpec.from_document(dumped)
    assert again == spec
    assert again.to_document() == dumped


def test_json_round_trip_is_identity():
    spec = ScenarioSpec.from_document(json.loads(json.dumps(base_document())))
    text = json.dumps(spec.to_document())
    assert ScenarioSpec.from_document(json.loads(text)) == spec


def test_canonical_is_json_safe():
    spec = ScenarioSpec.from_document(base_document())
    json.dumps(spec.canonical())  # must not raise


def test_missing_capacity_is_a_spec_error_not_a_buffer_error():
    # Regression: the old runner passed topology.get("capacity_bps", 0)
    # into queue construction before validating, so a missing capacity
    # surfaced as "capacity_pkts must be >= 1" four layers down.
    document = base_document(topology={"type": "dumbbell", "rtt": 0.2})
    with pytest.raises(SpecError) as excinfo:
        ScenarioSpec.from_document(document)
    assert "missing 'capacity_bps' in topology" in str(excinfo.value)
    assert "capacity_pkts" not in str(excinfo.value)


def test_unknown_scenario_key_suggests_fix():
    with pytest.raises(SpecError) as excinfo:
        ScenarioSpec.from_document(base_document(durations=10))
    message = str(excinfo.value)
    assert "unknown key 'durations'" in message
    assert "did you mean 'duration'?" in message


def test_unknown_queue_param_suggests_fix():
    document = base_document(
        queue={"kind": "droptail", "buffer_rtt": 2.0}
    )
    with pytest.raises(SpecError) as excinfo:
        ScenarioSpec.from_document(document)
    assert "did you mean 'buffer_rtts'?" in str(excinfo.value)


def test_unknown_workload_kind_lists_registered_kinds():
    document = base_document(workloads=[{"type": "bulks", "n_flows": 2}])
    with pytest.raises(SpecError) as excinfo:
        ScenarioSpec.from_document(document)
    message = str(excinfo.value)
    assert "unknown workload kind 'bulks'" in message
    assert "did you mean 'bulk'?" in message
    assert "bulk" in message and "web" in message


def test_missing_required_workload_param_fails_up_front():
    document = base_document(workloads=[{"type": "bulk"}])
    with pytest.raises(SpecError, match="missing 'n_flows'"):
        ScenarioSpec.from_document(document)


def test_open_ended_builder_accepts_extra_params():
    # The bulk builder takes **flow_kwargs, so spec validation defers
    # unknown keys to the constructed component.
    document = base_document(
        workloads=[{"type": "bulk", "n_flows": 2, "sack": True}]
    )
    spec = ScenarioSpec.from_document(document)
    assert spec.workloads[0].params["sack"] is True


def test_non_integer_seed_rejected():
    with pytest.raises(SpecError, match="'seed'"):
        ScenarioSpec.from_document(base_document(seed=1.5))


@pytest.mark.parametrize("section, key", [
    (None, "duration"),
    ("topology", "rtt"),
    ("queue", "buffer_rtts"),
    ("metrics", "slice_seconds"),
])
def test_nan_is_not_a_number(section, key):
    # NaN fails every `value < minimum` test, so the range check alone
    # lets it through to the clock.
    document = base_document()
    (document if section is None else document[section])[key] = float("nan")
    with pytest.raises(SpecError, match=f"'{key}'.*NaN"):
        ScenarioSpec.from_document(document)


def test_plugins_must_be_module_names():
    with pytest.raises(SpecError, match="plugins"):
        ScenarioSpec.from_document(base_document(plugins=[42]))


def test_unimportable_plugin_is_a_spec_error():
    with pytest.raises(SpecError):
        ScenarioSpec.from_document(
            base_document(plugins=["no.such.module.anywhere"])
        )
