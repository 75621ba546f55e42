"""Tests for the declarative scenario runner."""

import json
import os

import pytest

from repro.build import ScenarioSpec, SpecError
from repro.experiments.scenario import run_scenario


def base_document(**overrides):
    document = {
        "name": "test",
        "seed": 3,
        "duration": 30,
        "topology": {"type": "dumbbell", "capacity_bps": 600_000, "rtt": 0.2},
        "queue": {"kind": "droptail"},
        "workloads": [{"type": "bulk", "n_flows": 20}],
    }
    document.update(overrides)
    return document


def test_bulk_scenario_produces_metrics():
    outcome = run_scenario(base_document())
    assert outcome.name == "test"
    assert 0 < outcome.short_term_jain <= 1
    assert outcome.utilization > 0.5
    assert outcome.timeouts >= 0
    assert "Scenario: test" in str(outcome)


def test_taq_scenario_wires_reverse_tap():
    outcome = run_scenario(base_document(queue={"kind": "taq"}))
    assert outcome.short_term_jain > 0


def test_web_workload_reports_download_stats():
    document = base_document(
        workloads=[{"type": "web", "n_users": 4, "objects_per_user": 3,
                    "object_bytes": 5_000, "start_window": 2.0}],
        duration=60,
    )
    outcome = run_scenario(document)
    assert outcome.extras["web_objects_completed"] > 0
    assert outcome.extras["web_median_download_s"] > 0


def test_short_flows_counted_as_transfers():
    document = base_document(
        workloads=[
            {"type": "bulk", "n_flows": 10},
            {"type": "short", "lengths": [2, 5], "start_time": 5.0},
        ],
        duration=60,
    )
    outcome = run_scenario(document)
    assert outcome.total_transfers == 2
    assert outcome.completed_transfers == 2


def test_overlay_topology():
    document = base_document(
        topology={"type": "overlay", "capacity_bps": 600_000, "rtt": 0.2,
                  "mode": "raw", "underlay_loss": 0.1},
        workloads=[{"type": "bulk", "n_flows": 10}],
    )
    outcome = run_scenario(document)
    assert outcome.utilization > 0.3


def test_testbed_topology():
    document = base_document(
        topology={"type": "testbed", "capacity_bps": 600_000, "rtt": 0.2},
    )
    outcome = run_scenario(document)
    assert outcome.utilization > 0.5


def test_validation_errors():
    with pytest.raises(SpecError):
        run_scenario({"duration": 10})  # no topology
    with pytest.raises(SpecError):
        run_scenario(base_document(workloads=[]))
    with pytest.raises(SpecError):
        run_scenario(base_document(workloads=[{"type": "quic"}]))
    with pytest.raises(SpecError):
        run_scenario(base_document(topology={"type": "ring", "capacity_bps": 1}))
    with pytest.raises(SpecError):
        run_scenario(base_document(workloads=[{"type": "bulk"}]))  # n_flows


def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base_document()))
    outcome = run_scenario(ScenarioSpec.from_file(str(path)))
    assert outcome.name == "test"


def test_scenario_file_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SpecError):
        ScenarioSpec.from_file(str(path))


SHIPPED = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "scenarios")


def test_shipped_example_scenarios_parse_and_run_small():
    for name in os.listdir(SHIPPED):
        with open(os.path.join(SHIPPED, name)) as handle:
            document = json.load(handle)
        document["duration"] = 15  # shrink for test speed
        for workload in document["workloads"]:
            if "n_flows" in workload:
                workload["n_flows"] = min(10, workload["n_flows"])
            if "n_clients" in workload:
                workload["n_clients"] = min(8, workload["n_clients"])
            if "n_users" in workload:
                workload["n_users"] = min(4, workload["n_users"])
                # web-bands spreads arrivals over arrival_window;
                # plain web sessions use start_window.
                if workload["type"] == "web-bands":
                    workload["arrival_window"] = 2.0
                else:
                    workload["start_window"] = 2.0
        outcome = run_scenario(document)
        assert outcome.duration == 15


def test_cli_scenario_command(tmp_path, capsys):
    from repro.experiments import cli

    path = tmp_path / "s.json"
    path.write_text(json.dumps(base_document()))
    assert cli.main(["scenario", str(path)]) == 0
    assert "Scenario: test" in capsys.readouterr().out
    assert cli.main(["scenario"]) == 2
    assert cli.main(["scenario", str(tmp_path / "missing.json")]) == 2


def test_cli_rejects_a_nan_literal_before_anything_runs(tmp_path, capsys):
    # json.load accepts the non-JSON literal NaN; it used to pass
    # validation, reach the clock and die mid-run with a traceback.
    from repro.experiments import cli

    document = base_document(
        workloads=[{"type": "short", "lengths": [5], "start_time": 0.0}])
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(document).replace('"start_time": 0.0', '"start_time": NaN'))
    assert cli.main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("scenario error:") and "NaN" in line


@pytest.mark.parametrize("name", sorted(os.listdir(SHIPPED)))
def test_a_bundle_records_every_timeout_of_a_shipped_document(name, tmp_path, capsys):
    """From the bundle alone: the ``rto`` events tally to the outcome's
    timeouts.  Three shipped documents spawn every flow mid-run (web
    sessions, trace replay) and used to record none of them."""
    from repro.experiments import cli
    from repro.obs import load_metrics_jsonl

    assert cli.main(["scenario", os.path.join(SHIPPED, name),
                     "--telemetry-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    (bundle,) = os.listdir(tmp_path)
    metrics = load_metrics_jsonl(str(tmp_path / bundle / "metrics.jsonl"))
    timeouts = metrics["series"]["outcome.timeouts"][-1][1]
    assert metrics["counters"].get("event.rto", 0) == timeouts > 0
