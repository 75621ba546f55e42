"""``taq-obs`` end to end, plus the recording entry points around it.

One small congested scenario is traced once per module and inspected
through every subcommand (flows / timeline / critical-path), from both
a bare ``spans.jsonl`` file and a telemetry bundle directory.  The
``tail`` subcommand is driven against a hand-written bus directory and
against a real ``--bus-dir``-armed two-job sweep.  The recording entry
points — ``taq-experiments scenario --spans`` and ``Telemetry(spans=)``
— are covered here too, since taq-obs is their consumer.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.build import ScenarioSpec, build_simulation
from repro.experiments.cli import main as experiments_main
from repro.obs.cli import main as obs_main
from repro.obs.spans import SpanRecorder, recording, save_spans
from repro.obs.telemetry import SPANS_NAME, Telemetry
from repro.parallel.bus import ProgressBus, point_key

SCENARIO = {
    "name": "obs-cli",
    "seed": 11,
    "duration": 30.0,
    "topology": {"capacity_bps": 400_000, "rtt": 0.2, "pkt_size": 200},
    "queue": {"kind": "taq"},
    "workloads": [
        {"type": "bulk", "n_flows": 8},
        {"type": "short", "lengths": [5, 9, 13], "start_time": 10.0},
    ],
}


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    spec = ScenarioSpec.from_document(SCENARIO)
    with recording() as recorder:
        built = build_simulation(spec)
        built.run()
    path = tmp_path_factory.mktemp("trace") / "spans.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        save_spans(recorder.spans, handle)
    return str(path)


class TestFlows:
    def test_lists_flows_slowest_first(self, trace_file, capsys):
        assert obs_main(["flows", trace_file]) == 0
        out = capsys.readouterr().out
        assert "flows traced (slowest first)" in out
        assert "sojourn" in out

    def test_top_limits_rows(self, trace_file, capsys):
        assert obs_main(["flows", trace_file, "--top", "2"]) == 0
        assert "more" in capsys.readouterr().out


class TestTimeline:
    def test_worst_flow_is_the_default(self, trace_file, capsys):
        assert obs_main(["timeline", trace_file]) == 0
        out = capsys.readouterr().out
        assert "sojourn=" in out
        assert "|" in out

    def test_explicit_flow(self, trace_file, capsys):
        assert obs_main(["timeline", trace_file, "--flow", "0"]) == 0
        assert "flow 0" in capsys.readouterr().out


class TestCriticalPath:
    def test_attributes_the_worst_flow(self, trace_file, capsys):
        assert obs_main(["critical-path", trace_file, "--worst"]) == 0
        out = capsys.readouterr().out
        assert "where the time went:" in out
        assert "attributed to causes:" in out
        assert "transfer" in out

    def test_unknown_flow_exits_with_an_error(self, trace_file):
        with pytest.raises(SystemExit):
            obs_main(["critical-path", trace_file, "--flow", "424242"])


class TestTraceLoading:
    def test_bundle_directory_resolves_spans_jsonl(self, trace_file, tmp_path,
                                                   capsys):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        with open(trace_file, encoding="utf-8") as handle:
            (bundle / SPANS_NAME).write_text(handle.read(), encoding="utf-8")
        assert obs_main(["flows", str(bundle)]) == 0
        assert "flows traced" in capsys.readouterr().out

    def test_missing_trace_exits_with_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no span trace"):
            obs_main(["flows", str(tmp_path / "nope.jsonl")])


class TestTail:
    def _write_bus(self, bus_dir, done, total):
        bus = ProgressBus(str(bus_dir))
        bus.announce(total, "fig02")
        for index in range(total):
            key = point_key(index, f"x={index}")
            bus.emit(key, "start", pid=1)
            if index < done:
                bus.emit(key, "done", wall=1.0)

    def test_once_renders_a_single_frame(self, tmp_path, capsys):
        self._write_bus(tmp_path, done=1, total=3)
        assert obs_main(["tail", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "fig02: 1/3 done" in out
        assert out.count("fig02:") == 1

    def test_exits_when_the_sweep_completes(self, tmp_path, capsys):
        self._write_bus(tmp_path, done=2, total=2)
        # No --once: completion itself must terminate the loop.
        assert obs_main(["tail", str(tmp_path), "--interval", "0.01"]) == 0
        assert "2/2 done" in capsys.readouterr().out

    def test_deadline_bounds_an_idle_tail(self, tmp_path, capsys):
        self._write_bus(tmp_path, done=0, total=2)
        assert obs_main(["tail", str(tmp_path), "--interval", "0.01",
                         "--for", "0.05"]) == 0
        assert "0/2 done" in capsys.readouterr().out


class TestLiveSweepTail:
    def test_armed_two_job_sweep_is_tailable(self, tmp_path, capsys,
                                             monkeypatch):
        """The acceptance path: a jobs=2 sweep with --bus-dir leaves a
        bus that taq-obs tail renders with every point accounted for."""
        # --bus-dir exports TAQ_OBS_BUS; seed the key through monkeypatch
        # so the export is rolled back after the test.
        monkeypatch.setenv("TAQ_OBS_BUS", "placeholder")
        bus_dir = str(tmp_path / "bus")
        scenarios = []
        for index in range(2):
            document = dict(SCENARIO, name=f"pt{index}", duration=2.0,
                            seed=index + 1)
            path = tmp_path / f"pt{index}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            scenarios.append(str(path))
        code = experiments_main(
            ["scenario", *scenarios, "--jobs", "2", "--bus-dir", bus_dir]
        )
        capsys.readouterr()  # drop the outcome tables
        assert code == 0
        assert obs_main(["tail", bus_dir, "--once"]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out
        assert "p000-pt0" in out and "p001-pt1" in out

    def test_bus_dir_flag_sets_the_env_for_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAQ_OBS_BUS", "placeholder")
        bus_dir = str(tmp_path / "bus")
        document = dict(SCENARIO, duration=1.0)
        path = tmp_path / "one.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        experiments_main(["scenario", str(path), "--bus-dir", bus_dir])
        assert os.environ.get("TAQ_OBS_BUS") == bus_dir


class TestExperimentsSpansFlag:
    def test_scenario_spans_records_and_reports(self, tmp_path, capsys):
        document = dict(SCENARIO, duration=5.0)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(document), encoding="utf-8")
        # Into a directory that does not exist yet: --spans creates it,
        # as --telemetry-dir does.
        out_path = tmp_path / "span-bundle" / "spans.jsonl"
        code = experiments_main(
            ["scenario", str(scenario), "--spans", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out_path.is_file()
        assert "span trace:" in out
        assert "streaming stats over" in out
        # The trace the flag wrote is inspectable end to end.
        assert obs_main(["flows", str(out_path)]) == 0

    def test_spans_and_telemetry_dir_are_honoured_in_one_run(self, tmp_path,
                                                             capsys):
        """``--spans`` used to return before ``--telemetry-dir`` (and
        ``--csv``) were looked at.  One run writes the span file, the
        bundle with the same spans in it, and the table."""
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(dict(SCENARIO, duration=20.0)),
                            encoding="utf-8")
        spans, csv = tmp_path / "spans.jsonl", tmp_path / "outcome.csv"
        code = experiments_main(
            ["scenario", str(scenario), "--spans", str(spans),
             "--telemetry-dir", str(tmp_path / "tele"), "--csv", str(csv)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "span trace:" in out and "telemetry bundles under" in out
        bundle = tmp_path / "tele" / SCENARIO["name"]
        for name in ("manifest.json", "metrics.jsonl", "events.jsonl"):
            assert (bundle / name).is_file()
        assert (bundle / SPANS_NAME).read_bytes() == spans.read_bytes()
        assert csv.read_text().startswith("metric,value")
        # The bundle answers the span questions and diffs on span counts.
        assert obs_main(["critical-path", str(bundle), "--worst"]) == 0
        assert obs_main(["diff", str(bundle), str(bundle), "--show-ok"]) == 0
        assert "spans.pkt" in capsys.readouterr().out

    def test_spans_with_many_files_is_rejected(self, tmp_path, capsys):
        document = dict(SCENARIO, duration=1.0)
        paths = []
        for index in range(2):
            path = tmp_path / f"s{index}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            paths.append(str(path))
        code = experiments_main(
            ["scenario", *paths, "--spans", str(tmp_path / "out.jsonl")]
        )
        assert code == 2
        assert "single file" in capsys.readouterr().err


FLUID_SCENARIO = {
    "name": "obs-cli-fluid",
    "seed": 1,
    "duration": 30.0,
    "topology": {"type": "dumbbell", "capacity_bps": 2_000_000,
                 "rtt": 0.1, "pkt_size": 1000},
    "queue": {"kind": "red", "buffer_rtts": 2.0,
              "min_th": 10, "max_th": 14, "max_p": 1.0, "weight": 0.0005},
    "workloads": [{"type": "bulk", "n_flows": 4, "extra_rtt_max": 0}],
    "backend": {"kind": "fluid"},
}


class TestExportAndStability:
    def test_telemetry_dir_bundles_then_export_round_trips(self, tmp_path,
                                                           capsys):
        """scenario --telemetry-dir writes one bundle per scenario, and
        taq-obs export renders it as well-formed OpenMetrics."""
        from repro.obs.export import validate_openmetrics

        document = dict(SCENARIO, duration=5.0)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(document), encoding="utf-8")
        tele = tmp_path / "tele"
        code = experiments_main(
            ["scenario", str(scenario), "--telemetry-dir", str(tele)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry bundles under" in out
        bundle = tele / "obs-cli"
        assert (bundle / "metrics.jsonl").is_file()

        assert obs_main(["export", str(bundle)]) == 0
        text = capsys.readouterr().out
        assert validate_openmetrics(text) == []
        assert "taq_run_info" in text
        assert text.rstrip().endswith("# EOF")

        out_file = tmp_path / "metrics.om"
        assert obs_main(["export", str(bundle), "--out", str(out_file)]) == 0
        assert validate_openmetrics(out_file.read_text()) == []

    def test_stability_on_fluid_bundle_and_scenario_file(self, tmp_path,
                                                         capsys):
        scenario = tmp_path / "fluid.json"
        scenario.write_text(json.dumps(FLUID_SCENARIO), encoding="utf-8")
        tele = tmp_path / "tele"
        code = experiments_main(
            ["scenario", str(scenario), "--telemetry-dir", str(tele)]
        )
        capsys.readouterr()
        assert code == 0
        bundle = tele / "obs-cli-fluid"

        # Bundle directory: re-analyzes the recorded trajectory.
        assert obs_main(["stability", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "limit-cycle" in out
        assert "Reynier" in out

        # Scenario file: runs the fluid model and analyzes the result.
        assert obs_main(["stability", str(scenario)]) == 0
        assert "limit-cycle" in capsys.readouterr().out

    def test_stability_rejects_non_fluid_target(self, tmp_path):
        bogus = tmp_path / "nope"
        with pytest.raises(SystemExit):
            obs_main(["stability", str(bogus)])


class TestTelemetrySpans:
    def test_finalize_writes_spans_jsonl_and_summary_rolls_up(self, tmp_path):
        recorder = SpanRecorder()
        # Long enough for the short flows (start at 10s) to complete, so
        # critical-path --worst has a closed flow span to pick.
        spec = ScenarioSpec.from_document(dict(SCENARIO, duration=20.0))
        with recording(recorder):
            built = build_simulation(spec)
            built.run()
        out = str(tmp_path / "bundle")
        telemetry = Telemetry(out_dir=out, sample_interval=0, spans=recorder)
        telemetry.finalize(built.sim, run_id="spans-bundle", seed=11)
        assert os.path.isfile(os.path.join(out, SPANS_NAME))
        assert telemetry.summary()["spans"]["spans"] == len(recorder.spans)
        # taq-obs accepts the bundle directory directly.
        assert obs_main(["critical-path", out, "--worst"]) == 0
