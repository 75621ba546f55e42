"""Smoke tests of the perf ledger.  Run by path (not in tier-1 testpaths):

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 5

sys.path.insert(0, str(LEDGER))


def ledger(*args, cwd=ROOT, script=LEDGER / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_line(done):
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    return line


@pytest.fixture(scope="module")
def smoke_runs():
    """Two end-to-end smoke runs of every workload, same seed."""
    return {w: [result_line(ledger("--workload", w, "--seed", str(SEED), "--smoke"))
                for _ in range(2)]
            for w in WORKLOADS}


@pytest.fixture(scope="module")
def trace_runs():
    return {w: result_line(ledger("--workload", w, "--seed", str(SEED), "--smoke",
                                  "--trace", "1"))
            for w in WORKLOADS}


def test_declaration_is_within_the_contract_limits():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    runs = 4 + 22 * len(DECLARED["workloads"])
    assert runs * (DECLARED["run_seconds"] + 14) <= 3420, "no room under the time cap"
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_end_to_end_metric_is_reported_with_its_unit(smoke_runs):
    for workload, (first, _) in smoke_runs.items():
        reported = {name: entry["unit"] for name, entry in first["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}, workload
        for name, entry in first["metrics"].items():
            assert entry["value"] > 0, (workload, name)


def test_exact_metrics_repeat_exactly(smoke_runs):
    import run

    for workload, (first, second) in smoke_runs.items():
        for name in run.EXACT:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], (
                workload, name)


def test_trace_reports_every_layer_metric_with_its_unit(trace_runs):
    for workload, line in trace_runs.items():
        reported = {name: entry["unit"] for name, entry in line["metrics"].items()}
        assert reported == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}, workload
        assert line["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_workloads_separate_the_layers(trace_runs):
    share = {w: line["metrics"]["core.self_share"]["value"]
             for w, line in trace_runs.items()}
    assert share["spk_bulk_taq"] >= 0.4
    assert share["spk_bulk_droptail"] <= 0.02
    for workload, line in trace_runs.items():
        # The job store builds a RunManifest per job through repro.obs, so
        # the sweep shows 0.008-0.012 of observer code with nothing armed.
        limit = 0.015 if workload == "sweep_resume" else 0.01
        assert line["metrics"]["observers.unarmed_self_share"]["value"] <= limit, workload
    web = trace_runs["web_churn_taq_ac"]["metrics"]
    assert web["core.admission_refusals"]["value"] >= 1
    sweep = trace_runs["sweep_resume"]["metrics"]
    assert sweep["parallel.cache_hit_share"]["value"] == pytest.approx(8 / 9)
    assert sweep["parallel.self_share"]["value"] > share["sweep_resume"]


def test_spans_use_one_schema(trace_runs):
    for workload in trace_runs:
        path = LEDGER / "out" / f"{workload}-seed{SEED}-spans.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans
        for span in spans:
            assert set(span) == {"name", "start", "end", "parent", "unit"}
            assert span["end"] >= span["start"]
        roots = [s for s in spans if s["name"] == "unit"]
        assert roots and all(s["parent"] is None for s in roots)


def tampered_run(tmp_path, patch):
    """A smoke run of ``spk_bulk_droptail`` with *patch* applied to the
    harness from outside; its exit status and result line."""
    driver = tmp_path / "broken.py"
    driver.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(LEDGER)!r})\n"
        "import run, units\n"
        "calls = []\n"
        f"{patch}"
        "sys.exit(run.main(sys.argv[1:]))\n"
    )
    done = ledger("--workload", "spk_bulk_droptail", "--seed", str(SEED), "--smoke",
                  script=driver)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_a_failed_check_makes_the_exit_status_nonzero(tmp_path):
    """Break determinism from outside: a unit whose outcome differs from
    the first unit's must count as failed."""
    status, line = tampered_run(
        tmp_path,
        "original = units.PacketWorkload.verify\n"
        "def verify(self, result):\n"
        "    calls.append(1)\n"
        "    if len(calls) == 3:\n"
        "        result = dict(result, key=('tampered',))\n"
        "    return original(self, result)\n"
        "units.PacketWorkload.verify = verify\n")
    assert status == 1
    assert line["correct"] is False and line["failed"] == 1


def test_a_run_whose_timed_units_all_raise_still_ends_with_a_result_line(tmp_path):
    """The profiled unit and the armed warm-up go through; every timed
    slot raises."""
    status, line = tampered_run(
        tmp_path,
        "original = units.PacketWorkload.run\n"
        "def run_unit(self, arm, *rest):\n"
        "    calls.append(1)\n"
        "    if len(calls) > 2:\n"
        "        raise RuntimeError('tampered')\n"
        "    return original(self, arm, *rest)\n"
        "units.PacketWorkload.run = run_unit\n")
    assert status == 1
    assert line["correct"] is False and line["failed"] == 4 and line["metrics"] == {}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "spk_bulk_taq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
