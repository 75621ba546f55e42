"""The --jobs/--no-cache surface of ``taq-experiments``."""

import functools
import os
import subprocess
import sys

import pytest

from repro.experiments import cli
from repro.experiments import fig02_fairness_droptail as fig2

TINY = functools.partial(
    fig2.Config,
    capacities_bps=(200_000.0,),
    fair_shares_bps=(40_000.0,),
    duration=30.0,
)


@pytest.fixture
def tiny_fig02(monkeypatch, tmp_path):
    monkeypatch.setattr(fig2, "Config", TINY)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def test_jobs_flag_runs_and_prints_table(tiny_fig02, capsys):
    assert cli.main(["fig02", "--jobs", "2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Fig 2" in out
    assert "200" in out  # the capacity row made it into the table


def test_jobs_one_matches_jobs_two(tiny_fig02, capsys, tmp_path):
    assert cli.main(["fig02", "--jobs", "1", "--no-cache", "--csv",
                     str(tmp_path / "j1.csv")]) == 0
    assert cli.main(["fig02", "--jobs", "2", "--no-cache", "--csv",
                     str(tmp_path / "j2.csv")]) == 0
    assert (tmp_path / "j1.csv").read_text() == (tmp_path / "j2.csv").read_text()


def test_cache_dir_respects_env(tiny_fig02, capsys, tmp_path):
    assert cli.main(["fig02", "--jobs", "1"]) == 0
    cache_dir = tmp_path / "cache"
    entries = list(cache_dir.rglob("*.pkl"))
    assert entries, "cache population under $REPRO_CACHE_DIR"
    # Second run reuses the entries rather than adding new ones.
    assert cli.main(["fig02", "--jobs", "1"]) == 0
    assert sorted(cache_dir.rglob("*.pkl")) == sorted(entries)


def test_single_scenario_note_for_jobs(monkeypatch, capsys):
    # fig01 has no grid; --jobs should be ignored with a stderr note,
    # without running the (slow) experiment itself.
    import repro.experiments.fig01_download_times as fig1

    class Namespace:
        experiment = "fig01"
        jobs = 4
        no_cache = False

    assert cli.engine_kwargs(fig1, Namespace()) == {}
    assert "--jobs ignored" in capsys.readouterr().err


def test_cache_backend_flag_selects_sqlite(tiny_fig02, capsys, tmp_path):
    db = tmp_path / "entries.sqlite"
    backend = f"sqlite:{db}"
    assert cli.main(["fig02", "--jobs", "1", "--cache-backend", backend]) == 0
    assert db.exists()
    # The entries landed in sqlite, not the dir cache.
    assert not list((tmp_path / "cache").rglob("*.pkl"))
    # And the sqlite-backed rerun prints the same table.
    first = capsys.readouterr().out
    assert cli.main(["fig02", "--jobs", "1", "--cache-backend", backend]) == 0
    assert capsys.readouterr().out == first


def test_cache_backend_env_var_applies(tiny_fig02, monkeypatch, tmp_path):
    db = tmp_path / "env.sqlite"
    monkeypatch.setenv("REPRO_CACHE_BACKEND", f"sqlite:{db}")
    assert cli.main(["fig02", "--jobs", "1"]) == 0
    assert db.exists()


BOGUS_BACKEND_ERROR = (
    "error: unknown cache backend 'bogus:/tmp/x'; expected dir:PATH, "
    "sqlite:PATH, or http://host:port\n")


@pytest.mark.parametrize("argv", [["cache", "stats"], ["fig02", "--jobs", "1"]])
@pytest.mark.parametrize("through", ["flag", "environment"])
def test_mistyped_cache_backend_is_one_line_and_exit_2(
        tiny_fig02, monkeypatch, capsys, argv, through):
    if through == "flag":
        argv = argv + ["--cache-backend", "bogus:/tmp/x"]
    else:
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "bogus:/tmp/x")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == BOGUS_BACKEND_ERROR


def test_reproduce_all_reports_a_mistyped_cache_backend_the_same_way(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    done = subprocess.run(
        [sys.executable, os.path.join(root, "examples", "reproduce_all.py"),
         str(tmp_path / "results"), "--only", "fig02",
         "--cache-backend", "bogus:/tmp/x"],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr == BOGUS_BACKEND_ERROR
    assert not (tmp_path / "results").exists()


def test_cache_stats_json(tiny_fig02, capsys, tmp_path):
    import json

    assert cli.main(["fig02", "--jobs", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["kind"] == "dir"
    assert stats["entries"] > 0
    assert stats["enabled"] is True


def test_cache_prune_empties_the_store(tiny_fig02, capsys):
    assert cli.main(["fig02", "--jobs", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["cache", "prune"]) == 0
    assert "pruned" in capsys.readouterr().out
    assert cli.main(["cache", "stats", "--json"]) == 0
    import json

    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_resume_flag_arms_the_job_store(tiny_fig02, monkeypatch, capsys,
                                        tmp_path):
    from repro.parallel import JobStore

    monkeypatch.delenv("TAQ_JOB_STORE", raising=False)
    store_dir = tmp_path / "sweep-jobs"
    assert cli.main(["fig02", "--jobs", "1",
                     "--resume", str(store_dir)]) == 0
    assert (store_dir / "jobs.jsonl").is_file()
    store = JobStore(str(store_dir))
    assert len(store) > 0
    assert store.counts()["done"] == len(store)
    # Rerunning with --resume is idempotent: same jobs, all done.
    assert cli.main(["fig02", "--jobs", "1",
                     "--resume", str(store_dir)]) == 0
    assert JobStore(str(store_dir)).counts() == store.counts()
