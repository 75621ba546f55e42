"""``taq-perf`` end to end: run, compare (exit codes), profile."""

from __future__ import annotations

import glob
import json
import os
import re
import shlex

import pytest

from repro.perf.bench import load_bench
from repro.perf.cli import build_parser, main

SCALE_ARGS = ["--scale", "0.02"]
ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def test_run_writes_bench_document(tmp_path, capsys):
    out = str(tmp_path / "bench.json")
    code = main(["run", "--out", out, "--only", "event_heap_cancel",
                 "--only", "queue_droptail_saturation", *SCALE_ARGS])
    assert code == 0
    document = load_bench(out)
    assert set(document["benchmarks"]) == {
        "event_heap_cancel", "queue_droptail_saturation"
    }
    assert f"wrote {out}: 2 benchmark(s)" in capsys.readouterr().out


def test_run_list(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    assert "event_heap_churn" in out
    assert "[queues]" in out


def test_run_unknown_benchmark_exits_2(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["run", "--out", str(out), "--only", "nope", *SCALE_ARGS]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
    assert not out.exists()


def test_run_without_out_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """No default output name: the obvious one is the committed
    baseline's, which a one-row or scaled run would silently replace."""
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--only", "event_heap_cancel", *SCALE_ARGS]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_two_runs_write_byte_identical_files(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["run", "--only", "event_heap_cancel", "--only",
                     "queue_droptail_saturation", *SCALE_ARGS, "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_compare_detects_an_edited_count(tmp_path, capsys):
    out = str(tmp_path / "base.json")
    assert main(["run", "--out", out, "--only", "event_heap_cancel",
                 *SCALE_ARGS]) == 0
    baseline = json.loads(open(out).read())
    edited_path = tmp_path / "edited.json"
    # One count edited in a copy, up or down: compare fails on either,
    # naming the row and the count ...
    for count, step in (("calls", 1), ("calls", -1), ("events", 1)):
        edited = json.loads(json.dumps(baseline))
        row = edited["benchmarks"]["event_heap_cancel"]
        row[count] += step
        edited_path.write_text(json.dumps(edited))
        assert main(["compare", out, str(edited_path)]) == 1
        line, = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("event_heap_cancel")]
        assert line.endswith(f"MOVED: {count} {row[count] - step} -> {row[count]}")
    # ... and a self-compare passes.
    assert main(["compare", out, out]) == 0


def test_compare_that_compared_nothing_exits_1(tmp_path, capsys):
    paths = [str(tmp_path / "full.json"), str(tmp_path / "smaller.json")]
    for path, scale in zip(paths, ("0.02", "0.01")):
        assert main(["run", "--out", path, "--only", "event_heap_cancel",
                     "--scale", scale]) == 0
    assert main(["compare", *paths]) == 1
    assert "FAIL: nothing compared" in capsys.readouterr().out


def test_compare_rejects_non_bench_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "not.bench"}))
    assert main(["compare", str(bogus), str(bogus)]) == 2
    assert "error:" in capsys.readouterr().err


def test_profile_bench_writes_pstats_and_folded(tmp_path, capsys):
    prefix = str(tmp_path / "prof")
    code = main(["profile", "--bench", "tcp_small_packets_droptail",
                 "--scale", "0.2", "--out", prefix,
                 "--sample-interval", "0.0005"])
    assert code == 0
    assert (tmp_path / "prof.pstats").exists()
    assert (tmp_path / "prof.folded").exists()
    out = capsys.readouterr().out
    # cProfile table, probe roll-up, and the artifact summary line.
    assert "cumulative" in out
    assert "counters:" in out
    assert "sim.events_popped" in out
    assert "wrote" in out


def test_profile_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "name": "cli-profile",
        "seed": 5,
        "duration": 10.0,
        "topology": {"capacity_bps": 400_000, "rtt": 0.1, "pkt_size": 300},
        "workloads": [{"type": "bulk", "n_flows": 3}],
    }))
    prefix = str(tmp_path / "sprof")
    assert main(["profile", "--scenario", str(scenario), "--out", prefix]) == 0
    folded = (tmp_path / "sprof.folded").read_text()
    # Folded lines are "mod:fn;mod:fn ... count" — flamegraph.pl input.
    for line in folded.splitlines():
        stack, _, count = line.rpartition(" ")
        assert stack and count.isdigit()


def test_profile_unknown_bench_exits_2(tmp_path, capsys):
    assert main(["profile", "--bench", "nope",
                 "--out", str(tmp_path / "x")]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_profile_requires_a_target():
    with pytest.raises(SystemExit):
        main(["profile"])


# ----------------------------------------------------------------------
# The fence: every documented command line is one the parser accepts
# ----------------------------------------------------------------------
#: A ``taq-perf`` invocation at the start of a line, after at most a
#: YAML ``run:`` key, a ``$`` prompt and environment assignments; what
#: follows is its argument string.  Comment lines and step names of a
#: workflow never match, prose never sits in a fenced block.
COMMAND = re.compile(r"^\s*(?:-\s+)?(?:run:\s*)?(?:\$\s+)?(?:\w+=\S+\s+)*"
                     r"(?:taq-perf|python3? -m repro\.perf\.cli)\s(.*)$")
SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "2>", "2>&1"}


def _documented_commands():
    """``(where, argv)`` for each ``taq-perf`` command line in a fenced
    block of the documents that tell people what to type, and in the
    workflows that type it."""
    patterns = ("README.md", ".claude/skills/verify/SKILL.md", "docs/*.md",
                ".github/workflows/*.yml")
    for path in sorted(p for pattern in patterns
                       for p in glob.glob(os.path.join(ROOT, pattern))):
        relative = os.path.relpath(path, ROOT)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        fenced = relative.endswith(".yml")
        for number, line in enumerate(lines, 1):
            if relative.endswith(".md") and line.lstrip().startswith("```"):
                fenced = not fenced
            match = COMMAND.match(line) if fenced else None
            if match is None:
                continue
            text = match.group(1)
            while text.endswith("\\"):  # a continued line
                text = text[:-1] + lines[number]
                number += 1
            argv = shlex.split(text, comments=True)
            cut = [i for i, word in enumerate(argv) if word in SHELL_OPERATORS]
            yield f"{relative}:{number}", argv[:cut[0]] if cut else argv


def test_every_documented_command_line_parses(capsys):
    parser = build_parser()
    commands = list(_documented_commands())
    # The three places that must say something: how to run, gate and profile.
    sources = {where.rsplit(":", 1)[0] for where, _ in commands}
    assert {"docs/performance.md", ".claude/skills/verify/SKILL.md",
            ".github/workflows/ci.yml"} <= sources
    bad = []
    for where, argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            bad.append(f"{where}: {capsys.readouterr().err.splitlines()[-1]}")
            continue
        if args.command == "run" and not (args.out or args.list):
            bad.append(f"{where}: a run that writes names no --out")
        bad += [f"{where}: no {word} at the repository root" for word in argv
                if re.fullmatch(r"BENCH_\w+\.json", word)
                and not os.path.exists(os.path.join(ROOT, word))]
    assert bad == []
