"""The live sweep progress bus (repro.parallel.bus) and its wiring.

Three layers: the bus primitives (keying, append/read, torn-write
tolerance, stall detection), the runner integration (an armed sweep
leaves a complete start/heartbeat/done record per point and identical
results to an unarmed one, on both execution paths), and the
ProgressPrinter's rolling-average ETA.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

import pytest

from repro.parallel import JobStore, ParallelRunner, PointSpec, ResultCache
from repro.parallel import bus as bus_module
from repro.parallel.bus import (
    HEARTBEAT_INTERVAL,
    STALL_INTERVALS,
    SWEEP_FILE,
    Heartbeat,
    ProgressBus,
    point_key,
    read_bus,
    render_tail,
)
from repro.parallel.runner import ProgressPrinter
from tests.parallel.helpers import beat_thread_count

SQUARE = "tests.parallel.helpers:square"
SLOW_SQUARE = "tests.parallel.helpers:slow_square"


def square_specs(values):
    return [PointSpec(SQUARE, {"x": x}, label=f"x={x}") for x in values]


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestPointKey:
    def test_stable_and_ordered(self):
        assert point_key(0, "taq load=0.4") == "p000-taq-load-0.4"
        assert point_key(12, "taq load=0.4") == "p012-taq-load-0.4"

    def test_filesystem_hostile_labels_are_slugged(self):
        key = point_key(1, "a/b\\c:d e*f")
        assert "/" not in key and "\\" not in key and "*" not in key

    def test_long_labels_truncate(self):
        assert len(point_key(1, "x" * 500)) <= 45

    def test_empty_label_falls_back(self):
        assert point_key(2, "///") == "p002-point"


class TestBusReadWrite:
    def test_events_append_and_read_back(self, tmp_path):
        bus = ProgressBus(str(tmp_path / "bus"))
        bus.announce(3, "fig02")
        key = point_key(0, "x=1")
        bus.emit(key, "start", pid=123)
        bus.emit(key, "heartbeat", elapsed=5.0)
        bus.emit(key, "done", wall=9.5)
        state = read_bus(str(tmp_path / "bus"))
        assert state["total"] == 3
        assert state["label"] == "fig02"
        point = state["points"][key]
        assert point["status"] == "done"
        assert point["wall"] == 9.5
        assert point["pid"] == 123
        assert point["elapsed"] == 5.0

    def test_cached_done_reads_as_cached(self, tmp_path):
        bus = ProgressBus(str(tmp_path))
        bus.emit("p000-a", "done", wall=1.0, cached=True)
        point = read_bus(str(tmp_path))["points"]["p000-a"]
        assert point["status"] == "cached"
        assert point["cached"] is True

    def test_a_cached_record_expands_to_one_point_each(self, tmp_path):
        bus = ProgressBus(str(tmp_path))
        bus.announce(3, "fig02")
        bus.announce_cached({"p000-a": 1.5, "p002-c": 2.25})
        bus.announce_cached({})  # nothing served: nothing written
        state = read_bus(str(tmp_path))
        assert {key: (p["status"], p["wall"], p["cached"])
                for key, p in state["points"].items()} == {
            "p000-a": ("cached", 1.5, True), "p002-c": ("cached", 2.25, True)}
        assert [path.name for path in tmp_path.iterdir()] == [SWEEP_FILE]
        assert len((tmp_path / SWEEP_FILE).read_text().splitlines()) == 2

    def test_a_cached_record_and_a_point_file_merge_in_time_order(self, tmp_path):
        def write(name, *events):
            with open(tmp_path / f"{name}.jsonl", "a", encoding="utf-8") as handle:
                for event in events:
                    handle.write(json.dumps(event) + "\n")

        # p000 was computed by an earlier run, then served by a later one;
        # p001 was served, then computed again after its entry went stale.
        write("p000-a", {"t": 1.0, "kind": "start", "pid": 9},
              {"t": 2.0, "kind": "done", "wall": 1.0})
        write("p001-b", {"t": 5.0, "kind": "start", "pid": 9})
        write("_sweep", {"t": 3.0, "kind": "cached",
                         "points": {"p000-a": 1.0, "p001-b": 0.5}})
        points = read_bus(str(tmp_path))["points"]
        assert (points["p000-a"]["status"], points["p000-a"]["last_seen"]) == (
            "cached", 3.0)
        assert (points["p001-b"]["status"], points["p001-b"]["wall"]) == (
            "running", 0.5)

    def test_torn_tail_write_is_skipped(self, tmp_path):
        bus = ProgressBus(str(tmp_path))
        key = "p000-a"
        bus.emit(key, "start", pid=1)
        with open(tmp_path / f"{key}.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"t": 1.0, "kind": "done", "wal')  # mid-append crash
        point = read_bus(str(tmp_path))["points"][key]
        assert point["status"] == "running"  # the torn line didn't count

    def test_missing_directory_reads_empty(self, tmp_path):
        state = read_bus(str(tmp_path / "nope"))
        assert state == {"total": None, "label": None, "points": {}}

    def test_sweep_header_is_not_a_point(self, tmp_path):
        bus = ProgressBus(str(tmp_path))
        bus.announce(2, "sweep")
        assert read_bus(str(tmp_path))["points"] == {}
        assert (tmp_path / SWEEP_FILE).is_file()


class TestHeartbeat:
    def test_beats_while_held_and_stops_on_exit(self, tmp_path):
        bus = ProgressBus(str(tmp_path))
        with Heartbeat(bus, "p000-a", interval=0.05):
            time.sleep(0.22)
        events = [json.loads(line) for line in
                  (tmp_path / "p000-a.jsonl").read_text().splitlines()]
        beats = [e for e in events if e["kind"] == "heartbeat"]
        assert len(beats) >= 2
        assert all(e["elapsed"] >= 0.0 for e in beats)
        count_after_exit = len(beats)
        time.sleep(0.15)
        events = [json.loads(line) for line in
                  (tmp_path / "p000-a.jsonl").read_text().splitlines()]
        assert len([e for e in events if e["kind"] == "heartbeat"]) \
            == count_after_exit
        assert bus.stop()

    def test_crash_path_still_stops_the_thread(self, tmp_path):
        bus = ProgressBus(str(tmp_path))
        heartbeat = None
        with pytest.raises(RuntimeError, match="point blew up"):
            with Heartbeat(bus, "p000-a", interval=0.05) as heartbeat:
                time.sleep(0.12)
                raise RuntimeError("point blew up")
        # __exit__ unregistered the point on the exception path: the
        # bus's beat thread beats for it no more.
        assert heartbeat is not None
        assert not heartbeat.alive
        assert bus.stop()

    def test_stop_is_idempotent(self, tmp_path):
        bus = ProgressBus(str(tmp_path))
        heartbeat = Heartbeat(bus, "p000-a", interval=0.05)
        with heartbeat:
            assert heartbeat.alive
        assert heartbeat.stop() is True
        assert heartbeat.stop() is True
        assert not heartbeat.alive
        assert bus.stop()

    def test_bus_write_failure_ends_the_thread_quietly(self, tmp_path):
        class ExplodingBus(ProgressBus):
            def emit(self, key, kind, **fields):
                raise OSError("disk full")

        bus = ExplodingBus(str(tmp_path))
        with Heartbeat(bus, "p000-a", interval=0.01) as heartbeat:
            deadline = time.time() + 5.0
            while heartbeat.alive and time.time() < deadline:
                time.sleep(0.01)
            # The beat thread swallowed the OSError and exited on its
            # own rather than spewing tracebacks from a worker.
            assert not heartbeat.alive


class TestRenderTail:
    def _state(self, status, **point):
        base = {"status": status, "elapsed": 0.0, "last_seen": None,
                "wall": None, "cached": False}
        base.update(point)
        return {"total": 2, "label": "fig02", "points": {"p000-a": base}}

    def test_counts_and_rows(self):
        text = render_tail(self._state("done", wall=3.2), now=100.0)
        assert "fig02: 1/2 done, 0 running" in text
        assert "done in 3.2s" in text

    def test_running_shows_live_elapsed(self):
        text = render_tail(
            self._state("running", started=90.0, last_seen=99.0), now=100.0
        )
        assert "running   10.0s" in text
        assert "stalled?" not in text

    def test_silent_running_point_flags_stalled(self):
        silent_for = STALL_INTERVALS * HEARTBEAT_INTERVAL + 1.0
        text = render_tail(
            self._state("running", started=0.0, last_seen=0.0),
            now=silent_for,
        )
        assert "(stalled?)" in text

    def test_cached_points_count_as_finished(self):
        text = render_tail(self._state("cached", wall=1.0, cached=True),
                           now=100.0)
        assert "1/2 done" in text
        assert "cached" in text

    def test_stale_heartbeat_from_real_bus_files_renders_stalled(self, tmp_path):
        """End to end through the on-disk format: a point whose last
        heartbeat is older than STALL_INTERVALS x the heartbeat period
        must render with the stalled marker when tailed."""
        bus = ProgressBus(str(tmp_path))
        bus.announce(1, "fig02")
        key = point_key(0, "x=1")
        bus.emit(key, "start", pid=42)
        bus.emit(key, "heartbeat", elapsed=2.0)
        state = read_bus(str(tmp_path))
        last = state["points"][key]["last_seen"]
        assert last is not None
        stale_now = last + STALL_INTERVALS * HEARTBEAT_INTERVAL + 0.1
        assert "(stalled?)" in render_tail(state, now=stale_now)
        # A beat inside the window clears the marker.
        assert "(stalled?)" not in render_tail(state, now=last + 1.0)

    def test_failed_event_survives_torn_tail(self, tmp_path):
        """A crash report followed by a torn mid-append line must still
        read (and render) as failed — the torn junk is dropped, not the
        terminal state before it."""
        bus = ProgressBus(str(tmp_path))
        key = point_key(0, "x=1")
        bus.emit(key, "start", pid=7)
        bus.emit(key, "failed", error="worker died")
        with open(tmp_path / f"{key}.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"t": 99.0, "kind": "heartb')  # torn mid-append
        state = read_bus(str(tmp_path))
        point = state["points"][key]
        assert point["status"] == "failed"
        assert point["error"] == "worker died"
        text = render_tail(state, now=time.time())
        assert "failed: worker died" in text


class TestTailCli:
    def test_tail_once_renders_stalled_point(self, tmp_path, capsys, monkeypatch):
        """taq-obs tail --once on a bus whose running point went silent
        shows the stalled marker."""
        from repro.obs.cli import main

        bus = ProgressBus(str(tmp_path))
        bus.announce(1, "fig02")
        key = point_key(0, "x=1")
        bus.emit(key, "start", pid=42)
        state = read_bus(str(tmp_path))
        last = state["points"][key]["last_seen"]
        stale_now = last + STALL_INTERVALS * HEARTBEAT_INTERVAL + 5.0
        monkeypatch.setattr(time, "time", lambda: stale_now)
        assert main(["tail", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "(stalled?)" in out

    def test_tail_once_renders_failed_point_despite_torn_tail(
        self, tmp_path, capsys
    ):
        from repro.obs.cli import main

        bus = ProgressBus(str(tmp_path))
        bus.announce(1, "fig02")
        key = point_key(0, "x=1")
        bus.emit(key, "failed", error="boom")
        with open(tmp_path / f"{key}.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"t": 1.0, "kind": "done", "wal')
        assert main(["tail", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "failed: boom" in out
        assert "1 failed" in out


# ----------------------------------------------------------------------
# Runner integration: an armed sweep records every point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
class TestRunnerBus:
    def test_every_point_starts_and_finishes_on_the_bus(self, tmp_path, jobs):
        bus_dir = str(tmp_path / "bus")
        runner = ParallelRunner(jobs=jobs, bus_dir=bus_dir)
        results = runner.run(square_specs([5, 3, 9]))
        assert [r.value for r in results] == [25, 9, 81]
        state = read_bus(bus_dir)
        assert state["total"] == 3
        assert len(state["points"]) == 3
        for point in state["points"].values():
            assert point["status"] == "done"
            assert point["wall"] is not None

    def test_armed_results_match_unarmed(self, tmp_path, jobs):
        armed = ParallelRunner(jobs=jobs, bus_dir=str(tmp_path / "bus"))
        plain = ParallelRunner(jobs=jobs)
        values = [7, 2, 4, 6]
        assert [r.value for r in armed.run(square_specs(values))] == \
            [r.value for r in plain.run(square_specs(values))]

    def test_cache_hits_report_cached_on_the_bus(self, tmp_path, jobs):
        cache = ResultCache(root=str(tmp_path / "cache"), version="v1")
        first = ParallelRunner(jobs=jobs, cache=cache).run(square_specs([3, 6]))
        bus_dir = str(tmp_path / "bus")
        ParallelRunner(jobs=jobs, cache=cache, bus_dir=bus_dir).run(
            square_specs([3, 6])
        )
        state = read_bus(bus_dir)
        assert {key: (p["status"], p["wall"])
                for key, p in state["points"].items()} == {
            point_key(0, "x=3"): ("cached", first[0].wall_time),
            point_key(1, "x=6"): ("cached", first[1].wall_time),
        }
        assert "2/2 done" in render_tail(state)

    def test_tail_frame_renders_the_finished_sweep(self, tmp_path, jobs):
        bus_dir = str(tmp_path / "bus")
        ParallelRunner(jobs=jobs, bus_dir=bus_dir).run(square_specs([1, 2]))
        text = render_tail(read_bus(bus_dir))
        assert "2/2 done" in text


def point_events(bus_dir):
    """Every point file's events, by point key."""
    return {path.stem: [json.loads(line) for line in path.read_text().splitlines()]
            for path in sorted(Path(bus_dir).glob("p*.jsonl"))}


class TestOneBeatThreadPerBus:
    """An in-process sweep runs every point on one bus and one beat
    thread; a point's key leaves that thread before its terminal event."""

    POINTS = 20
    INTERVAL = 0.005

    @pytest.fixture(autouse=True)
    def quick_beats(self, monkeypatch):
        monkeypatch.setattr(bus_module, "HEARTBEAT_INTERVAL", self.INTERVAL)

    def test_one_thread_beats_for_every_point_and_stops_with_the_run(self, tmp_path):
        before = beat_thread_count()
        bus_dir = str(tmp_path / "bus")
        specs = [PointSpec("tests.parallel.helpers:beat_threads", {"x": x},
                           label=f"x={x}") for x in range(self.POINTS)]
        results = ParallelRunner(jobs=1, bus_dir=bus_dir).run(specs)
        # Counted by each point while it computed: the run's one thread.
        assert [r.value for r in results] == [before + 1] * self.POINTS
        assert beat_thread_count() == before
        events = point_events(bus_dir)
        assert len(events) == self.POINTS
        beats = 0
        for key, kinds in ((key, [e["kind"] for e in evs])
                           for key, evs in events.items()):
            assert kinds.count("start") == 1 and kinds[0] == "start", key
            assert kinds.count("done") == 1 and "failed" not in kinds, key
            assert kinds[-1] == "done", key  # no beat after it
            beats += kinds.count("heartbeat")
        assert beats > 0  # the shared thread did beat for the points

    def test_a_crashing_point_gets_failed_and_no_later_beat(self, tmp_path):
        before = beat_thread_count()
        bus_dir = str(tmp_path / "bus")
        specs = [PointSpec(SLOW_SQUARE, {"x": 1, "delay": 0.02}, label="x=1"),
                 PointSpec("tests.parallel.helpers:boom",
                           {"message": "crash", "delay": 0.05}, label="boom"),
                 PointSpec(SLOW_SQUARE, {"x": 2, "delay": 0.02}, label="x=2")]
        runner = ParallelRunner(jobs=1, bus_dir=bus_dir, keep_going=True)
        assert [r.value for r in runner.run(specs)] == [1, 4]
        time.sleep(10 * self.INTERVAL)  # a stray beat would land by now
        events = point_events(bus_dir)[point_key(1, "boom")]
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "start" and kinds[-1] == "failed"
        assert kinds.count("failed") == 1 and "done" not in kinds
        assert "heartbeat" in kinds  # it was beaten for while it ran
        assert "crash" in events[-1]["error"]
        assert beat_thread_count() == before


class TestBusFailureNeverFailsAPoint:
    def test_a_done_that_cannot_be_written_keeps_the_value(self, tmp_path,
                                                          monkeypatch):
        emit = ProgressBus.emit

        def full_disk_on_done(self, key, kind, **fields):
            if kind == "done":
                raise OSError(28, "No space left on device")
            emit(self, key, kind, **fields)

        monkeypatch.setattr(ProgressBus, "emit", full_disk_on_done)
        cache = ResultCache(root=str(tmp_path / "cache"), version="v1")
        store = JobStore(str(tmp_path / "jobs"), version="v1")
        bus_dir = str(tmp_path / "bus")
        specs = square_specs([3, 4])
        runner = ParallelRunner(jobs=1, cache=cache, store=store,
                                bus_dir=bus_dir, keep_going=True)
        assert [r.value for r in runner.run(specs)] == [9, 16]
        assert [cache.get(spec)[0] for spec in specs] == [9, 16]
        assert store.counts()["done"] == 2 and store.counts()["failed"] == 0
        # The first failed write silenced the bus: the second point
        # wrote nothing at all.
        assert list(point_events(bus_dir)) == [point_key(0, "x=3")]


class TestRunnerBusArming:
    def test_unarmed_runner_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TAQ_OBS_BUS", raising=False)
        runner = ParallelRunner(jobs=1)
        assert runner.bus_dir is None
        runner.run(square_specs([2]))
        assert list(tmp_path.iterdir()) == []

    def test_env_var_arms_the_bus(self, tmp_path, monkeypatch):
        bus_dir = str(tmp_path / "bus")
        monkeypatch.setenv("TAQ_OBS_BUS", bus_dir)
        ParallelRunner(jobs=1).run(square_specs([2]))
        state = read_bus(bus_dir)
        assert len(state["points"]) == 1

    def test_explicit_bus_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAQ_OBS_BUS", str(tmp_path / "env-bus"))
        explicit = str(tmp_path / "explicit")
        ParallelRunner(jobs=1, bus_dir=explicit).run(square_specs([2]))
        assert len(read_bus(explicit)["points"]) == 1
        assert not (tmp_path / "env-bus").exists()


# ----------------------------------------------------------------------
# ProgressPrinter rolling-average ETA
# ----------------------------------------------------------------------
class TestRollingEta:
    def _printer(self):
        printer = ProgressPrinter("test", stream=io.StringIO())
        printer._start = 0.0
        return printer

    def test_single_completion_uses_overall_mean(self):
        printer = self._printer()
        printer._finish_times.append(2.0)
        # 1 done in 2s -> 3 remaining at 2s each.
        assert printer.eta(now=2.0, done=1, total=4) == pytest.approx(6.0)

    def test_window_tracks_recent_pace_not_the_opening_burst(self):
        printer = self._printer()
        # 8 instant cache hits, then cold points at 10s each.
        times = [0.0] * 8 + [10.0, 20.0]
        for t in times:
            printer._finish_times.append(t)
        done = len(times)
        eta = printer.eta(now=20.0, done=done, total=done + 5)
        overall_mean_eta = 20.0 / done * 5
        # The window (last 9 finishes: 0,0,10,20 -> 2.5s/pt) dominates
        # the whole-sweep mean (2.0s/pt) as cold points accumulate.
        assert eta == pytest.approx(2.5 * 5)
        assert eta != pytest.approx(overall_mean_eta)

    def test_zero_done_is_zero_eta(self):
        assert self._printer().eta(now=5.0, done=0, total=4) == 0.0

    def test_window_is_bounded(self):
        printer = self._printer()
        for t in range(100):
            printer._finish_times.append(float(t))
        assert len(printer._finish_times) == ProgressPrinter.ETA_WINDOW + 1

    def test_progress_lines_include_eta(self):
        stream = io.StringIO()
        printer = ProgressPrinter("sweep", stream=stream)
        runner = ParallelRunner(jobs=1, progress=printer)
        runner.run(square_specs([2, 3]))
        output = stream.getvalue()
        assert "eta" in output
        assert "[sweep] 2 point(s): 2 computed" in output
