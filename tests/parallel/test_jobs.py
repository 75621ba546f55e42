"""The durable job store: states, replay, compaction, schema safety."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.parallel import JobStore, ParallelRunner, PointSpec, ResultCache, spec_key
from repro.parallel import jobs as jobs_module
from repro.parallel.jobs import JOBS_FILE, JOBS_SCHEMA_VERSION

#: Stores written by the parent commit (its job records embed a
#: ``manifest``, its state records a ``pid``); see the README next to them.
PARENT = os.path.join(os.path.dirname(__file__), "fixtures", "parent")


def specs(n):
    return [PointSpec("tests.parallel.helpers:square", {"x": i},
                      label=f"x={i}") for i in range(n)]


def records(root):
    with open(os.path.join(str(root), JOBS_FILE), encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class TestInMemory:
    def test_memory_store_is_not_persistent(self):
        store = JobStore(None, version="v1")
        assert store.root is None
        jobs = store.submit(specs(3))
        assert len(store) == 3
        store.mark_done(jobs[0].job_id, wall_time=1.0)
        assert store.counts()["done"] == 1


class TestSubmit:
    def test_job_ids_are_cache_keys(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        (job,) = store.submit(specs(1))
        assert job.job_id == spec_key(job.spec, "v1")

    def test_submit_is_idempotent(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        first = store.submit(specs(3))
        again = store.submit(specs(3))
        assert len(store) == 3
        assert [j.job_id for j in first] == [j.job_id for j in again]

    def test_duplicate_specs_map_to_one_job(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        spec = specs(1)[0]
        one, two = store.submit([spec, spec])
        assert one is two
        assert len(store) == 1

    def test_job_record_holds_what_something_reads(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        (job,) = store.submit(specs(1))
        (record,) = [r for r in records(tmp_path) if r["kind"] == "job"]
        assert sorted(record) == ["id", "kind", "spec", "t"]
        assert record["id"] == job.job_id
        assert record["spec"] == {"fn": job.spec.fn, "kwargs": {"x": 0},
                                  "label": "x=0"}

    def test_code_version_is_logged_once_per_run_never_at_open(
            self, tmp_path, monkeypatch):
        def hashed_at_open():
            raise AssertionError("opening a store hashed the sources")

        monkeypatch.setattr(jobs_module, "code_version", hashed_at_open)
        JobStore(str(tmp_path))                     # creates the log
        store = JobStore(str(tmp_path))             # replays it
        assert all("code" not in r for r in records(tmp_path))
        JobStore(None).submit(specs(1))             # no log: nothing to say
        monkeypatch.setattr(jobs_module, "code_version", lambda: "hash-a")
        store.submit(specs(2))
        store.submit(specs(3))                      # one more job, same run
        assert [r.get("code") for r in records(tmp_path)
                if r["kind"] == "jobstore"] == [None, "hash-a"]
        # A later run of the store says it again, next to its first job.
        again = JobStore(str(tmp_path))
        again.submit(specs(3))                      # nothing new: no record
        again.submit(specs(4))
        kinds = [(r["kind"], r.get("code")) for r in records(tmp_path)]
        assert kinds[-2:] == [("jobstore", "hash-a"), ("job", None)]
        assert sum(1 for _, code in kinds if code) == 2
        # A version handed to the store is the one it records.
        JobStore(str(tmp_path / "pinned"), version="v1").submit(specs(1))
        assert records(tmp_path / "pinned")[1]["code"] == "v1"


class TestStateMachine:
    def test_lifecycle_counts(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        jobs = store.submit(specs(3))
        store.mark_running(jobs[0].job_id, pid=42)
        store.mark_done(jobs[0].job_id, wall_time=1.5, cached=False)
        store.mark_running(jobs[1].job_id, pid=43)
        store.mark_failed(jobs[1].job_id, "RuntimeError('boom')")
        assert store.counts() == {"pending": 1, "running": 0,
                                  "done": 1, "failed": 1}
        assert store.pending() == [jobs[2]]
        assert jobs[0].wall_time == 1.5
        assert jobs[0].attempts == 1
        assert jobs[1].error == "RuntimeError('boom')"

    def test_summary_payload(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        store.submit(specs(2))
        summary = store.summary()
        assert summary["schema"] == JOBS_SCHEMA_VERSION
        assert summary["total"] == 2
        assert summary["counts"]["pending"] == 2
        assert summary["interrupted"] == 0


class TestReplay:
    def test_states_survive_reopen(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        jobs = store.submit(specs(3))
        store.mark_done(jobs[0].job_id, wall_time=2.5, cached=True)
        store.mark_failed(jobs[1].job_id, "boom")
        reopened = JobStore(str(tmp_path), version="v1")
        assert reopened.counts() == {"pending": 1, "running": 0,
                                     "done": 1, "failed": 1}
        done = reopened.get(jobs[0].job_id)
        assert done.wall_time == 2.5
        assert done.cached is True
        assert reopened.get(jobs[1].job_id).error == "boom"
        # Submit order is preserved across replay.
        assert [j.job_id for j in reopened] == [j.job_id for j in jobs]

    def test_running_jobs_revert_to_pending_as_interrupted(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        jobs = store.submit(specs(3))
        store.mark_running(jobs[0].job_id, pid=1)
        store.mark_running(jobs[1].job_id, pid=2)
        store.mark_done(jobs[1].job_id, wall_time=1.0)
        reopened = JobStore(str(tmp_path), version="v1")
        assert reopened.interrupted == 1
        assert reopened.counts()["pending"] == 2
        assert reopened.counts()["done"] == 1
        # The interrupted job keeps its attempt count for forensics.
        assert reopened.get(jobs[0].job_id).attempts == 1

    def test_torn_tail_line_is_ignored(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        jobs = store.submit(specs(2))
        store.mark_done(jobs[0].job_id, wall_time=1.0)
        with open(tmp_path / JOBS_FILE, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "state", "id": "aaa", "sta')  # SIGKILL
        reopened = JobStore(str(tmp_path), version="v1")
        assert reopened.counts()["done"] == 1
        assert len(reopened) == 2

    @pytest.mark.parametrize("name", ["jobs", "jobs-compacted"])
    def test_a_log_written_by_the_parent_replays(self, tmp_path, name):
        root = shutil.copytree(os.path.join(PARENT, name), tmp_path / name)
        store = JobStore(str(root), version="v1")
        done, cached, failed, killed = list(store)
        assert [job.job_id for job in store] == [
            spec_key(job.spec, "v1") for job in store]
        assert (done.state, done.wall_time, done.cached) == ("done", 2.5, False)
        # The parent's records still carry a "scenario" key; replay
        # reads fn, kwargs and label and leaves the rest.
        assert done.spec == PointSpec("tests.parallel.helpers:square",
                                      {"x": 0}, label="x=0")
        assert (cached.state, cached.wall_time, cached.cached) == ("done", 0.75, True)
        assert (failed.state, failed.error, failed.attempts) == (
            "failed", "RuntimeError('again')", 2)
        assert failed.spec.label == ""
        # Caught mid-run by the kill: pending again, the attempt kept.
        assert (killed.state, killed.attempts, store.interrupted) == ("pending", 1, 1)
        # And the change appends to it and compacts it like its own.
        store.submit(specs(1))
        store.compact()
        assert JobStore(str(root), version="v1").counts() == store.counts()
        assert all("manifest" not in record and "scenario" not in record.get("spec", {})
                   for record in records(root))

    def test_newer_schema_is_refused(self, tmp_path):
        header = {"kind": "jobstore", "schema": JOBS_SCHEMA_VERSION + 1}
        (tmp_path / JOBS_FILE).write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError, match="newer than supported"):
            JobStore(str(tmp_path), version="v1")


class TestTornBatch:
    """A SIGKILL inside one of the log's batched writes: the ``job``
    records ``submit`` writes together, or the ``done`` records of the
    points the cache served.  Whatever the cut loses, a resume rebuilds
    without computing anything again."""

    POINTS = 6

    def served_sweep(self, tmp_path):
        """One fully cached sweep through a fresh store: its cache, its
        specs, the log it wrote and where each line of it starts."""
        sweep = specs(self.POINTS)
        cache = ResultCache(str(tmp_path / "cache"), version="v1")
        for spec in sweep:
            cache.put(spec, spec.kwargs["x"] ** 2, 0.25)
        store = JobStore(str(tmp_path / "jobs"), version="v1")
        ParallelRunner(jobs=1, cache=cache, store=store).run(sweep)
        data = (tmp_path / "jobs" / JOBS_FILE).read_bytes()
        lines = data.splitlines(keepends=True)
        # The open header; the code header and the six jobs, written
        # by submit at once; the six served points' done records, too.
        assert [json.loads(line)["kind"] for line in lines] == (
            ["jobstore"] * 2 + ["job"] * 6 + ["state"] * 6)
        starts = [sum(map(len, lines[:index])) for index in range(len(lines) + 1)]
        return cache, sweep, data, starts

    @pytest.mark.parametrize("batch", ["submit", "served"])
    def test_a_resume_after_a_cut_batch_computes_nothing(self, tmp_path, batch):
        cache, sweep, data, starts = self.served_sweep(tmp_path)
        first, last = (1, 8) if batch == "submit" else (8, 14)
        lo, hi = starts[first], starts[last]
        cuts = [lo + 1, (starts[first + 2] + starts[first + 3]) // 2,
                starts[first + 3], hi - 2]
        for cut in cuts:
            root = tmp_path / f"{batch}-{cut}"
            root.mkdir()
            (root / JOBS_FILE).write_bytes(data[:cut])
            store = JobStore(str(root), version="v1")
            # Every record before the cut is intact; the torn one is gone.
            whole = [json.loads(line) for line in data[:cut].splitlines(keepends=True)
                     if line.endswith(b"\n")]
            assert [job.job_id for job in store] == [
                record["id"] for record in whole if record["kind"] == "job"]
            done = [record["id"] for record in whole if record.get("state") == "done"]
            assert [job.job_id for job in store.by_state("done")] == done
            assert store.counts()["pending"] == len(store) - len(done)

            served = []
            results = ParallelRunner(
                jobs=1, cache=cache, store=store,
                progress=lambda count, total, result: served.append(result.cached),
            ).run(sweep)
            assert [result.value for result in results] == [x * x for x in range(6)]
            assert served == [True] * self.POINTS
            # The log the resume appended to replays whole: every point
            # once, and done.
            reopened = JobStore(str(root), version="v1")
            assert [job.job_id for job in reopened] == [
                spec_key(spec, "v1") for spec in sweep]
            assert reopened.counts()["done"] == self.POINTS


class TestCompaction:
    def churn(self, store, jobs, rounds=10):
        for _ in range(rounds):
            for job in jobs:
                store.mark_running(job.job_id, pid=1)
                store.mark_failed(job.job_id, "flaky")

    def test_compact_snapshots_to_one_record_per_job(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        jobs = store.submit(specs(3))
        self.churn(store, jobs)
        store.mark_done(jobs[0].job_id, wall_time=1.0)
        before = len((tmp_path / JOBS_FILE).read_text().splitlines())
        store.compact()
        lines = (tmp_path / JOBS_FILE).read_text().splitlines()
        assert len(lines) == len(jobs) + 1  # header + one per job
        assert len(lines) < before
        reopened = JobStore(str(tmp_path), version="v1")
        assert reopened.counts() == store.counts()
        assert [j.job_id for j in reopened] == [j.job_id for j in jobs]

    def test_maybe_compact_fires_on_churn(self, tmp_path):
        store = JobStore(str(tmp_path), version="v1")
        jobs = store.submit(specs(2))
        store.maybe_compact()  # fresh store: no reason to compact
        assert len((tmp_path / JOBS_FILE).read_text().splitlines()) >= 3
        self.churn(store, jobs, rounds=20)
        store.maybe_compact()
        lines = (tmp_path / JOBS_FILE).read_text().splitlines()
        assert len(lines) == len(jobs) + 1

    def test_provenance_survives_reopen_and_compaction(self, tmp_path):
        spec = PointSpec("tests.parallel.helpers:square", {"x": 7, "seed": 3},
                         label="seven")
        store = JobStore(str(tmp_path), version="v1")
        (job,) = store.submit([spec])
        for compact in (False, True):
            if compact:
                store.compact()
            reopened = JobStore(str(tmp_path), version="v1")
            assert reopened.get(job.job_id).spec == spec
            assert records(tmp_path)[0 if compact else 1]["code"] == "v1"
