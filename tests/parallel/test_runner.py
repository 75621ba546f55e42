"""Runner semantics: ordering, both execution paths, cache and progress."""

import io

import pytest

from repro.parallel import JobStore, ParallelRunner, PointSpec, ResultCache
from repro.parallel.runner import ProgressPrinter

SQUARE = "tests.parallel.helpers:square"


def square_specs(values):
    return [PointSpec(SQUARE, {"x": x}) for x in values]


class TestResolve:
    def test_resolves_dotted_path(self):
        assert PointSpec(SQUARE, {"x": 4}).resolve()(x=4) == 16

    def test_missing_colon_rejected(self):
        with pytest.raises(ValueError):
            PointSpec("tests.parallel.helpers", {}).resolve()

    def test_unknown_module(self):
        with pytest.raises(ImportError):
            PointSpec("tests.parallel.no_such_module:f", {}).resolve()

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            PointSpec("tests.parallel.helpers:no_such_fn", {}).resolve()

    @pytest.mark.parametrize("fn", ["tests.parallel.helpers:hammer_backend",
                                    "os:getcwd", "os:system"])
    def test_unmarked_function_is_refused(self, fn):
        with pytest.raises(ValueError, match="not a @point function"):
            PointSpec(fn, {}).resolve()

    def test_describe_prefers_label(self):
        assert PointSpec(SQUARE, {"x": 1}, label="point A").describe() == "point A"
        assert "square" in PointSpec(SQUARE, {"x": 1}).describe()


@pytest.mark.parametrize("jobs", [1, 2])
class TestExecution:
    def test_values_in_spec_order(self, jobs):
        results = ParallelRunner(jobs=jobs).run(square_specs([5, 3, 9, 1]))
        assert [r.value for r in results] == [25, 9, 81, 1]

    def test_wall_time_recorded_and_not_cached(self, jobs):
        results = ParallelRunner(jobs=jobs).run(square_specs([2, 4]))
        assert all(r.wall_time >= 0.0 for r in results)
        assert all(not r.cached for r in results)

    def test_point_error_propagates(self, jobs):
        specs = square_specs([1]) + [
            PointSpec("tests.parallel.helpers:boom", {"message": "expected"})
        ]
        with pytest.raises(RuntimeError, match="expected"):
            ParallelRunner(jobs=jobs).run(specs)

    def test_empty_spec_list(self, jobs):
        assert ParallelRunner(jobs=jobs).run([]) == []


class TestJobsDefaulting:
    def test_none_means_cpu_count(self):
        import os

        assert ParallelRunner(jobs=None).jobs == max(1, os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert ParallelRunner(jobs=0).jobs == 1
        assert ParallelRunner(jobs=-3).jobs == 1


@pytest.mark.parametrize("jobs", [1, 2])
class TestCacheIntegration:
    def test_second_run_is_all_hits(self, tmp_path, jobs):
        cache = ResultCache(root=str(tmp_path), version="v1")
        runner = ParallelRunner(jobs=jobs, cache=cache)
        first = runner.run(square_specs([3, 6]))
        assert [r.cached for r in first] == [False, False]
        second = runner.run(square_specs([3, 6]))
        assert [r.cached for r in second] == [True, True]
        assert [r.value for r in second] == [r.value for r in first]
        # Cached results keep the wall time of the original computation.
        assert [r.wall_time for r in second] == [r.wall_time for r in first]
        assert cache.hits == 2

    def test_partial_hits_recompute_only_misses(self, tmp_path, jobs):
        cache = ResultCache(root=str(tmp_path), version="v1")
        ParallelRunner(jobs=1, cache=cache).run(square_specs([3]))
        results = ParallelRunner(jobs=jobs, cache=cache).run(square_specs([3, 7]))
        assert [(r.value, r.cached) for r in results] == [(9, True), (49, False)]

    def test_disabled_cache_still_runs(self, tmp_path, jobs):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cache = ResultCache(root=str(blocker / "nope"), version="v1")
        assert not cache.enabled
        results = ParallelRunner(jobs=jobs, cache=cache).run(square_specs([4]))
        assert results[0].value == 16


class KeyCountingCache(ResultCache):
    """A dir cache that counts the specs it hashes for itself."""

    def __init__(self, root, version):
        super().__init__(root=root, version=version)
        self.hashed = 0

    def key(self, spec):
        self.hashed += 1
        return super().key(spec)


@pytest.mark.parametrize("jobs", [1, 2])
class TestKeyReuse:
    """Job ids are cache keys only when store and cache share a version."""

    def run_prepared(self, tmp_path, jobs, store_version, cache_version):
        specs = square_specs([2, 3, 5])
        cache = KeyCountingCache(str(tmp_path / "cache"), cache_version)
        for spec in specs[:2]:
            cache.put(spec, spec.kwargs["x"] ** 2, 0.5)
        cache.hashed = 0
        store = JobStore(str(tmp_path / "jobs"), version=store_version)
        results = ParallelRunner(jobs=jobs, cache=cache, store=store).run(specs)
        assert [(r.value, r.cached) for r in results] == [
            (4, True), (9, True), (25, False)]
        assert store.counts()["done"] == 3
        return cache

    def test_a_store_of_another_version_looks_up_under_the_cache_key(
            self, tmp_path, jobs):
        cache = self.run_prepared(tmp_path, jobs, "a", "b")
        # Three lookups and one put, each hashed under the cache's "b".
        assert cache.hashed == 4
        assert cache.get(square_specs([5])[0])[0] == 25

    def test_a_same_version_run_looks_up_under_the_job_id(self, tmp_path, jobs):
        cache = self.run_prepared(tmp_path, jobs, "v1", "v1")
        assert cache.hashed == 0


@pytest.mark.parametrize("jobs", [1, 2])
class TestLookupTime:
    def test_hits_record_lookup_time_computed_points_do_not(self, tmp_path, jobs):
        cache = ResultCache(root=str(tmp_path), version="v1")
        runner = ParallelRunner(jobs=jobs, cache=cache)
        cold = runner.run(square_specs([3, 6]))
        assert [r.lookup_time for r in cold] == [0.0, 0.0]
        warm = runner.run(square_specs([3, 6]))
        assert all(r.cached for r in warm)
        assert all(r.lookup_time > 0.0 for r in warm)
        # Lookup cost is the hit's own, never the historical compute time.
        assert all(r.lookup_time != r.wall_time for r in warm)


class TestPerfProbe:
    def test_counts_hits_and_misses_and_spans_points(self, tmp_path):
        from repro.perf import PerfProbe

        cache = ResultCache(root=str(tmp_path), version="v1")
        probe = PerfProbe()
        runner = ParallelRunner(jobs=1, cache=cache, perf=probe)
        runner.run(square_specs([2, 5]))
        assert (probe.cache_hits, probe.cache_misses) == (0, 2)
        assert probe.spans["parallel.point"].calls == 2
        runner.run(square_specs([2, 5]))
        assert (probe.cache_hits, probe.cache_misses) == (2, 2)
        assert probe.spans["parallel.point"].calls == 2  # hits skip execution

    def test_no_cache_means_no_miss_counting(self):
        from repro.perf import PerfProbe

        probe = PerfProbe()
        ParallelRunner(jobs=1, perf=probe).run(square_specs([2]))
        assert (probe.cache_hits, probe.cache_misses) == (0, 0)
        assert probe.spans["parallel.point"].calls == 1


class TestProgressPrinterSummary:
    """The end-of-batch roll-up must keep cold-run compute time and
    cache-hit lookup time in separate columns (a mostly-cached sweep
    must never read as if computation got faster)."""

    def _printer(self):
        return ProgressPrinter(label="sweep", stream=io.StringIO())

    def _result(self, cached, wall_time, lookup_time=0.0):
        return type(
            "R",
            (),
            {
                "spec": PointSpec(SQUARE, {"x": 1}, label="p"),
                "cached": cached,
                "wall_time": wall_time,
                "lookup_time": lookup_time,
            },
        )()

    def test_summary_separates_compute_and_lookup(self):
        printer = self._printer()
        printer(1, 3, self._result(cached=False, wall_time=4.0))
        printer(2, 3, self._result(cached=True, wall_time=6.0, lookup_time=0.25))
        printer(3, 3, self._result(cached=True, wall_time=2.0, lookup_time=0.15))
        line = printer.summary_line(3)
        assert "1 computed (compute 4.0s)" in line
        assert "2 cache hit(s) (lookup 0.40s, saved 8.0s)" in line
        # Saved historical time never leaks into the compute column.
        assert printer.compute_time == 4.0
        assert printer.lookup_time == pytest.approx(0.40)
        assert printer.saved_time == 8.0

    def test_all_cold_batch(self):
        printer = self._printer()
        printer(1, 1, self._result(cached=False, wall_time=1.5))
        line = printer.summary_line(1)
        assert "1 computed (compute 1.5s)" in line
        assert "0 cache hit(s) (lookup 0.00s, saved 0.0s)" in line

    def test_stream_gets_summary_on_last_point(self):
        stream = io.StringIO()
        printer = ProgressPrinter(label="sweep", stream=stream)
        printer(1, 2, self._result(cached=False, wall_time=1.0))
        assert "[sweep]" not in stream.getvalue()
        printer(2, 2, self._result(cached=True, wall_time=3.0, lookup_time=0.1))
        assert "[sweep] 2 point(s):" in stream.getvalue()


class TestProgress:
    def test_callback_sees_every_point_in_order(self):
        calls = []
        runner = ParallelRunner(
            jobs=1, progress=lambda done, total, result: calls.append((done, total))
        )
        runner.run(square_specs([1, 2, 3]))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_callback_counts_cache_hits(self, tmp_path):
        cache = ResultCache(root=str(tmp_path), version="v1")
        ParallelRunner(jobs=1, cache=cache).run(square_specs([1, 2]))
        calls = []
        runner = ParallelRunner(
            jobs=1,
            cache=cache,
            progress=lambda done, total, result: calls.append(result.cached),
        )
        runner.run(square_specs([1, 2]))
        assert calls == [True, True]
