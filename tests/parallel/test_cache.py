"""Cache layer: keying, hit/miss, invalidation, graceful degradation."""

import multiprocessing
import os
import pickle
import stat
import threading
from pathlib import Path

import pytest

from repro.parallel import (
    PointSpec,
    ResultCache,
    code_version,
    default_cache_dir,
    spec_key,
)
from repro.parallel.cache import encode_entry
from tests.parallel.helpers import hammer_backend

SPEC = PointSpec("tests.parallel.helpers:square", {"x": 3})


def make_cache(tmp_path, version="v1"):
    return ResultCache(root=str(tmp_path / "cache"), version=version)


class TestSpecKey:
    def test_stable_across_calls(self):
        assert spec_key(SPEC, "v1") == spec_key(SPEC, "v1")

    def test_kwargs_order_irrelevant(self):
        a = PointSpec("m:f", {"x": 1, "y": 2})
        b = PointSpec("m:f", {"y": 2, "x": 1})
        assert spec_key(a, "v1") == spec_key(b, "v1")

    def test_label_excluded(self):
        a = PointSpec("m:f", {"x": 1}, label="one")
        b = PointSpec("m:f", {"x": 1}, label="other")
        assert spec_key(a, "v1") == spec_key(b, "v1")

    def test_kwargs_change_key(self):
        assert spec_key(PointSpec("m:f", {"x": 1}), "v1") != spec_key(
            PointSpec("m:f", {"x": 2}), "v1"
        )

    def test_fn_changes_key(self):
        assert spec_key(PointSpec("m:f", {"x": 1}), "v1") != spec_key(
            PointSpec("m:g", {"x": 1}), "v1"
        )

    def test_code_version_changes_key(self):
        assert spec_key(SPEC, "v1") != spec_key(SPEC, "v2")

    def test_default_version_is_source_hash(self):
        version = code_version()
        assert len(version) == 64
        assert spec_key(SPEC) == spec_key(SPEC, version)


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.get(SPEC) is None
        cache.put(SPEC, 9, wall_time=0.25)
        assert cache.get(SPEC) == (9, 0.25)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_distinct_specs_do_not_collide(self, tmp_path):
        cache = make_cache(tmp_path)
        other = PointSpec("tests.parallel.helpers:square", {"x": 4})
        cache.put(SPEC, 9, 0.1)
        cache.put(other, 16, 0.1)
        assert cache.get(SPEC) == (9, 0.1)
        assert cache.get(other) == (16, 0.1)

    def test_spec_change_invalidates(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(SPEC, 9, 0.1)
        changed = PointSpec(SPEC.fn, {"x": 3, "seed": 7})
        assert cache.get(changed) is None

    def test_code_version_change_invalidates(self, tmp_path):
        make_cache(tmp_path, version="v1").put(SPEC, 9, 0.1)
        assert make_cache(tmp_path, version="v2").get(SPEC) is None
        # The old version still sees its entry.
        assert make_cache(tmp_path, version="v1").get(SPEC) == (9, 0.1)

    def test_persists_across_instances(self, tmp_path):
        make_cache(tmp_path).put(SPEC, 9, 0.1)
        assert make_cache(tmp_path).get(SPEC) == (9, 0.1)


class TestDegradation:
    def test_unwritable_root_disables(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        cache = ResultCache(root=str(blocker / "cache"), version="v1")
        assert not cache.enabled
        # Everything stays a silent no-op miss.
        cache.put(SPEC, 9, 0.1)
        assert cache.get(SPEC) is None
        assert cache.hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(SPEC, 9, 0.1)
        path = Path(cache._path(cache.key(SPEC)))
        path.write_bytes(b"this is not a pickle")
        assert cache.get(SPEC) is None
        # The corrupt entry is cleaned up so the next put can land.
        assert not path.exists()
        cache.put(SPEC, 9, 0.2)
        assert cache.get(SPEC) == (9, 0.2)

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.put(SPEC, {"big": list(range(100))}, 0.1)
        path = Path(cache._path(cache.key(SPEC)))
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(SPEC) is None

    def test_unpicklable_value_disables_not_raises(self, tmp_path):
        cache = make_cache(tmp_path)
        with pytest.raises(Exception):
            pickle.dumps(lambda: None)
        cache.put(SPEC, lambda: None, 0.1)
        assert not cache.enabled


class TestConcurrentWriteBlob:
    """Every writer of one key gets a temp file of its own: threads of
    one process (``StoreServer`` serves one cache from many), then
    processes."""

    THREADS = 8
    ROUNDS = 25

    def _assert_one_private_entry(self, cache, values):
        entry = cache.get(SPEC)
        assert entry is not None and entry[0] in values
        assert list(cache.root.rglob("*.tmp")) == []
        path = cache._path(cache.key(SPEC))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600

    def test_threads_then_processes_leave_one_private_entry(self, tmp_path):
        cache = make_cache(tmp_path)
        key = cache.key(SPEC)
        start = threading.Barrier(self.THREADS)
        errors = []

        def writer(n):
            start.wait()
            try:
                for round_index in range(self.ROUNDS):
                    cache.write_blob(key, encode_entry(n, 0.001 * round_index))
            except Exception as exc:  # surfaced below, not lost in a thread
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []
        self._assert_one_private_entry(cache, range(self.THREADS))

        ctx = multiprocessing.get_context("fork")
        writers = [ctx.Process(target=hammer_backend,
                               args=(f"dir:{cache.root}", value, self.ROUNDS))
                   for value in ("a", "b")]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=30.0)
        assert [proc.exitcode for proc in writers] == [0, 0]
        self._assert_one_private_entry(make_cache(tmp_path), ("a", "b"))


class TestDefaultCacheDir:
    """XDG base-directory compliance of the default cache location."""

    def test_repro_cache_dir_always_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/custom/cache")
        monkeypatch.setenv("XDG_CACHE_HOME", "/xdg/cache")
        assert default_cache_dir() == "/custom/cache"

    def test_xdg_cache_home_is_honoured(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/xdg/cache")
        assert default_cache_dir() == os.path.join("/xdg/cache", "repro")

    def test_relative_xdg_cache_home_is_ignored(self, monkeypatch):
        # The XDG spec: relative base-directory paths are invalid and
        # must be ignored, falling through to the default.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        expected = os.path.join(os.path.expanduser("~"), ".cache", "repro")
        assert default_cache_dir() == expected

    def test_fallback_is_dot_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        expected = os.path.join(os.path.expanduser("~"), ".cache", "repro")
        assert default_cache_dir() == expected

    def test_default_result_cache_lands_there(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "via-env"))
        cache = ResultCache(version="v1")
        assert str(cache.root) == str(tmp_path / "via-env")
