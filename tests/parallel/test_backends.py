"""The pluggable cache backends: matrix conformance, factory, interop.

Every backend must behave identically through the CacheBackend
surface (miss -> put -> hit, stats, prune) over the same keys and the
same encoded entry bytes — that equivalence is what lets a sweep swap
``--cache-backend`` without changing results.  On top of the matrix:
the ``parse_backend`` factory grammar, dir<->http interop over one
root, and the concurrent-writer torture test (two processes hammering
one key must never expose a torn entry to a reader).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import sqlite3
import time

import pytest

from repro.parallel import (
    HttpCache,
    PointSpec,
    ResultCache,
    SqliteCache,
    parse_backend,
)
from repro.parallel.cache import decode_entry, encode_entry
from repro.parallel.httpstore import StoreServer
from tests.parallel.helpers import hammer_backend

SPEC = PointSpec("tests.parallel.helpers:square", {"x": 3})
OTHER = PointSpec("tests.parallel.helpers:square", {"x": 4})

BACKENDS = ("dir", "sqlite", "http")

#: Stores written by the parent commit; see the README next to them.
PARENT = os.path.join(os.path.dirname(__file__), "fixtures", "parent")


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One (backend, spec_text) per backend kind, torn down cleanly."""
    kind = request.param
    if kind == "dir":
        spec_text = f"dir:{tmp_path / 'cache'}"
        yield parse_backend(spec_text, version="v1"), spec_text
        return
    if kind == "sqlite":
        spec_text = f"sqlite:{tmp_path / 'cache.sqlite'}"
        yield parse_backend(spec_text, version="v1"), spec_text
        return
    server = StoreServer(root=str(tmp_path / "store"))
    server.serve_in_background()
    try:
        yield HttpCache(server.url, version="v1"), server.url
    finally:
        server.shutdown()
        server.server_close()


class TestBackendMatrix:
    def test_miss_put_hit_roundtrip(self, backend):
        cache, _ = backend
        assert cache.get(SPEC) is None
        cache.put(SPEC, {"rows": [1, 2, 3]}, wall_time=0.5)
        assert cache.get(SPEC) == ({"rows": [1, 2, 3]}, 0.5)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_distinct_specs_do_not_collide(self, backend):
        cache, _ = backend
        cache.put(SPEC, 9, 0.1)
        cache.put(OTHER, 16, 0.2)
        assert cache.get(SPEC) == (9, 0.1)
        assert cache.get(OTHER) == (16, 0.2)

    def test_persists_across_instances(self, backend):
        cache, spec_text = backend
        cache.put(SPEC, 9, 0.1)
        again = parse_backend(spec_text, version="v1")
        assert again.get(SPEC) == (9, 0.1)

    def test_stats_counts_entries_and_bytes(self, backend):
        cache, _ = backend
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["kind"] == cache.kind
        cache.put(SPEC, 9, 0.1)
        cache.put(OTHER, 16, 0.1)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] >= 2 * len(encode_entry(9, 0.1)) - 8
        assert stats["enabled"] is True

    def test_prune_all(self, backend):
        cache, _ = backend
        cache.put(SPEC, 9, 0.1)
        cache.put(OTHER, 16, 0.1)
        assert cache.prune() == 2
        assert cache.stats()["entries"] == 0
        assert cache.get(SPEC) is None

    def test_prune_keeps_recent_entries(self, backend):
        cache, _ = backend
        cache.put(SPEC, 9, 0.1)
        assert cache.prune(older_than_s=3600.0) == 0
        assert cache.get(SPEC) == (9, 0.1)

    def test_version_change_invalidates(self, backend):
        cache, spec_text = backend
        cache.put(SPEC, 9, 0.1)
        other_version = parse_backend(spec_text, version="v2")
        assert other_version.get(SPEC) is None

    def test_describe_names_the_backend(self, backend):
        cache, _ = backend
        text = cache.describe()
        # The described string must round-trip through the factory.
        assert parse_backend(text, version="v1").kind == cache.kind


class TestGetPutOnce:
    """What ``CacheBackend.get`` / ``put`` state once, over every blob
    store: a corrupt entry is a miss, an unpicklable value or a store
    that cannot take a write ends the caching and never the sweep."""

    def test_corrupt_entry_is_a_miss(self, backend):
        cache, _ = backend
        key = cache.key(SPEC)
        cache.put(SPEC, 9, 0.1)
        cache.write_blob(key, b"this is not a pickle")
        assert cache.get(SPEC) is None
        assert (cache.hits, cache.misses) == (0, 1)
        if cache.kind == "http":
            # The server has no DELETE: counted, and left for the next put.
            assert cache.errors == 1
        else:
            assert cache.read_blob(key) is None
            assert cache.stats()["entries"] == 0
        cache.put(SPEC, 9, 0.2)
        assert cache.get(SPEC) == (9, 0.2)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_truncated_entry_is_a_miss(self, backend):
        cache, _ = backend
        cache.put(SPEC, {"big": list(range(100))}, 0.1)
        key = cache.key(SPEC)
        cache.write_blob(key, cache.read_blob(key)[:10])
        assert cache.get(SPEC) is None

    def test_unpicklable_value_disables_not_raises(self, backend):
        cache, _ = backend
        cache.put(SPEC, lambda: None, 0.1)
        assert not cache.enabled
        cache.put(SPEC, 9, 0.1)  # a silent no-op from here on
        assert cache.get(SPEC) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_failed_write_disables_or_counts(self, backend):
        cache, _ = backend
        if cache.kind == "dir":
            (cache.root / cache.key(SPEC)[:2]).write_text("file in the way")
        elif cache.kind == "sqlite":
            cache.RETRY_BACKOFF_S = 0.0
            with sqlite3.connect(cache.path) as conn:
                conn.execute("DROP TABLE entries")
        else:
            cache.base_url = "http://127.0.0.1:1"
        cache.put(SPEC, 9, 0.1)
        if cache.kind == "http":
            # A flaky store never disables a sweep: the failure is counted.
            assert cache.enabled and cache.errors == 1
        else:
            assert not cache.enabled
        assert cache.get(SPEC) is None

    @pytest.mark.parametrize("kind", ["dir", "sqlite"])
    def test_unusable_location_disables_not_raises(self, tmp_path, kind):
        blocker = tmp_path / "file-in-the-way"
        blocker.write_text("x")
        cache = parse_backend(f"{kind}:{blocker / 'store'}", version="v1")
        assert not cache.enabled
        cache.put(SPEC, 9, 0.1)
        assert cache.get(SPEC) is None
        assert (cache.hits, cache.misses) == (0, 1)

    @pytest.mark.parametrize("kind, name", [("dir", "cache"),
                                            ("sqlite", "cache.sqlite")])
    def test_a_store_written_by_the_parent_reads_back(self, tmp_path, kind, name):
        source = os.path.join(PARENT, name)
        copy = shutil.copytree if kind == "dir" else shutil.copy
        cache = parse_backend(f"{kind}:{copy(source, tmp_path / name)}",
                              version="v1")
        first = PointSpec("tests.parallel.helpers:square", {"x": 0}, label="x=0")
        assert cache.get(first) == ({"rows": [0, 1.5, "two"]}, 2.5)
        assert cache.stats()["entries"] == 1
        if kind == "dir":  # the layout: two-level fan-out, <key>.pkl
            key = cache.key(first)
            assert (tmp_path / name / key[:2] / f"{key}.pkl").is_file()


class TestSqliteDetails:
    def test_wal_mode_is_on(self, tmp_path):
        cache = SqliteCache(str(tmp_path / "c.sqlite"), version="v1")
        cache.put(SPEC, 9, 0.1)
        with sqlite3.connect(cache.path) as conn:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"


class TestHttpDetails:
    def test_unreachable_server_degrades_to_misses(self):
        cache = HttpCache("http://127.0.0.1:1", version="v1", timeout_s=0.5)
        assert cache.get(SPEC) is None
        cache.put(SPEC, 9, 0.1)
        assert cache.errors >= 2
        stats = cache.stats()
        assert stats["reachable"] is False

    def test_stats_reports_server_side_counts(self, tmp_path):
        server = StoreServer(root=str(tmp_path))
        server.serve_in_background()
        try:
            cache = HttpCache(server.url, version="v1")
            cache.put(SPEC, 9, 0.1)
            stats = cache.stats()
            assert stats["reachable"] is True
            assert stats["entries"] == 1
            assert stats["bytes"] > 0
        finally:
            server.shutdown()
            server.server_close()

    def test_server_rejects_non_key_paths(self, tmp_path):
        import urllib.error
        import urllib.request

        server = StoreServer(root=str(tmp_path))
        server.serve_in_background()
        try:
            request = urllib.request.Request(
                f"{server.url}/cache/../escape",
                headers={"Connection": "close"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 404
            err.value.close()
            request = urllib.request.Request(
                f"{server.url}/cache/nothex", data=b"x", method="PUT",
                headers={"Connection": "close"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 400
            err.value.close()
        finally:
            server.shutdown()
            server.server_close()


class TestDirHttpInterop:
    """A dir cache and an HTTP store over one root are the same cache."""

    def test_http_writes_are_dir_readable(self, tmp_path):
        server = StoreServer(root=str(tmp_path))
        server.serve_in_background()
        try:
            HttpCache(server.url, version="v1").put(SPEC, 9, 0.25)
        finally:
            server.shutdown()
            server.server_close()
        local = ResultCache(root=str(tmp_path), version="v1")
        assert local.get(SPEC) == (9, 0.25)

    def test_dir_writes_are_http_readable(self, tmp_path):
        local = ResultCache(root=str(tmp_path), version="v1")
        local.put(SPEC, {"table": [1.5, 2.5]}, 0.75)
        server = StoreServer(root=str(tmp_path))
        server.serve_in_background()
        try:
            remote = HttpCache(server.url, version="v1")
            assert remote.get(SPEC) == ({"table": [1.5, 2.5]}, 0.75)
        finally:
            server.shutdown()
            server.server_close()

    def test_served_bytes_are_the_stored_bytes(self, tmp_path):
        local = ResultCache(root=str(tmp_path), version="v1")
        local.put(SPEC, 9, 0.25)
        server = StoreServer(root=str(tmp_path))
        server.serve_in_background()
        try:
            import urllib.request

            key = local.key(SPEC)
            request = urllib.request.Request(
                f"{server.url}/cache/{key}",
                headers={"Connection": "close"},
            )
            with urllib.request.urlopen(request) as resp:
                data = resp.read()
        finally:
            server.shutdown()
            server.server_close()
        assert data == local.read_blob(key)
        assert decode_entry(data) == (9, 0.25)


class TestParseBackend:
    def test_none_and_empty_give_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dc"))
        for text in (None, ""):
            cache = parse_backend(text, version="v1")
            assert isinstance(cache, ResultCache)
            assert str(cache.root) == str(tmp_path / "dc")

    def test_explicit_schemes(self, tmp_path):
        assert isinstance(parse_backend(f"dir:{tmp_path}", version="v1"),
                          ResultCache)
        assert isinstance(parse_backend(f"sqlite:{tmp_path}/c.db",
                                        version="v1"), SqliteCache)
        assert isinstance(parse_backend("http://h:1", version="v1"),
                          HttpCache)
        assert isinstance(parse_backend("https://h:1", version="v1"),
                          HttpCache)

    def test_bare_path_means_dir(self, tmp_path):
        cache = parse_backend(str(tmp_path / "bare"), version="v1")
        assert isinstance(cache, ResultCache)
        assert str(cache.root) == str(tmp_path / "bare")

    def test_sqlite_without_path_is_an_error(self):
        with pytest.raises(ValueError):
            parse_backend("sqlite:")

    def test_unknown_scheme_is_an_error(self):
        with pytest.raises(ValueError):
            parse_backend("redis:localhost")

    def test_version_is_threaded_through(self, tmp_path):
        cache = parse_backend(f"dir:{tmp_path}", version="vX")
        assert cache.version == "vX"


class TestConcurrentWriters:
    """Two processes, one key, no torn reads — on every backend."""

    ROUNDS = 40
    VALUE_A = {"writer": "a", "data": list(range(300))}
    VALUE_B = {"writer": "b", "data": list(range(300, 600))}

    def _hammer(self, spec_text):
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=hammer_backend,
                        args=(spec_text, value, self.ROUNDS))
            for value in (self.VALUE_A, self.VALUE_B)
        ]
        for proc in writers:
            proc.start()
        reader = parse_backend(spec_text, version="v1")
        observed = 0
        reads = 0
        deadline = time.time() + 60.0
        try:
            # At least 50 reads, and keep reading while writers live.
            while reads < 50 or any(proc.is_alive() for proc in writers):
                entry = reader.get(SPEC)
                reads += 1
                if entry is not None:
                    value, wall = entry
                    # A torn read would decode to garbage or an
                    # interleaving of the two payloads; every observed
                    # entry must be exactly one writer's.
                    assert value in (self.VALUE_A, self.VALUE_B)
                    assert 0.0 <= wall < 0.001 * self.ROUNDS
                    observed += 1
                assert time.time() < deadline, "writers hung"
        finally:
            for proc in writers:
                proc.join(timeout=30.0)
        assert all(proc.exitcode == 0 for proc in writers)
        final = parse_backend(spec_text, version="v1").get(SPEC)
        assert final is not None
        assert final[0] in (self.VALUE_A, self.VALUE_B)
        assert observed > 0

    def test_dir_backend(self, tmp_path):
        self._hammer(f"dir:{tmp_path / 'cache'}")

    def test_sqlite_backend(self, tmp_path):
        self._hammer(f"sqlite:{tmp_path / 'cache.sqlite'}")

    def test_http_backend(self, tmp_path):
        server = StoreServer(root=str(tmp_path / "store"))
        server.serve_in_background()
        try:
            self._hammer(server.url)
        finally:
            server.shutdown()
            server.server_close()


class TestEntryCodec:
    def test_roundtrip(self):
        data = encode_entry({"x": [1, 2]}, 0.5)
        assert decode_entry(data) == ({"x": [1, 2]}, 0.5)

    def test_bytes_are_a_plain_pickle(self):
        # The on-disk format is exactly the historical one: a pickled
        # (value, wall_time) tuple — old caches stay readable.
        assert pickle.loads(encode_entry(9, 0.1)) == (9, 0.1)
