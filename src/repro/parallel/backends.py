"""Pluggable cache backends: the sqlite and HTTP stores.

Every backend stores exactly the bytes :func:`repro.parallel.cache.encode_entry`
produces under exactly the keys :func:`repro.parallel.cache.spec_key`
computes, so a sweep is bit-identical whichever store serves it and a
cache can be migrated between stores by copying entries.  Three
implementations:

- ``dir:PATH`` — :class:`repro.parallel.cache.ResultCache`, the
  original atomic-replace pickle-file store (one file per entry,
  two-level fan-out).  The default, and the format the other two
  interoperate with.  It lives in :mod:`repro.parallel.cache`, so a
  sweep over a dir store never imports this module.
- ``sqlite:PATH`` — :class:`SqliteCache`, one SQLite database in WAL
  mode.  Safe under concurrent worker processes: entry writes are
  single atomic ``INSERT OR REPLACE`` transactions, reads never see a
  torn payload, and lock contention is retried with backoff.  The
  natural choice for many sweeps sharing one machine.
- ``http://host:port`` — :class:`HttpCache`, a thin client for the
  dumb S3-style store server in :mod:`repro.parallel.httpstore`
  (GET/PUT-by-key).  The server fronts a ``ResultCache`` directory, so
  a fleet of workers on many machines shares one set of entries.

:func:`repro.parallel.cache.parse_backend` turns the
``--cache-backend`` CLI string into a backend and imports this module —
``sqlite3``, ``urllib.request`` and what they pull in — only when the
string names one of the two stores defined here (it stays importable
from here, where it was first defined).
"""

from __future__ import annotations

import json
import sqlite3
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, Optional

from repro.parallel.cache import CacheBackend, parse_backend

__all__ = ["HttpCache", "SqliteCache", "parse_backend"]


class SqliteCache(CacheBackend):
    """Cache entries in one SQLite database, safe for concurrent writers.

    The database runs in WAL mode (readers never block behind a
    writer, a crashed writer never corrupts committed entries) and
    every operation opens its own short-lived connection, so one
    ``SqliteCache`` object can be shared across threads and a fleet of
    processes can share the file.  Lock contention
    (``database is locked`` under simultaneous writers) is retried
    with backoff before the backend declares the put lost.

    Payloads are the same pickled ``(value, wall_time)`` bytes the dir
    backend writes, under the same keys.
    """

    kind = "sqlite"

    #: (attempts, base backoff seconds) for locked-database retries.
    RETRIES = 6
    RETRY_BACKOFF_S = 0.05

    def __init__(
        self,
        path: str,
        version: Optional[str] = None,
        timeout_s: float = 10.0,
    ) -> None:
        self.path = str(path)
        self.version = version
        self.timeout_s = timeout_s
        self.hits = 0
        self.misses = 0
        self.enabled = True
        try:
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
            with self._connect() as conn:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries ("
                    " key TEXT PRIMARY KEY,"
                    " payload BLOB NOT NULL,"
                    " created REAL NOT NULL)"
                )
        except (sqlite3.Error, OSError):
            self.enabled = False

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=self.timeout_s)
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _with_retry(self, operation):
        """Run *operation* (given a connection), retrying lock errors."""
        last: Optional[BaseException] = None
        for attempt in range(self.RETRIES):
            try:
                conn = self._connect()
                try:
                    with conn:
                        return operation(conn)
                finally:
                    conn.close()
            except sqlite3.OperationalError as exc:
                last = exc
                time.sleep(self.RETRY_BACKOFF_S * (attempt + 1))
        assert last is not None
        raise last

    def read_blob(self, key: str) -> Optional[bytes]:
        try:
            row = self._with_retry(
                lambda conn: conn.execute(
                    "SELECT payload FROM entries WHERE key = ?", (key,)
                ).fetchone()
            )
        except sqlite3.Error:
            return None
        return None if row is None else row[0]

    def write_blob(self, key: str, data: bytes) -> None:
        now = time.time()
        try:
            self._with_retry(
                lambda conn: conn.execute(
                    "INSERT OR REPLACE INTO entries (key, payload, created)"
                    " VALUES (?, ?, ?)",
                    (key, data, now),
                )
            )
        except sqlite3.Error as exc:
            raise OSError(f"sqlite store write failed: {exc}") from exc

    def delete_blob(self, key: str) -> None:
        try:
            self._with_retry(
                lambda conn: conn.execute(
                    "DELETE FROM entries WHERE key = ?", (key,)
                )
            )
        except sqlite3.Error:
            pass

    def stats(self) -> Dict[str, Any]:
        out = self._base_stats()
        entries, size = 0, 0
        if self.enabled:
            try:
                entries, size = self._with_retry(
                    lambda conn: conn.execute(
                        "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0)"
                        " FROM entries"
                    ).fetchone()
                )
            except sqlite3.Error:
                pass
        out.update(entries=int(entries), bytes=int(size))
        return out

    def prune(self, older_than_s: Optional[float] = None) -> int:
        if not self.enabled:
            return 0

        def _prune(conn: sqlite3.Connection) -> int:
            if older_than_s is None:
                cursor = conn.execute("DELETE FROM entries")
            else:
                cursor = conn.execute(
                    "DELETE FROM entries WHERE created < ?",
                    (time.time() - older_than_s,),
                )
            return cursor.rowcount

        try:
            return self._with_retry(_prune)
        except sqlite3.Error:
            return 0

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"SqliteCache({self.path!r}, {state}, hits={self.hits}, misses={self.misses})"


class HttpCache(CacheBackend):
    """Client for the dumb HTTP store (:mod:`repro.parallel.httpstore`).

    S3-style by-key transfer: ``GET /cache/<key>`` returns the entry
    bytes or 404, ``PUT /cache/<key>`` stores them.  Network and server
    errors degrade to misses and lost puts (a flaky store must never
    fail or disable a sweep) — they are tallied in :attr:`errors` and
    surfaced by ``stats()``.
    Atomicity is the server's: it writes tmp-file + rename into a dir
    store, so readers never see a torn entry.
    """

    kind = "http"

    def __init__(
        self,
        base_url: str,
        version: Optional[str] = None,
        timeout_s: float = 10.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.version = version
        self.timeout_s = timeout_s
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.enabled = True

    def _url(self, key: str) -> str:
        return f"{self.base_url}/cache/{key}"

    @staticmethod
    def _request(url: str, **kwargs: Any) -> urllib.request.Request:
        # Connection: close — one socket per transfer, closed with the
        # response, so no keep-alive socket lingers until GC.
        headers = dict(kwargs.pop("headers", {}))
        headers["Connection"] = "close"
        return urllib.request.Request(url, headers=headers, **kwargs)

    def read_blob(self, key: str) -> Optional[bytes]:
        try:
            with urllib.request.urlopen(
                self._request(self._url(key)), timeout=self.timeout_s
            ) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            if exc.code != 404:
                self.errors += 1
            exc.close()
        except (urllib.error.URLError, OSError):
            self.errors += 1
        return None

    def write_blob(self, key: str, data: bytes) -> None:
        """PUT the entry; a failure is counted, never raised, so ``put``
        does not disable the store."""
        request = self._request(self._url(key), data=data, method="PUT")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s):
                pass
        except (urllib.error.URLError, OSError):
            self.errors += 1

    def delete_blob(self, key: str) -> None:
        """The server has no DELETE: a corrupt entry is counted as an
        error and stays until the next ``put`` replaces it."""
        self.errors += 1

    def stats(self) -> Dict[str, Any]:
        out = self._base_stats()
        out.update(entries=0, bytes=0, errors=self.errors)
        try:
            with urllib.request.urlopen(
                self._request(f"{self.base_url}/stats"),
                timeout=self.timeout_s,
            ) as response:
                remote = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError):
            out["reachable"] = False
            return out
        out["reachable"] = True
        out["entries"] = remote.get("entries", 0)
        out["bytes"] = remote.get("bytes", 0)
        return out

    def prune(self, older_than_s: Optional[float] = None) -> int:
        body = json.dumps({"older_than_s": older_than_s}).encode("utf-8")
        request = self._request(
            f"{self.base_url}/prune",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError):
            self.errors += 1
            return 0
        return int(payload.get("removed", 0))

    def describe(self) -> str:
        return self.base_url

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HttpCache({self.base_url!r}, hits={self.hits}, "
            f"misses={self.misses}, errors={self.errors})"
        )
