"""The dumb HTTP store: S3-style GET/PUT-by-key over a dir cache.

A deliberately boring server — stdlib ``http.server`` threads, no
framework, no auth, no content negotiation — that lets a fleet of
workers on different machines share one set of cache entries.  It
fronts a :class:`repro.parallel.cache.ResultCache` directory, storing
exactly the bytes a local dir backend would (atomic tmp-file +
rename), so the store can be seeded by pointing it at an existing
cache directory and inspected with nothing but ``ls``.

Endpoints::

    GET  /cache/<key>   entry bytes, or 404
    PUT  /cache/<key>   store entry bytes (204)
    GET  /stats         {"kind": "http", "entries": N, "bytes": B, ...}
    GET  /metrics       cache gauges/counters in OpenMetrics text format
    POST /prune         {"older_than_s": S|null} -> {"removed": N}
    GET  /healthz       "ok"

Keys are validated against the 64-hex-digit :func:`spec_key` shape, so
the server never touches a path a client did not hash.  The richer
experiment service (submit/status/results/cancel) in
:mod:`repro.parallel.service` extends this handler.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.parallel.cache import CacheBackend, ResultCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.export import Family

__all__ = ["StoreHandler", "StoreServer"]

KEY_RE = re.compile(r"^[0-9a-f]{64}$")

#: Refuse request bodies beyond this size (a cache entry is a pickled
#: result table — megabytes at most, never gigabytes).
MAX_BODY_BYTES = 256 * 1024 * 1024


class StoreHandler(BaseHTTPRequestHandler):
    """Request handler for the by-key store; one instance per request."""

    protocol_version = "HTTP/1.1"
    server: "StoreServer"

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send(self, code: int, body: bytes = b"",
              content_type: str = "application/octet-stream") -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _send_json(self, payload: Dict[str, Any], code: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(code, body, content_type="application/json")

    def _error(self, code: int, message: str) -> None:
        self._send_json({"error": message}, code=code)

    def _cache_key(self) -> Optional[str]:
        """The validated key for a ``/cache/<key>`` path, else None."""
        prefix, _, key = self.path.rstrip("/").rpartition("/")
        if prefix != "/cache" or not KEY_RE.match(key):
            return None
        return key

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            return None
        if length < 0 or length > MAX_BODY_BYTES:
            return None
        return self.rfile.read(length)

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:
        if self.path.rstrip("/") == "/healthz":
            self._send(200, b"ok", content_type="text/plain")
            return
        if self.path.rstrip("/") == "/stats":
            self._send_json(self.server.store_stats())
            return
        if self.path.rstrip("/") == "/metrics":
            from repro.obs.export import OPENMETRICS_CONTENT_TYPE, render_openmetrics

            text = render_openmetrics(self.server.metrics_families())
            self._send(200, text.encode("utf-8"),
                       content_type=OPENMETRICS_CONTENT_TYPE)
            return
        key = self._cache_key()
        if key is None:
            self._error(404, f"no such resource: {self.path}")
            return
        data = self.server.cache.read_blob(key)
        if data is None:
            self._error(404, "no such entry")
            return
        self._send(200, data)

    def do_PUT(self) -> None:
        key = self._cache_key()
        if key is None:
            self._error(400, "PUT expects /cache/<64-hex-key>")
            return
        body = self._read_body()
        if body is None:
            self._error(400, "bad or oversized request body")
            return
        try:
            self.server.cache.write_blob(key, body)
        except OSError as exc:
            self._error(507, f"store write failed: {exc}")
            return
        self._send(204)

    def do_POST(self) -> None:
        if self.path.rstrip("/") != "/prune":
            self._error(404, f"no such resource: {self.path}")
            return
        body = self._read_body()
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except ValueError:
            self._error(400, "prune body must be JSON")
            return
        removed = self.server.cache.prune(payload.get("older_than_s"))
        self._send_json({"removed": removed})


class StoreServer(ThreadingHTTPServer):
    """Threaded HTTP server owning one entry store: a dir store under
    *root* unless *cache* hands it one (it uses the blob surface,
    ``stats`` and ``prune`` only)."""

    daemon_threads = True

    def __init__(
        self,
        root: Optional[str] = None,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        handler=StoreHandler,
        verbose: bool = False,
        cache: Optional[CacheBackend] = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache(root=root)
        self.verbose = verbose
        if not self.cache.enabled:
            raise OSError(f"cannot create store {self.cache.describe()!r}")
        super().__init__(address, handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def store_stats(self) -> Dict[str, Any]:
        stats = self.cache.stats()
        stats["url"] = self.url
        return stats

    def metrics_families(self) -> List["Family"]:
        """The ``/metrics`` payload: cache occupancy and traffic,
        labelled by backend kind so a dashboard scraping several stores
        (dir, http, sqlite) aggregates without name collisions."""
        from repro.obs.export import Family

        stats = self.cache.stats()
        kind = {"kind": str(stats.get("kind", "unknown"))}
        families = [
            Family("taq_cache_entries", "gauge",
                   help="Entries currently in the result cache"
                   ).add(stats.get("entries", 0), kind),
            Family("taq_cache_bytes", "gauge",
                   help="Bytes stored in the result cache"
                   ).add(stats.get("bytes", 0), kind),
            Family("taq_cache_hits", "counter",
                   help="Cache lookups answered from the store"
                   ).add(stats.get("hits", 0), kind),
            Family("taq_cache_misses", "counter",
                   help="Cache lookups that fell through to execution"
                   ).add(stats.get("misses", 0), kind),
        ]
        return families

    def serve_in_background(self) -> threading.Thread:
        """Start serving on a daemon thread; returns the thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread
