"""``taq-serve`` — the experiment service: submit sweeps over HTTP.

One process owns the three service-plane layers for a fleet of
clients: the durable :class:`~repro.parallel.jobs.JobStore` (layer 1),
a shared dir-backed entry store served S3-style (layer 2 — the same
``/cache/<key>`` endpoints as :mod:`repro.parallel.httpstore`, so any
``HttpCache`` client shares hits with the service's own executor), and
an executor thread driving :class:`~repro.parallel.runner.ParallelRunner`
over the queue (layer 3).  Per-point telemetry streams through the
progress bus under ``ROOT/bus`` — ``taq-obs tail ROOT/bus`` renders a
remote sweep live.

On top of the store endpoints::

    POST /submit   {"points": [{"fn", "kwargs"?, "label"?}, ...]}
                   -> {"submitted": N, "known": M, "ids": [...]}
                   400 unless every fn names a @point function
    GET  /status   job-store summary + per-job states
    GET  /results  done jobs only: id, label, wall, cached
                   (fetch a value via GET /cache/<id>)
    POST /cancel   pending jobs -> failed("cancelled"); running points finish
    GET  /healthz  {"status", "jobs": {pending,running,...}, "executor":
                   {"alive", "executing"}} — ?plain=1 keeps the old "ok"
    GET  /metrics  the run-health plane in OpenMetrics text: job-store
                   depth by state, executor liveness, cache traffic per
                   backend kind, progress-bus heartbeat ages

Layout under ``--root``::

    root/cache/   entry store (a plain dir cache — inspect with ls)
    root/jobs/    jobs.jsonl (the durable queue)
    root/bus/     live per-point progress events

Kill the server mid-sweep and start it again: the job store replays,
interrupted points revert to pending, and only cold work re-executes —
the same resume contract ``taq-experiments --resume`` gives locally.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.parallel.cache import ResultCache
from repro.parallel.httpstore import StoreHandler, StoreServer
from repro.parallel.jobs import JobStore
from repro.parallel.runner import ParallelRunner
from repro.parallel.spec import PointSpec

__all__ = ["ExperimentService", "ServiceHandler", "ServiceServer", "main"]


class ExperimentService:
    """The service state one ``taq-serve`` process owns."""

    def __init__(self, root: str, jobs: int = 1,
                 version: Optional[str] = None) -> None:
        self.root = root
        self.jobs = jobs
        self.cache = ResultCache(root=os.path.join(root, "cache"),
                                 version=version)
        self.store = JobStore(os.path.join(root, "jobs"), version=version)
        self.bus_dir = os.path.join(root, "bus")
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stopping = False
        self._executing = False
        self._completed_batches = 0
        self._thread = threading.Thread(target=self._executor_loop,
                                        daemon=True)
        self._thread.start()

    # -- executor --------------------------------------------------------
    def _executor_loop(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._stopping:
                return
            while True:
                with self._lock:
                    batch = [job.spec for job in self.store.pending()]
                    if not batch:
                        self._executing = False
                        break
                    self._executing = True
                runner = ParallelRunner(
                    jobs=self.jobs,
                    cache=self.cache,
                    bus_dir=self.bus_dir,
                    store=self.store,
                    keep_going=True,
                )
                runner.run(batch)
                with self._lock:
                    self._completed_batches += 1

    def close(self) -> None:
        self._stopping = True
        self._wake.set()
        self._thread.join(timeout=5.0)

    # -- API payloads ----------------------------------------------------
    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        points = payload.get("points")
        if not isinstance(points, list) or not points:
            raise ValueError('submit body needs a non-empty "points" list')
        specs: List[PointSpec] = []
        for point in points:
            if not isinstance(point, dict) or "fn" not in point:
                raise ValueError('each point needs at least a "fn"')
            unknown = sorted(set(point) - {"fn", "kwargs", "label"})
            if unknown:
                raise ValueError(f"unknown point keys {unknown}; "
                                 "accepted: fn, kwargs, label")
            spec = PointSpec(fn=point["fn"], kwargs=point.get("kwargs", {}),
                             label=point.get("label", "") or "")
            if not isinstance(spec.kwargs, dict):
                raise ValueError(f"{spec.fn!r}: kwargs must be an object")
            # Nothing reaches the job store until every point resolves.
            try:
                spec.resolve()
            except (ImportError, AttributeError, ValueError) as exc:
                raise ValueError(f"cannot run {spec.fn!r}: {exc}") from None
            specs.append(spec)
        with self._lock:
            before = len(self.store)
            submitted = self.store.submit(specs)
        self._wake.set()
        ids = [job.job_id for job in submitted]
        return {
            "submitted": len(self.store) - before,
            "known": len(ids) - (len(self.store) - before),
            "ids": ids,
        }

    def status(self) -> Dict[str, Any]:
        with self._lock:
            summary = self.store.summary()
            summary["executing"] = self._executing
            summary["bus_dir"] = self.bus_dir
            summary["jobs"] = [
                {
                    "id": job.job_id,
                    "label": job.spec.describe(),
                    "state": job.state,
                    "attempts": job.attempts,
                    "error": job.error or None,
                }
                for job in self.store
            ]
        return summary

    def results(self) -> Dict[str, Any]:
        with self._lock:
            done = [
                {
                    "id": job.job_id,
                    "label": job.spec.describe(),
                    "wall": job.wall_time,
                    "cached": job.cached,
                }
                for job in self.store.by_state("done")
            ]
        return {"done": done, "fetch": "/cache/<id>"}

    def cancel(self) -> Dict[str, Any]:
        with self._lock:
            cancelled = 0
            for job in self.store.pending():
                self.store.mark_failed(job.job_id, "cancelled")
                cancelled += 1
        return {"cancelled": cancelled}

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: queue depth by state plus whether
        the executor thread is alive (a dead executor with pending jobs
        is the failure mode a liveness probe exists to catch)."""
        with self._lock:
            counts = self.store.counts()
            executing = self._executing
        alive = self._thread.is_alive()
        status = "ok" if alive else "degraded"
        return {
            "status": status,
            "jobs": counts,
            "executor": {"alive": alive, "executing": executing},
        }


class ServiceHandler(StoreHandler):
    """The store endpoints plus the experiment-service API."""

    server: "ServiceServer"

    def do_GET(self) -> None:
        # Only /healthz takes a query string (?plain=1); the store
        # handler matches on the raw path, so split before dispatching.
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/")
        if path == "/healthz":
            payload = self.server.service.health()
            if "plain" in parse_qs(parts.query):
                body = payload["status"].encode("utf-8")
                code = 200 if payload["status"] == "ok" else 503
                self._send(code, body, content_type="text/plain")
            else:
                self._send_json(
                    payload, code=200 if payload["status"] == "ok" else 503
                )
            return
        if path == "/status":
            self._send_json(self.server.service.status())
            return
        if path == "/results":
            self._send_json(self.server.service.results())
            return
        super().do_GET()

    def do_POST(self) -> None:
        path = self.path.rstrip("/")
        if path == "/submit":
            body = self._read_body()
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
                response = self.server.service.submit(payload)
            except ValueError as exc:
                self._error(400, str(exc))
                return
            self._send_json(response)
            return
        if path == "/cancel":
            self._send_json(self.server.service.cancel())
            return
        super().do_POST()


class ServiceServer(StoreServer):
    """HTTP front for one :class:`ExperimentService`.

    The inherited ``/cache`` endpoints serve the service's own entry
    store, so remote workers and the local executor share one cache.
    """

    def __init__(
        self,
        root: str,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        jobs: int = 1,
        version: Optional[str] = None,
        verbose: bool = False,
    ) -> None:
        self.service = ExperimentService(root, jobs=jobs, version=version)
        # The inherited /cache endpoints serve the service's own entry
        # store, so remote clients and the local executor share hits.
        super().__init__(address=address, handler=ServiceHandler,
                         verbose=verbose, cache=self.service.cache)

    def server_close(self) -> None:
        self.service.close()
        super().server_close()

    def metrics_families(self):
        """The store's cache families plus the service-plane health
        metrics: job depth by state, executor liveness, and per-point
        progress-bus heartbeat age (the live form of the ``stalled?``
        marker ``taq-obs tail`` renders)."""
        from repro.obs.export import Family
        from repro.parallel.bus import read_bus
        from repro.parallel.jobs import JOB_STATES

        families = super().metrics_families()
        health = self.service.health()
        jobs = Family("taq_jobs", "gauge",
                      help="Jobs in the durable store, by state")
        for state in JOB_STATES:
            jobs.add(health["jobs"].get(state, 0), {"state": state})
        executor = Family("taq_executor_alive", "gauge",
                          help="1 while the executor thread is alive")
        executor.add(int(health["executor"]["alive"]))
        busy = Family("taq_executor_busy", "gauge",
                      help="1 while a batch is executing")
        busy.add(int(health["executor"]["executing"]))
        families.extend([jobs, executor, busy])

        bus_state = read_bus(self.service.bus_dir)
        points = bus_state.get("points", {})
        if points:
            now = time.time()
            ages = Family(
                "taq_bus_heartbeat_age_seconds", "gauge",
                help="Seconds since each live point's last bus event",
            )
            by_status: Dict[str, int] = {}
            for name, point in sorted(points.items()):
                status = point.get("status", "pending")
                by_status[status] = by_status.get(status, 0) + 1
                last = point.get("last_seen")
                if status == "running" and last is not None:
                    ages.add(max(0.0, now - last), {"point": name})
            if ages.samples:
                families.append(ages)
            statuses = Family("taq_bus_points", "gauge",
                              help="Progress-bus points by status")
            for status in sorted(by_status):
                statuses.add(by_status[status], {"status": status})
            families.append(statuses)
        return families


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="taq-serve",
        description="Serve the experiment service plane: a shared result "
                    "store plus a durable job queue with a local executor.",
    )
    parser.add_argument("--root", default="taq-serve-data", metavar="DIR",
                        help="service state directory (cache/, jobs/, bus/); "
                             "default: ./taq-serve-data")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8742,
                        help="bind port (default: 8742; 0 = ephemeral)")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="executor worker processes (default: one per CPU)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    server = ServiceServer(args.root, (args.host, args.port), jobs=jobs,
                           verbose=args.verbose)
    print(f"taq-serve: {server.url}  (root {args.root!r}, {jobs} worker(s))")
    print(f"  submit:  POST {server.url}/submit")
    print(f"  status:  GET  {server.url}/status")
    print(f"  tail:    taq-obs tail {server.service.bus_dir}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("taq-serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
