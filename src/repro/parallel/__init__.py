"""Parallel experiment engine: fan independent sweep points across cores.

Every figure in the reproduction is a grid of independent
single-bottleneck simulations (one :class:`~repro.sim.rng.RngRegistry`
root seed per point), which makes the workload embarrassingly parallel
and bit-reproducible regardless of execution order.  This package
provides the three pieces the experiment modules build on:

- :class:`PointSpec` / :class:`PointResult` — a picklable description
  of one simulation point (a dotted-path callable plus keyword
  arguments) and its measured outcome with per-point wall time;
- :class:`CacheBackend` — the pluggable result store protocol, with
  three interchangeable, bit-compatible implementations keyed by the
  point spec plus a hash of the package source: the local-dir
  :class:`ResultCache` (the default), a WAL-mode :class:`SqliteCache`
  safe under concurrent workers, and an :class:`HttpCache` client for
  the dumb shared store server (:mod:`repro.parallel.httpstore`), so
  re-running ``reproduce_all`` only recomputes what changed and a
  fleet of machines can share hits;
- :class:`JobStore` — the durable, schema-versioned job queue (one
  :class:`Job` per point, states pending/running/done/failed,
  append-only JSONL + compaction) that makes a killed sweep resumable:
  reopen the store and only cold points rerun;
- :class:`ParallelRunner` — the executor over the job store:
  sequential in-process at ``jobs=1`` (the degenerate case, kept as
  the reference path), a ``ProcessPoolExecutor`` fan-out above that,
  with optional progress/ETA reporting via :class:`ProgressPrinter`.

``taq-serve`` (:mod:`repro.parallel.service`) exposes all three layers
over HTTP: submit/status/results/cancel plus the shared entry store,
with per-point telemetry streaming through :mod:`repro.parallel.bus`.

jobs=1 vs jobs=N, and dir vs sqlite vs http backends, all produce
bit-identical results; ``tests/parallel`` asserts this against the
real sweep experiments.

Importing the package loads what a ``jobs=1`` sweep over a dir store
runs and no more: :class:`SqliteCache` and :class:`HttpCache` (with
``sqlite3``) are imported the first time either name is asked for,
``urllib.request`` at an HTTP store's first transfer, the process pool
when ``jobs > 1`` first fans out.  Keys hash through the interpreter's
builtin SHA-256, so a sweep that speaks no HTTP never maps OpenSSL.
"""

from repro.parallel.cache import (
    CacheBackend,
    ResultCache,
    code_version,
    default_cache_dir,
    parse_backend,
    spec_key,
)
from repro.parallel.jobs import Job, JobStore
from repro.parallel.runner import ParallelRunner, ProgressPrinter
from repro.parallel.spec import PointResult, PointSpec

__all__ = [
    "CacheBackend",
    "HttpCache",
    "Job",
    "JobStore",
    "ParallelRunner",
    "PointResult",
    "PointSpec",
    "ProgressPrinter",
    "ResultCache",
    "SqliteCache",
    "code_version",
    "default_cache_dir",
    "parse_backend",
    "spec_key",
]


def __getattr__(name: str):
    if name in ("HttpCache", "SqliteCache"):
        from repro.parallel import backends

        return getattr(backends, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
