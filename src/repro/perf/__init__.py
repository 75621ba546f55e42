"""repro.perf — performance observability for the simulator.

Three layers:

- :mod:`repro.perf.probe` — :class:`PerfProbe`: ledger-derived counters
  and wall-clock spans, a subscriber of :mod:`repro.sim.observe`
  (zero overhead when off; armed runs stay bit-identical).
- :mod:`repro.perf.bench` / :mod:`repro.perf.suite` — the deterministic
  benchmark suite and the schema-versioned ``BENCH_*.json`` document it
  emits; :mod:`repro.perf.compare` diffs two BENCH files with
  per-benchmark regression thresholds.
- :mod:`repro.perf.cli` — the ``taq-perf`` command (``run`` /
  ``compare`` / ``profile``); :mod:`repro.perf.flamestack` provides the
  collapsed-stack sampler behind ``profile``.

See ``docs/performance.md`` for the span/counter catalogue and the
BENCH schema.
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    DEFAULT_BENCH_NAME,
    BenchCounts,
    Benchmark,
    BenchResult,
    bench_document,
    benchmark,
    get_benchmark,
    load_bench,
    load_suite,
    run_benchmark,
    run_suite,
    write_bench,
)
from repro.perf.probe import (
    PerfProbe,
    SpanStats,
    peak_rss_bytes,
    profiled,
)

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_BENCH_NAME",
    "BenchCounts",
    "Benchmark",
    "BenchResult",
    "PerfProbe",
    "SpanStats",
    "bench_document",
    "benchmark",
    "get_benchmark",
    "load_bench",
    "load_suite",
    "peak_rss_bytes",
    "profiled",
    "run_benchmark",
    "run_suite",
    "write_bench",
]
