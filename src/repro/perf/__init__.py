"""repro.perf — performance observability for the simulator.

Three layers:

- :mod:`repro.perf.probe` — :class:`PerfProbe`: ledger-derived counters
  and wall-clock spans, a subscriber of :mod:`repro.sim.observe`
  (zero overhead when off; armed runs stay bit-identical).
- :mod:`repro.perf.bench` / :mod:`repro.perf.suite` — the deterministic
  benchmark suite, the ``BENCH_*.json`` document of counts it emits
  (events, packets, Python calls; no clock reading) and the exact
  differ that gates a change against the committed ``BENCH_22.json``.
- :mod:`repro.perf.cli` — the ``taq-perf`` command (``run`` /
  ``compare`` / ``profile``); :mod:`repro.perf.flamestack` provides the
  collapsed-stack sampler behind ``profile``.

Wall time, rates and memory are measured by ``benchmarks/ledger``, not
here.  See ``docs/performance.md`` for the span/counter catalogue and
the BENCH schema.
"""

from repro.perf.probe import PerfProbe, peak_rss_bytes, profiled

__all__ = ["PerfProbe", "peak_rss_bytes", "profiled"]
