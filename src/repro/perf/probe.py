"""The performance probe: ledger-derived counters and wall-clock spans.

``repro.obs`` sees *what the simulation did*; this module sees *where
the wall-clock time goes*.  A :class:`PerfProbe` is a subscriber of the
instrumentation seam (:mod:`repro.sim.observe`), and nearly absent from
the hot path: an unarmed run executes exactly the pre-instrumentation
code, and an armed one keeps the simulator's fast loop (regression-
tested against the recorded goldens).

Two kinds of instrument:

- **Counters.**  The seven simulator/network counters (events popped,
  cancelled events discarded, callbacks dispatched, packets
  enqueued/dequeued/dropped/delivered) are not counted a second time:
  :meth:`PerfProbe.counter_summary` reads them, when asked, from the
  ledgers the armed components keep anyway (``Simulator.processed``,
  ``EventQueue.discards``, ``LinkStats``, ``queue.dropped``).
  Everything else goes through :meth:`PerfProbe.count`, a
  named-counter dict for colder paths (TAQ evictions via the
  ``evicted`` event, per-benchmark phases); the result-cache tally is
  the ``cache_hits`` / ``cache_misses`` pair ``ParallelRunner`` bumps.
- **Spans** measure wall time around coarse phases (``sim.run``,
  ``parallel.point``, benchmark build/run phases) via
  ``with probe.span("name"):`` — per-span call count, total and max
  seconds.

Because probes only *read* ledgers and the wall clock, an armed run
schedules and fires exactly the same simulated event sequence as an
unarmed one — the bit-identity contract ``tests/test_bit_identity.py``
pins.

Arming is either explicit (``probe.arm(built)``) or ambient: ``with
profiled() as probe:`` makes :func:`repro.build.build_simulation` arm
*probe* on everything it constructs, so whole experiments can be
profiled without touching their code.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, ContextManager, Dict, List, Optional

from repro.sim.observe import Observer, ambient, subscribe

__all__ = [
    "PerfProbe",
    "SpanStats",
    "peak_rss_bytes",
    "profiled",
]


class SpanStats:
    """Aggregate wall-clock statistics for one named span."""

    __slots__ = ("name", "calls", "total_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds


class _SpanTimer:
    """Context manager feeding one :class:`SpanStats` (re-entrant safe:
    each ``with`` gets its own timer)."""

    __slots__ = ("_stats", "_t0")

    def __init__(self, stats: SpanStats) -> None:
        self._stats = stats
        self._t0 = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stats.add(perf_counter() - self._t0)


class PerfProbe(Observer):
    """Counters plus named wall-clock spans for one or more runs.

    :meth:`counter_summary` reports one flat namespace of dotted
    catalogue names (``sim.events_popped``, ``net.packets_dropped``,
    ...): the simulator/network ones read from the ledgers of whatever
    :meth:`arm` was given — which the probe therefore keeps alive until
    it is dropped itself — the cache pair bumped by ``ParallelRunner``,
    the rest counted by name.
    """

    __slots__ = ("cache_hits", "cache_misses", "counters", "spans",
                 "_sims", "_links", "_timer")

    def __init__(self) -> None:
        self.cache_hits = 0
        self.cache_misses = 0
        self.counters: Dict[str, int] = {}
        self.spans: Dict[str, SpanStats] = {}
        self._sims: List[Any] = []
        self._links: List[Any] = []
        self._timer: Optional[_SpanTimer] = None

    # -- cold-path counters --------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Bump the named counter (get-or-create)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- arming, and the three events the probe subscribes to ------------
    def arm(self, built: Any) -> None:
        """Arm across one :class:`repro.build.BuiltScenario`: remember
        its simulator and links for their ledgers, time its runs, and
        count the evictions of every queue that reports them."""
        if built.sim in self._sims:
            return  # armed already; its ledgers would be read twice
        links = built.links()
        self._sims.append(built.sim)
        self._links.extend(links)
        subscribe(built.sim, self)
        for queue in [built.queue] + [link.queue for link in links]:
            subscribe(queue, self)

    def run_start(self, sim: Any) -> None:
        self._timer = self.span("sim.run").__enter__()

    def run_end(self, sim: Any) -> None:
        self._timer.__exit__()

    def evicted(self, queue: Any, evicted: Any, by_packet: Any, now: float) -> None:
        self.count("taq.evictions")

    # -- spans ----------------------------------------------------------
    def span(self, name: str) -> _SpanTimer:
        """``with probe.span("phase"):`` — time one occurrence of *phase*."""
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats(name)
        return _SpanTimer(stats)

    # -- roll-up ---------------------------------------------------------
    def _ledger_counters(self) -> Dict[str, int]:
        """The catalogue counters nobody counts: read, now, from the
        always-on ledgers of the armed simulators and links."""
        processed = sum(sim.processed for sim in self._sims)
        stats = [link.stats for link in self._links]
        return {
            "sim.events_popped": processed,
            "sim.callbacks_dispatched": processed,  # every pop is dispatched
            "sim.heap_discards": sum(sim.events.discards for sim in self._sims),
            # Accepted on arrival, whether or not evicted later.
            "net.packets_enqueued": sum(s.arrived - s.dropped for s in stats),
            # LinkStats notes one queueing delay per dequeue.
            "net.packets_dequeued": sum(s.queue_delay_samples for s in stats),
            "net.packets_dropped": sum(link.queue.dropped for link in self._links),
            "net.packets_delivered": sum(s.delivered for s in stats),
            "parallel.cache_hits": self.cache_hits,
            "parallel.cache_misses": self.cache_misses,
        }

    def counter_summary(self) -> Dict[str, int]:
        """Ledger + named counters as one sorted flat dict (zero-valued
        ledger counters stay out)."""
        merged = dict(self.counters)
        for name, value in self._ledger_counters().items():
            if value:
                merged[name] = merged.get(name, 0) + value
        return {name: merged[name] for name in sorted(merged)}

    def render(self) -> str:
        """Plain-text roll-up (the ``taq-perf`` narrow-format report)."""
        lines = ["counters:"]
        for name, value in self.counter_summary().items():
            lines.append(f"  {name} = {value}")
        if self.spans:
            lines.append("spans:")
            for name in sorted(self.spans):
                stats = self.spans[name]
                lines.append(
                    f"  {name}: calls={stats.calls} "
                    f"total={stats.total_s:.3f}s max={stats.max_s:.3f}s"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Peak RSS
# ----------------------------------------------------------------------
def peak_rss_bytes() -> int:
    """Lifetime peak resident set size of this process, in bytes.

    Uses ``resource.getrusage`` (kilobytes on Linux, bytes on macOS);
    returns 0 where the module is unavailable (non-POSIX platforms) so
    callers can treat the value as best-effort.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(usage)
    return int(usage) * 1024


def profiled(probe: Optional[PerfProbe] = None) -> ContextManager[PerfProbe]:
    """``with profiled() as probe:`` — every simulation built inside the
    block (via :func:`repro.build.build_simulation`) is armed with
    *probe*, no experiment-code changes needed."""
    return ambient(probe if probe is not None else PerfProbe())
