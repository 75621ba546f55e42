"""The metrics registry: named counters, gauges and histograms.

Components never import this module — instrumentation attaches from the
outside (the observer slots of :mod:`repro.sim.observe`, which default to
``None``), so a run without telemetry executes exactly the code it
executed before the registry existed.  The registry is the *sink*: the
:class:`~repro.obs.sampler.Sampler` snapshots gauges on the simulation
clock, event probes bump counters, and :meth:`MetricsRegistry.to_jsonl`
persists everything as schema-versioned JSON lines.

Naming convention: dotted lowercase paths, most general component
first — ``queue.drops``, ``link.delivered``, ``taq.tracked_flows``,
``tcp.cwnd.7`` (trailing integer = flow id).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.obs.bundle import read_jsonl

#: Bump when the metrics JSONL layout changes.
METRICS_SCHEMA_VERSION = 1
METRICS_SCHEMA = "repro.obs.metrics"

#: One line's JSON (``json.dumps`` with these arguments, minus the
#: encoder it would build per call).
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _rank(ordered: List[float], q: float) -> float:
    """The nearest-rank percentile ``q`` in [0, 100] of *ordered*
    (sorted ascending); 0.0 when it is empty."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[index]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A named read-through to live state (``fn() -> float``).

    Gauges are pull-based: nothing is recorded until a
    :class:`~repro.obs.sampler.Sampler` (or a direct :meth:`read`)
    asks, so registering a gauge costs nothing on the data path.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    def read(self) -> float:
        return float(self.fn())


class Histogram:
    """Streaming distribution summary with a bounded sample buffer.

    Keeps exact count/sum/min/max plus a deterministic reservoir for
    percentiles (every k-th observation once full — same scheme as
    :class:`repro.net.link.LinkStats`, so identical inputs give
    identical summaries regardless of process or worker).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_reservoir")

    RESERVOIR = 2048

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self.RESERVOIR:
            self._reservoir.append(value)
        elif self.count % 17 == 0:
            self._reservoir[self.count % self.RESERVOIR] = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        ordered = sorted(self._reservoir)
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "p50": _rank(ordered, 50),
            "p95": _rank(ordered, 95),
            "p99": _rank(ordered, 99),
        }


class TimeSeries:
    """Time-stamped gauge samples ``[(sim_time, value), ...]``."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def append(self, time: float, value: float) -> None:
        self.samples.append((time, value))

    def values(self) -> List[float]:
        return [value for _, value in self.samples]

    def summary(self) -> Dict[str, float]:
        values = self.values()
        if not values:
            return {"count": 0}
        ordered = sorted(values)
        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
            "p50": _rank(ordered, 50),
            "p95": _rank(ordered, 95),
            "last": values[-1],
        }


class MetricsRegistry:
    """All of one run's metrics, by name.

    ``counter``/``gauge``/``histogram``/``series`` are get-or-create:
    probes can be wired in any order and share instruments by name.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}

    # -- get-or-create -------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name, fn)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def time_series(self, name: str) -> TimeSeries:
        instrument = self.series.get(name)
        if instrument is None:
            instrument = self.series[name] = TimeSeries(name)
        return instrument

    # -- convenience ---------------------------------------------------
    def set_counter(self, name: str, value: int) -> None:
        """Overwrite a counter (used to import component-kept totals —
        e.g. ``Simulator.processed`` — at finalize time)."""
        self.counter(name).value = int(value)

    def sample_gauges(self, now: float) -> None:
        """Snapshot every gauge into its same-named time series."""
        for name, gauge in self.gauges.items():
            self.time_series(name).append(now, gauge.read())

    # -- summaries and persistence ------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Deterministic metric roll-up (counters, histogram and series
        summaries) — what flows back through ``repro.parallel`` and what
        the CI determinism check diffs."""
        return {
            "counters": {
                name: counter.value for name, counter in sorted(self.counters.items())
            },
            "histograms": {
                name: hist.summary() for name, hist in sorted(self.histograms.items())
            },
            "series": {
                name: series.summary() for name, series in sorted(self.series.items())
            },
        }

    def to_jsonl(self) -> Iterator[str]:
        """Render every metric as one JSON line (header line first)."""
        yield _encode({
            "type": "meta",
            "schema": METRICS_SCHEMA,
            "version": METRICS_SCHEMA_VERSION,
        })
        for name in sorted(self.counters):
            yield _encode({"type": "counter", "name": name,
                           "value": self.counters[name].value})
        for name in sorted(self.histograms):
            payload = {"type": "histogram", "name": name}
            payload.update(self.histograms[name].summary())
            yield _encode(payload)
        for name in sorted(self.series):
            yield _encode({
                "type": "series",
                "name": name,
                "samples": [[t, v] for t, v in self.series[name].samples],
            })

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to *path*; returns lines written."""
        lines = list(self.to_jsonl())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join([line + "\n" for line in lines]))
        return len(lines)


def load_metrics_jsonl(source) -> Dict[str, Any]:
    """Load a metrics JSONL file back into plain dicts.

    *source* is a path or an open text handle.  Returns ``{"counters":
    {...}, "histograms": {...}, "series": {name: [(t, v), ...]}}``.
    Unknown record types are skipped so newer writers stay loadable by
    older readers.
    """
    if not hasattr(source, "read"):
        with open(source, "r", encoding="utf-8") as handle:
            return load_metrics_jsonl(handle)
    out: Dict[str, Any] = {"counters": {}, "histograms": {}, "series": {}}
    for record in read_jsonl(source, METRICS_SCHEMA, METRICS_SCHEMA_VERSION,
                             "a metrics file"):
        record_type = record.get("type")
        if record_type == "counter":
            out["counters"][record["name"]] = record["value"]
        elif record_type == "histogram":
            name = record.pop("name")
            record.pop("type")
            out["histograms"][name] = record
        elif record_type == "series":
            out["series"][record["name"]] = [(t, v) for t, v in record["samples"]]
    return out
