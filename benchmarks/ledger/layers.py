"""The traced run: per-layer metrics, measured from outside the program.

Four instruments, all owned by the benchmark:

(a) boundary spans around each public call the harness makes, kept in
    memory and written to ``spans.jsonl`` when the run ends;
(b) one unit under cProfile, self time and call counts grouped by
    ``src/repro/<layer>/``;
(c) direct-drive loops on layer APIs;
(d) work counters read from public stats after the unit.

Spans inside the program are a later change; nothing here edits or
patches ``repro``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import clock
import units
from harness import OUT, Checks, profile_unit, run_child, sample_unit, units_of

#: Layers of ``src/repro`` that get a cProfile share.
PROFILED_LAYERS = ("sim", "net", "queues", "core", "tcp", "workloads", "metrics",
                   "experiments", "parallel")
OBSERVER_LAYERS = ("obs", "perf", "check")

#: Which family each armed-ratio metric arms.
FAMILY_METRICS = {
    "telemetry": "obs.telemetry_armed_ratio",
    "spans": "obs.spans_armed_ratio",
    "probe": "perf.probe_armed_ratio",
    "monitors": "check.monitors_armed_ratio",
}


# ----------------------------------------------------------------------
# (a) boundary spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory boundary spans: name, start, end, parent, unit."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[Dict[str, Any]] = []
        self.unit: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._open[-1]["name"] if self._open else None,
                  "unit": self.unit}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def self_times(self, unit: int) -> Dict[str, float]:
        """A span's self time: its duration minus what its children cover."""
        mine = [s for s in self.spans if s["unit"] == unit]
        out = {s["name"]: s["end"] - s["start"] for s in mine}
        for s in mine:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# (b) cProfile by layer
# ----------------------------------------------------------------------
def layer_of(filename: str) -> str:
    parts = Path(filename).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 2 < len(parts):
            return parts[index + 1]
        return "repro"
    return "other"


def profile_by_layer(entries: List[Any]) -> Dict[str, Dict[str, float]]:
    """Self time and calls of cProfile's raw entries, by layer; builtins
    (whose ``code`` is a string) and the standard library are ``other``."""
    layers: Dict[str, Dict[str, float]] = {}
    for entry in entries:
        filename = getattr(entry.code, "co_filename", "~")
        row = layers.setdefault(layer_of(filename), {"self_s": 0.0, "calls": 0})
        row["self_s"] += entry.inlinetime
        row["calls"] += entry.callcount
    total = sum(row["self_s"] for row in layers.values()) or 1.0
    for row in layers.values():
        row["share"] = row["self_s"] / total
    return layers


# ----------------------------------------------------------------------
# (c) direct drives
# ----------------------------------------------------------------------
def _per_op(body: Callable[[], int], repeats: int = 3) -> float:
    """Drift-corrected seconds per operation of *body* (which returns how
    many it did), lower quartile of *repeats*."""
    per_op = []
    for _ in range(repeats):
        ops, sample = clock.timed(body)
        per_op.append(sample["corrected"] / ops)
    return clock.q25(per_op)


def _noop() -> None:
    pass


def direct_sim(scale: float) -> Dict[str, float]:
    from repro.sim.events import EventQueue

    n = max(200, int(20_000 * scale))

    def push_pop() -> int:
        queue = EventQueue()
        push, pop = queue.push, queue.pop
        for i in range(n):
            push(0.001 * (i % 97) + 1e-6 * i, _noop)
        while pop() is not None:
            pass
        return n

    def cancel() -> int:
        queue = EventQueue()
        events = [queue.push(0.001 + 1e-6 * i, _noop) for i in range(n)]
        for event in events:
            event.cancel()
        return n

    # direct_cancel_ns is one push plus its cancel (the retransmit-timer
    # pattern); direct_push_pop_ns one push plus its pop.
    return {
        "sim.direct_push_pop_ns": _per_op(push_pop) * 1e9,
        "sim.direct_cancel_ns": _per_op(cancel) * 1e9,
    }


def _saturate(kind: str, flows: int, n: int) -> int:
    """Offer two packets per service slot across *flows* flows, the
    shape of the micro-suite's ``queue_*_saturation``."""
    from repro.build import build_queue
    from repro.net.packet import DATA, Packet
    from repro.sim.simulator import Simulator

    queue = build_queue(kind, Simulator(seed=15), capacity_bps=1_000_000.0,
                        rtt=0.1, pkt_size=200)
    now = 0.0
    handled = 0
    for i in range(n):
        now += 0.0005
        queue.enqueue(Packet(flow_id=i % flows, kind=DATA, seq=i // flows, size=200), now)
        queue.enqueue(Packet(flow_id=(i + 7) % flows, kind=DATA, seq=i // flows,
                             size=200), now)
        handled += 2
        if queue.dequeue(now) is not None:
            handled += 1
    while queue.dequeue(now) is not None:
        handled += 1
    return handled


def direct_queues(scale: float) -> Dict[str, float]:
    n = max(100, int(4_000 * scale))
    droptail = _per_op(lambda: _saturate("droptail", 32, 4 * n))
    taq32 = _per_op(lambda: _saturate("taq", 32, n))
    taq1024 = _per_op(lambda: _saturate("taq", 1024, n))
    return {
        "queues.direct_droptail_pkt_ns": droptail * 1e9,
        "core.direct_taq_pkt_ns_f32": taq32 * 1e9,
        "core.direct_taq_pkt_ns_f1024": taq1024 * 1e9,
        "core.flow_scaling_ratio": taq1024 / taq32,
    }


def direct_fluid(scale: float) -> Dict[str, float]:
    from repro.build import build_simulation
    from repro.build.spec import (BackendSpec, MetricsSpec, QueueSpec, ScenarioSpec,
                                  TopologySpec, WorkloadSpec)

    spec = ScenarioSpec(
        topology=TopologySpec(capacity_bps=400_000_000.0, rtt=0.2, pkt_size=200),
        name="ledger-fluid-red",
        seed=21,
        duration=max(2.0, 30.0 * scale),
        queue=QueueSpec(kind="red"),
        workloads=[WorkloadSpec("bulk", {"n_flows": 1_000_000})],
        metrics=MetricsSpec(slice_seconds=10.0),
        backend=BackendSpec(kind="fluid"),
    )
    steps = []

    def run() -> int:
        result = build_simulation(spec).run()
        steps.append(result.steps)
        return 1

    seconds = _per_op(run, repeats=2)
    return {"fluid.direct_run_s": seconds,
            "fluid.direct_step_us": seconds / steps[-1] * 1e6}


def direct_model(scale: float) -> Dict[str, float]:
    from repro.model import population_fixed_point

    n = max(1, int(4 * scale))

    def solve() -> int:
        for _ in range(n):
            # The packet workloads' own operating point.
            population_fixed_point(n_flows=100, capacity_pps=375.0, rtt=0.2)
        return n

    return {"model.fixed_point_ms": _per_op(solve, repeats=2) * 1e3}


def direct_parallel(scale: float, workdir: str, value: Any) -> Dict[str, float]:
    """Each store API driven alone; *value* is a real sweep result."""
    from repro.parallel import (HttpCache, JobStore, PointSpec, ResultCache,
                                SqliteCache)
    from repro.parallel.bus import ProgressBus
    from repro.parallel.httpstore import StoreServer

    n = max(20, int(200 * scale))
    base = os.path.join(workdir, "direct")
    specs = [PointSpec(units.SWEEP_FN, {"kind": "droptail", "seed": i}, f"d{i:03d}")
             for i in range(n)]
    out: Dict[str, float] = {}
    dir_cache = ResultCache(os.path.join(base, "dir"), version="ledger")
    for kind, cache in (("dir", dir_cache),
                        ("sqlite", SqliteCache(os.path.join(base, "c.sqlite"),
                                               version="ledger"))):
        def put(cache: Any = cache) -> int:
            for spec in specs:
                cache.put(spec, value, 0.001)
            return n

        def get(cache: Any = cache) -> int:
            for spec in specs:
                if cache.get(spec) is None:
                    raise RuntimeError(f"{cache.describe()} lost an entry")
            return n

        out[f"parallel.cache_put_us.{kind}"] = _per_op(put) * 1e6
        out[f"parallel.cache_get_us.{kind}"] = _per_op(get) * 1e6

    rounds = [0]

    def jobs() -> int:
        rounds[0] += 1
        store = JobStore(os.path.join(base, f"jobs{rounds[0]}"), version="ledger")
        for job in store.submit(specs):
            store.mark_running(job.job_id, pid=1)
            store.mark_done(job.job_id, 0.001)
        return n

    out["parallel.jobstore_us_per_job"] = _per_op(jobs) * 1e6

    bus = ProgressBus(os.path.join(base, "bus"))

    def emit() -> int:
        for i in range(n):
            bus.emit(f"p{i % 50:03d}", "done", wall=0.001, cached=True)
        return n

    out["parallel.bus_emit_us"] = _per_op(emit) * 1e6

    # Loopback only.  Where the sandbox forbids sockets the metric reads 0.
    out["parallel.http_roundtrip_ms"] = 0.0
    try:
        server = StoreServer(address=("127.0.0.1", 0), cache=dir_cache)
    except OSError:
        return out
    thread = server.serve_in_background()
    try:
        client = HttpCache(server.url, version="ledger")
        m = max(5, n // 8)

        def fetch() -> int:
            for spec in specs[:m]:
                if client.get(spec) is None:
                    raise RuntimeError("http store lost an entry")
            return m

        out["parallel.http_roundtrip_ms"] = _per_op(fetch) * 1e3
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
    return out


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _timed_units(workload: Any, arm: Tuple[str, ...], budget_s: float, minimum: int,
                 checks: Checks, what: str) -> List[Dict[str, float]]:
    samples = []
    deadline = perf_counter() + budget_s
    while len(samples) < minimum or perf_counter() < deadline:
        sample = sample_unit(workload, arm, checks, f"{what} {len(samples)}")
        if sample is None:
            break
        samples.append(sample)
    return samples


def trace(workload: Any, seconds: float, smoke: bool, workdir: str, checks: Checks
          ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    scale = 0.1 if smoke else 1.0
    minimum = 1 if smoke else 3
    is_sweep = workload.name == "sweep_resume"
    # 0 means "this layer is not on the workload's path" (e.g.
    # ``parallel.open_s`` on a packet workload).
    metrics = {name: 0.0 for name in units_of("per_layer")}
    tracer = Tracer()

    workload.prepare(workdir)
    children = [run_child(workload, workdir, False) for _ in range(2 if smoke else 3)]
    metrics["build.import_s"] = clock.q25([c["import_s"] for c in children])
    metrics["build.build_s"] = clock.q25([c["build_s"] for c in children])

    reference = workload.reference()
    checks.record("warm-up unit", [])
    # (b) one unit under cProfile, at the same point of the run's history
    # as in the end-to-end run.
    profile = profile_unit(workload, checks)
    sample_unit(workload, units.FAMILIES, checks, "armed warm-up unit")

    # Untraced baseline: the unit_s this run's ratios are taken against.
    baseline = _timed_units(workload, (), 0.30 * seconds, minimum, checks,
                            "baseline unit")

    # (a) traced units: boundary spans around the public calls.
    results = []

    def traced_unit(state: Any) -> Any:
        with tracer.span("unit"):
            result = workload.run(state, tracer.span)
        results.append(result)
        return result

    traced: List[Dict[str, float]] = []
    for index in range(minimum):
        tracer.unit = index
        sample = sample_unit(workload, (), checks, f"traced unit {index}", traced_unit)
        if sample is not None:
            traced.append(sample)
    tracer.unit = None
    if not baseline or len(traced) < minimum:
        # Units raised: there is nothing to report but the failures.
        return {}, {}
    unit_s = clock.summarize(baseline)["median"]
    metrics["trace.overhead_ratio"] = clock.summarize(traced)["median"] / unit_s
    middle = sorted(range(len(traced)), key=lambda i: traced[i]["raw"])[len(traced) // 2]
    rows = {name: row_s for name, row_s in tracer.self_times(middle).items()
            if name != "unit"}
    accounted = sum(rows.values()) / traced[middle]["raw"]
    if abs(1.0 - accounted) > 0.05:
        checks.record("trace budget", [f"boundary rows cover {accounted:.3f} of the unit"])
    drift = clock.REF_NOMINAL_S / min(traced[middle]["ref_before"],
                                      traced[middle]["ref_after"])
    if is_sweep:
        for name in ("open", "cached", "cold"):
            metrics[f"parallel.{name}_s"] = rows[name] * drift
    else:
        metrics["metrics.reduce_s"] = rows["reduce"] * drift

    # One family armed at a time.
    for family, name in FAMILY_METRICS.items():
        if is_sweep and family == "monitors":
            continue
        samples = _timed_units(workload, (family,), 0.10 * seconds, minimum, checks,
                               f"{family}-armed unit")
        if samples:
            metrics[name] = clock.summarize(samples)["median"] / unit_s

    layers = profile_by_layer(profile)
    packets = workload.packets
    for layer in PROFILED_LAYERS:
        row = layers.get(layer, {"share": 0.0, "calls": 0})
        metrics[f"{layer}.self_share"] = row["share"]
        if f"{layer}.calls_per_pkt" in metrics:
            metrics[f"{layer}.calls_per_pkt"] = row["calls"] / packets
    metrics["observers.unarmed_self_share"] = sum(
        layers.get(layer, {"share": 0.0})["share"] for layer in OBSERVER_LAYERS)

    # (d) work counters from public stats.
    if is_sweep:
        total = len(workload.points)
        last = results[middle]
        metrics["parallel.cache_hit_share"] = (
            sum(1 for r in last["results"] if r.cached) / total)
        metrics["parallel.overhead_per_point_us"] = (
            (unit_s - last["cold_compute_s"] * drift) / total * 1e6)
    else:
        counts = reference["counts"]
        metrics["sim.events_per_pkt"] = reference["events"] / packets
        metrics["net.drops_per_pkt"] = counts["dropped"] / packets
        metrics["tcp.timeouts_per_flow"] = counts["timeouts"] / counts["flows_started"]
        metrics["tcp.retransmit_share"] = counts["retransmits"] / max(counts["data_sent"], 1)
        metrics["workloads.flows_started"] = counts["flows_started"]
        metrics["workloads.transfers_completed"] = counts["transfers_completed"]
        metrics["core.admission_refusals"] = counts["admission_refusals"]
        probed = workload.staged(("probe",))
        checks.record("probe-counter unit", workload.verify(probed))
        metrics["core.evictions_per_pkt"] = (
            probed["counts"]["probe"].get("taq.evictions", 0) / packets)

    # (c) direct drives, each under its own boundary span.  The store
    # drives move one real sweep result around.
    from repro.experiments.sweeps import run_sweep_point
    from repro.parallel.cache import encode_entry

    sample_value = run_sweep_point("droptail", 100_000.0, 20_000.0, duration=2.0,
                                   slice_seconds=0.5, seed=1)
    for name, drive in (("direct.sim", lambda: direct_sim(scale)),
                        ("direct.queues", lambda: direct_queues(scale)),
                        ("direct.fluid", lambda: direct_fluid(scale)),
                        ("direct.model", lambda: direct_model(scale)),
                        ("direct.parallel",
                         lambda: direct_parallel(scale, workdir, sample_value))):
        with tracer.span(name):
            metrics.update(drive())
    metrics["parallel.entry_bytes"] = float(len(encode_entry(sample_value, 0.001)))

    every = baseline + traced
    host = clock.drift_record(clock.ref_values(every))
    metrics["host.ref_kernel_s"] = host["ref_kernel_s"]["q25"]

    tracer.write(OUT / f"{workload.name}-seed{workload.seed}-spans.jsonl")
    record = {
        "host": host,
        "timings": {"unit_s": clock.summarize(baseline),
                    "traced_unit_s": clock.summarize(traced)},
        "budget": {"unit_raw_s": traced[middle]["raw"], "rows": rows,
                   "accounted": accounted},
        "profile": {layer: row for layer, row in sorted(layers.items())},
        "children": children,
    }
    return metrics, record


def print_budget(record: Dict[str, Any]) -> None:
    budget = record["budget"]
    print("  trace budget (self time of the boundary spans, traced unit "
          f"{budget['unit_raw_s']:.4f} s raw):")
    for name, seconds in budget["rows"].items():
        print(f"    {name:<10} {seconds:>9.4f} s  {seconds / budget['unit_raw_s']:>6.1%}")
    print(f"    {'sum':<10} {sum(budget['rows'].values()):>9.4f} s  "
          f"{budget['accounted']:>6.1%}")
    print("  cProfile self-time share by layer:")
    for layer, row in sorted(record["profile"].items(), key=lambda kv: -kv[1]["share"]):
        print(f"    {layer:<12} {row['share']:>6.1%}  {int(row['calls']):>9d} calls")
