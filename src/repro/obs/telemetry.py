"""The one-stop telemetry bundle for a simulation run.

:class:`Telemetry` owns the three artifacts every instrumented run
produces — a :class:`~repro.obs.metrics.MetricsRegistry`, an
:class:`~repro.obs.trace.EventTrace` and (after :meth:`finalize`) a
:class:`~repro.obs.manifest.RunManifest` — plus the
:class:`~repro.obs.sampler.Sampler` that snapshots gauges on the sim
clock.  The ``instrument_*`` helpers subscribe the bundle to the
components' observer slots (:mod:`repro.sim.observe`) and to the flow
completion callbacks; a run without a Telemetry object executes exactly
the pre-instrumentation code path, which is the
zero-overhead-when-disabled guarantee.

Usage::

    telemetry = Telemetry("out/run0", sample_interval=1.0)
    telemetry.arm(built)        # sampler, queue, bottleneck link, flows
    built.run()
    telemetry.finalize(built.sim, run_id="fig02-200k", seed=1, ...)

:meth:`Telemetry.arm` is the one arming sequence every sweep point and
scenario runs; its parts (``attach``, ``instrument_queue``,
``instrument_link``, ``instrument_flows``) stay public for runs that
are not a :class:`~repro.build.BuiltScenario`.

The bundle on disk::

    out/run0/manifest.json    provenance (seed, params, source hash)
    out/run0/metrics.jsonl    counters + histograms + gauge time series
    out/run0/events.jsonl     structured event trace (schema-versioned)
"""

from __future__ import annotations

import os
import time as _time
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import Sampler
from repro.obs.trace import EventTrace, save_events, summarize_events
from repro.sim.observe import Observer, subscribe

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.net.link import Link
    from repro.queues.base import QueueDiscipline
    from repro.sim.simulator import Simulator
    from repro.tcp.flow import TcpFlow

#: Hard cap on structured events kept (see :class:`EventTrace`).
TRACE_LIMIT = 1_000_000

#: Per-flow cwnd gauges go to the first few flows present at arming:
#: time-series cost scales with flows x samples, and hundreds of
#: per-flow series drown a sweep bundle.
CWND_FLOWS = 8

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.jsonl"
EVENTS_NAME = "events.jsonl"
SPANS_NAME = "spans.jsonl"


class Telemetry(Observer):
    """Metrics + trace + sampler + manifest for one run.

    Parameters
    ----------
    out_dir:
        Bundle directory (created on finalize), or ``None`` to keep the
        telemetry purely in memory (tests, interactive use).
    sample_interval:
        Gauge sampling period in sim-seconds; 0 disables the sampler.
    spans:
        Optional :class:`repro.obs.spans.SpanRecorder` to carry along:
        finalize writes its spans as ``spans.jsonl`` next to the other
        bundle artifacts and the summary includes its roll-up.  The
        caller still arms the recorder on components (or uses
        ``recording()``); Telemetry only owns persistence.
    """

    def __init__(
        self,
        out_dir: Optional[str] = None,
        sample_interval: float = 1.0,
        spans=None,
    ) -> None:
        self.out_dir = out_dir
        self.sample_interval = sample_interval
        self.registry = MetricsRegistry()
        self.trace = EventTrace(limit=TRACE_LIMIT)
        self.spans = spans
        self.sampler: Optional[Sampler] = None
        self.manifest: Optional[RunManifest] = None
        #: Set by :func:`instrument_flows`: flows spawned later are
        #: instrumented as they announce themselves.
        self.follows_flows = False
        self._finalizers: List[Callable[[], None]] = []
        self._wall_start = _time.perf_counter()

    # ------------------------------------------------------------------
    # Structured events: emit(), and the seam events that feed it
    # ------------------------------------------------------------------
    def emit(self, kind: str, time: float, flow_id: int = -1, **fields: Any) -> None:
        """Record one structured event and bump its per-kind counter."""
        self.trace.emit(kind, time, flow_id, **fields)
        self.registry.counter(f"event.{kind}").inc()

    def syn_retry(self, sender, now: float) -> None:
        self.emit("syn_retry", now, flow_id=sender.flow_id,
                  attempt=sender.stats.syn_retries)

    def retransmit(self, sender, packet, now: float) -> None:
        self.emit("retransmit", now, flow_id=sender.flow_id, seq=packet.seq)

    def fast_retransmit(self, sender, now: float) -> None:
        self.emit("fast_retransmit", now, flow_id=sender.flow_id,
                  seq=sender.snd_una)

    def rto(self, sender, now: float) -> None:
        self.emit("rto", now, flow_id=sender.flow_id,
                  backoff=sender.rto.backoff_exponent, rto=sender.rto.rto,
                  snd_una=sender.snd_una)

    def dropped(self, queue, packet, now: float) -> None:
        self.emit("drop", now, flow_id=packet.flow_id, pkt=packet.kind,
                  seq=packet.seq)

    def refused(self, queue, packet, now: float) -> None:
        self.emit("taq_refused", now, flow_id=packet.flow_id, pool=packet.pool_id)

    def penalized(self, queue, packet, now: float) -> None:
        self.emit("taq_penalty_box", now, flow_id=packet.flow_id,
                  recent_drops=queue.tracker.lookup(packet.flow_id).recent_drops())

    def evicted(self, queue, evicted, by_packet, now: float) -> None:
        self.emit("taq_evict", now, flow_id=evicted.flow_id,
                  by_flow=by_packet.flow_id, seq=evicted.seq)

    def flow_state(self, record, prev_state, now: float) -> None:
        self.emit("flow_state", now, flow_id=record.flow_id,
                  prev=prev_state.value, next=record.state.value)

    def flow_spawned(self, sim, flow) -> None:
        """A flow created mid-run (web sessions) is followed like the
        ones :func:`instrument_flows` found, when it found any at all."""
        if self.follows_flows:
            instrument_flow(self, flow)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Subscribe to *sim*, where flows spawned mid-run announce
        themselves, and start the gauge sampler on its clock
        (idempotent)."""
        subscribe(sim, self)
        if self.sampler is None and self.sample_interval > 0:
            self.sampler = Sampler(sim, self.registry, self.sample_interval)
            self.sampler.start()

    def arm(self, built: Any) -> None:
        """The arming sequence for one :class:`repro.build.BuiltScenario`:
        sampler, bottleneck queue and link, and every flow of the run —
        those spawned so far here, the rest as they are spawned."""
        self.attach(built.sim)
        instrument_queue(self, built.queue)
        instrument_link(self, built.topology.forward, name="bottleneck")
        instrument_flows(self, built.all_flows())

    def add_finalizer(self, fn: Callable[[], None]) -> None:
        """Register *fn* to run at finalize time (used by the
        ``instrument_*`` helpers to import component-kept totals)."""
        self._finalizers.append(fn)

    def finalize(
        self,
        sim: Optional["Simulator"] = None,
        *,
        run_id: str = "run",
        seed: int = 0,
        topology: Optional[Dict[str, Any]] = None,
        qdisc: Optional[Dict[str, Any]] = None,
        scenario: Optional[Dict[str, Any]] = None,
        backend: Optional[Dict[str, Any]] = None,
        duration: float = 0.0,
    ) -> RunManifest:
        """Import final counters, build the manifest, write the bundle.

        Safe to call without an ``out_dir`` (everything stays
        in-memory); returns the manifest either way.  ``backend``
        defaults from the scenario document (canonical documents carry
        a ``backend`` key only when it is not the packet default).
        """
        if self.sampler is not None:
            self.sampler.stop()
        for fn in self._finalizers:
            fn()
        self._finalizers.clear()
        if sim is not None:
            self.registry.set_counter("sim.events_processed", sim.processed)
            duration = duration or sim.now
            seed = seed if seed else sim.rng.seed
        if backend is None and scenario:
            backend = scenario.get("backend")
        self.manifest = build_manifest(
            run_id,
            seed,
            topology=topology,
            qdisc=qdisc,
            scenario=scenario,
            backend=backend,
            duration=duration,
            wall_time_s=_time.perf_counter() - self._wall_start,
            event_count=sim.processed if sim is not None else 0,
            trace_events=len(self.trace),
            sample_interval=self.sample_interval if self.sampler is not None else 0.0,
        )
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            self.manifest.write(os.path.join(self.out_dir, MANIFEST_NAME))
            self.registry.write_jsonl(os.path.join(self.out_dir, METRICS_NAME))
            with open(
                os.path.join(self.out_dir, EVENTS_NAME), "w", encoding="utf-8"
            ) as handle:
                save_events(self.trace.events, handle)
            if self.spans is not None:
                from repro.obs.spans import save_spans

                with open(
                    os.path.join(self.out_dir, SPANS_NAME), "w", encoding="utf-8"
                ) as handle:
                    save_spans(self.spans.spans, handle)
        return self.manifest

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Deterministic roll-up of metrics and trace (no wall times) —
        the payload that flows back through ``repro.parallel`` and that
        CI diffs across jobs=1 / jobs=N runs."""
        out = {"metrics": self.registry.summary()}
        out["trace"] = summarize_events(self.trace.events)
        out["trace"]["truncated"] = self.trace.truncated
        if self.spans is not None:
            out["spans"] = self.spans.summary()
        return out


# ----------------------------------------------------------------------
# Instrumentation helpers: subscribe a Telemetry to one component each.
# ----------------------------------------------------------------------
def instrument_link(telemetry: Telemetry, link: "Link", name: str = "link") -> None:
    """Gauges for queue depth and in-flight packets, plus final link
    counters (arrivals, deliveries, drops, bytes, delay percentiles)."""
    registry = telemetry.registry
    registry.gauge(f"{name}.queue_depth", lambda: float(len(link.queue)))
    registry.gauge(
        f"{name}.in_flight",
        lambda: float(link.stats.arrived - link.stats.dropped - link.stats.delivered),
    )

    def import_totals() -> None:
        stats = link.stats
        registry.set_counter(f"{name}.arrived", stats.arrived)
        registry.set_counter(f"{name}.delivered", stats.delivered)
        registry.set_counter(f"{name}.dropped", stats.dropped)
        registry.set_counter(f"{name}.bytes_delivered", stats.bytes_delivered)
        delay = registry.histogram(f"{name}.queue_delay_s")
        for sample in stats.delay_samples():
            delay.observe(sample)

    telemetry.add_finalizer(import_totals)


def instrument_queue(
    telemetry: Telemetry, queue: "QueueDiscipline", name: str = "queue"
) -> None:
    """Drop events + occupancy gauge on any discipline; TAQ internals
    (tracker table, per-class occupancy, admission) when available."""
    registry = telemetry.registry
    registry.gauge(f"{name}.depth", lambda: float(len(queue)))
    subscribe(queue, telemetry)

    def import_totals() -> None:
        registry.set_counter(f"{name}.enqueued", queue.enqueued)
        registry.set_counter(f"{name}.dropped", queue.dropped)

    telemetry.add_finalizer(import_totals)

    # TAQ internals, duck-typed so repro.obs does not import repro.core.
    tracker = getattr(queue, "tracker", None)
    scheduler = getattr(queue, "scheduler", None)
    if tracker is not None:
        subscribe(tracker, telemetry)
        registry.gauge("taq.tracked_flows", lambda: float(len(tracker.flows)))
    if scheduler is not None:
        for klass in scheduler.stats:
            registry.gauge(
                f"taq.occupancy.{klass.value}",
                (lambda k: lambda: float(scheduler.occupancy(k)))(klass),
            )

        def import_class_totals() -> None:
            for klass, stats in scheduler.stats.items():
                registry.set_counter(f"taq.enqueued.{klass.value}", stats.enqueued)
                registry.set_counter(f"taq.dropped.{klass.value}", stats.dropped)
                registry.set_counter(f"taq.served.{klass.value}", stats.served)

        telemetry.add_finalizer(import_class_totals)
    admission = getattr(queue, "admission", None)
    if admission is not None:
        registry.gauge("taq.admitted_pools", lambda: float(len(admission.admitted)))
        registry.gauge("taq.waiting_pools", lambda: float(len(admission.waiting)))

        def import_admission_totals() -> None:
            registry.set_counter("taq.refused_syns", queue.admission_refusals)
            registry.set_counter("taq.force_admitted", admission.force_admitted)

        telemetry.add_finalizer(import_admission_totals)


def instrument_flow(
    telemetry: Telemetry, flow: "TcpFlow", cwnd_gauge: bool = False
) -> None:
    """Sender events (RTOs, retransmits) and optionally a per-flow cwnd
    gauge (opt-in: hundreds of per-flow series drown a sweep bundle)."""
    subscribe(flow.sender, telemetry)
    if cwnd_gauge:
        sender = flow.sender
        telemetry.registry.gauge(
            f"tcp.cwnd.{flow.flow_id}", lambda: float(sender.cwnd)
        )
    flow.on_complete(
        lambda f, now: telemetry.emit(
            "flow_done", now, flow_id=f.flow_id, segments=f.size_segments or -1
        )
    )


def instrument_flows(telemetry: Telemetry, flows) -> None:
    """Instrument every flow, with cwnd gauges for the first
    :data:`CWND_FLOWS`, and have *telemetry* follow the flows spawned
    after this call (once it is attached to their simulator)."""
    for index, flow in enumerate(flows):
        instrument_flow(telemetry, flow, cwnd_gauge=index < CWND_FLOWS)
    telemetry.follows_flows = True
