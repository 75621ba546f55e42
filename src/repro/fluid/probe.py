"""Telemetry probes for the fluid integrator — parity with the packet plane.

The packet backend has had drop events, gauges and event traces
since PR 2; the fluid integrator ran dark.  This module closes the gap
through the same seam (:mod:`repro.sim.observe`): :class:`FluidModel`
carries an ``obs`` slot that defaults to ``None`` (an unarmed run
executes the exact pre-instrumentation step), and a subscribed
:class:`FluidProbe` only *reads* the step's state, so armed and unarmed
integrations stay bit-identical (asserted per-case by ``taq-check
fuzz`` and by the full N∈{4,16,64} grid in
``tests/fluid/test_probe.py``).

What an armed run records, into the same
:class:`~repro.obs.metrics.MetricsRegistry` / bundle machinery as the
packet backend:

- per-step series: ``fluid.queue_pkts`` (queue occupancy), and per
  class ``fluid.drop_pps.<class>`` (instantaneous drop rate) and
  ``fluid.mass.<class>`` (histogram mass — flat at the flow count
  unless something leaks, which is exactly why it is worth plotting);
- counters: ``fluid.steps``, ``fluid.validity_clips`` (steps whose
  drop probability exceeded the chain clip ``P_CHAIN_MAX``);
- trace events: edge-triggered ``fluid_clip`` events when the run
  enters a clipped region (bounded by ``max_clip_events``);
- finalize-time totals via :func:`instrument_fluid`: offered /
  dropped / delivered packets, timeouts, admission fixed-point
  iterations, and the :mod:`repro.fluid.stability` verdict as
  ``fluid.stability.*`` metrics.

``sample_stride`` thins the per-step series (a 20 s run at dt=6.25 ms
is 3200 steps); stride 1 records everything, the
:func:`instrument_fluid` default derives the stride from the
telemetry's ``sample_interval`` the way the packet sampler does.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.sim.observe import Observer, subscribe

__all__ = ["FluidProbe", "instrument_fluid", "fluid_results_differ"]


class FluidProbe(Observer):
    """Step observer for a :class:`~repro.fluid.core.FluidModel`.

    Strictly read-only: ``step`` receives the model and the step's
    drop/rate arrays and records copies of scalars — never a view it
    could mutate, never a write back into the model.
    """

    def __init__(
        self,
        registry,
        sample_stride: int = 1,
        trace=None,
        max_clip_events: int = 32,
    ) -> None:
        if sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        self.registry = registry
        self.sample_stride = int(sample_stride)
        self.trace = trace
        self.max_clip_events = int(max_clip_events)
        self._steps = registry.counter("fluid.steps")
        self._clips = registry.counter("fluid.validity_clips")
        self._queue = registry.time_series("fluid.queue_pkts")
        self._drop_series = None
        self._mass_series = None
        self._in_clip = False
        self._clip_events = 0

    def _bind_classes(self, model) -> None:
        self._drop_series = [
            self.registry.time_series(f"fluid.drop_pps.{cls.name}")
            for cls in model.classes
        ]
        self._mass_series = [
            self.registry.time_series(f"fluid.mass.{cls.name}")
            for cls in model.classes
        ]

    def step(self, model, p_queue: np.ndarray, rate: np.ndarray,
             clipped: bool) -> None:
        """Record one integrator step (called after the state advanced)."""
        self._steps.inc()
        if clipped:
            self._clips.inc()
            if not self._in_clip and self._clip_events < self.max_clip_events:
                self._clip_events += 1
                if self.trace is not None:
                    self.trace.emit(
                        "fluid_clip", model.time,
                        queue_pkts=float(model.q),
                        worst_p=float(p_queue.max()),
                    )
        self._in_clip = clipped
        if model.steps % self.sample_stride:
            return
        now = model.time
        self._queue.append(now, float(model.q))
        if self._drop_series is None:
            self._bind_classes(model)
        drops = (p_queue * rate).sum(axis=1)
        mass = model.h.sum(axis=1)
        for c in range(len(model.classes)):
            self._drop_series[c].append(now, float(drops[c]))
            self._mass_series[c].append(now, float(mass[c]))


def instrument_fluid(telemetry, built_or_model) -> FluidProbe:
    """Arm a fluid run on a :class:`~repro.obs.telemetry.Telemetry` —
    the fluid counterpart of ``instrument_queue``/``instrument_link``.

    Accepts either a :class:`~repro.fluid.backend.BuiltFluid` or a bare
    :class:`~repro.fluid.core.FluidModel`.  The probe's sample stride
    approximates the telemetry's ``sample_interval`` on the integrator
    clock (stride = interval / dt, at least 1, so ``sample_interval=0``
    still records every step rather than nothing — the probe itself is
    the opt-in).  Registers a finalizer importing the run's totals and
    the stability verdict.
    """
    model = getattr(built_or_model, "model", built_or_model)
    interval = float(getattr(telemetry, "sample_interval", 0.0) or 0.0)
    stride = max(1, int(round(interval / model.dt))) if interval > 0 else 1
    probe = FluidProbe(
        telemetry.registry, sample_stride=stride, trace=telemetry.trace
    )
    subscribe(model, probe)
    registry = telemetry.registry

    def import_totals() -> None:
        registry.set_counter("fluid.offered_pkts",
                             int(round(model._offered_pkts)))
        registry.set_counter("fluid.dropped_pkts",
                             int(round(model._dropped_pkts)))
        registry.set_counter("fluid.delivered_pkts",
                             int(round(float(model._delivered.sum()))))
        registry.set_counter("fluid.timeouts", int(round(model._timeouts)))
        registry.set_counter("fluid.valid", int(model.valid))
        iterations = getattr(built_or_model, "admission_iterations", 0)
        if iterations:
            registry.set_counter("fluid.admission_iterations", iterations)
        queue = registry.series.get("fluid.queue_pkts")
        if queue is not None and queue.samples:
            from repro.fluid.stability import detect_limit_cycle

            report = detect_limit_cycle(
                [t for t, _ in queue.samples],
                [v for _, v in queue.samples],
            )
            registry.set_counter("fluid.stability.limit_cycle",
                                 int(report.oscillating))
            stats = registry.time_series("fluid.stability.amplitude_pkts")
            stats.append(model.time, report.amplitude)
            period = registry.time_series("fluid.stability.period_s")
            period.append(model.time, report.period)

    telemetry.add_finalizer(import_totals)
    return probe


def fluid_results_differ(a, b) -> List[str]:
    """Field-by-field bit-equality check of two
    :class:`~repro.fluid.core.FluidResult` objects; the returned list
    names every differing field (empty = identical).

    Exact ``==`` on floats and :func:`numpy.array_equal` on the final
    histogram — this is the armed-vs-unarmed parity oracle, where
    "close" is not good enough.
    """
    differing: List[str] = []
    scalar_fields = (
        "duration", "dt", "steps", "wmax", "capacity_pps", "buffer_pkts",
        "loss_rate", "offered_pkts", "dropped_pkts", "delivered_pkts",
        "mean_queue_pkts", "utilization", "short_term_jain",
        "long_term_jain", "timeouts", "valid", "parked_flows",
    )
    for name in scalar_fields:
        if getattr(a, name) != getattr(b, name):
            differing.append(name)
    if a.queue_percentiles != b.queue_percentiles:
        differing.append("queue_percentiles")
    if a.per_class_goodput_pps != b.per_class_goodput_pps:
        differing.append("per_class_goodput_pps")
    if not np.array_equal(a.final_histogram, b.final_histogram):
        differing.append("final_histogram")
    return differing
