"""RED stability diagnostics: limit-cycle detection + Reynier's condition.

The McDonald–Reynier mean-field model does not always settle to a
fixed point: RED's averaged-queue feedback loop can sustain a *limit
cycle* — the queue (and with it drop rate and RTT) oscillates forever
with finite amplitude.  Reynier's companion work ("A simple stability
condition for RED using TCP mean field modeling", PAPERS.md) gives the
analytic side: linearize the TCP/RED loop around its equilibrium and
ask whether the closed loop's poles sit in the left half plane.

This module provides both views and cross-checks them:

- :func:`detect_limit_cycle` — the *empirical* detector over a queue
  trajectory (the ``fluid.queue_pkts`` series an armed
  :class:`~repro.fluid.probe.FluidProbe` records): after discarding a
  settling prefix, a run oscillates when the tail shows at least
  ``min_cycles`` mean crossings whose amplitude neither decays away
  nor is negligible against the mean level.
- :func:`reynier_condition` — the *analytic* verdict for a configured
  ``(w_q, max_p, min_th, max_th, capacity, N, rtt)``.  The
  linearization is the Hollot/Misra-style small-signal model adapted
  to this repo's fluid RED law: window pole ``a1 = 2N/(R²C)``, queue
  pole ``a2 = 1/R``, EWMA pole ``alpha = -ln(1-w_q)·C`` (the
  per-arrival average applied at line rate), ramp slope ``rho``
  including the ``2p/(1+p)`` inter-drop correction our discipline
  applies, and a Padé(1,1) rational approximation of the one-RTT
  feedback delay.  The characteristic polynomial

      (s+a1)(s+a2)(s+alpha)(1+sR/2) + K(1-sR/2) = 0,
      K = rho·alpha·C²/(2N)

  is quartic; the loop is stable iff every root has negative real
  part, and ``margin`` (= -max real part) says how decisively.
- :func:`analyze_bundle` / :func:`analyze_spec` — the two entry points
  ``taq-obs stability`` uses: a recorded telemetry bundle (manifest
  parameters + recorded trajectory) or a scenario document (the fluid
  run is cheap enough to just perform, probe armed).

Both views are approximations — the verdict reports them side by side
and lets the empirical trajectory win when they disagree, with the
disagreement noted.  ``tests/fluid/test_stability.py`` pins one
oscillatory and one stable parameterization on which the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "OscillationReport",
    "ReynierCondition",
    "StabilityReport",
    "detect_limit_cycle",
    "reynier_condition",
    "analyze_bundle",
    "analyze_spec",
    "render_stability",
]


# ----------------------------------------------------------------------
# Empirical side: the trajectory detector
# ----------------------------------------------------------------------

@dataclass
class OscillationReport:
    """What the tail of a queue trajectory is doing."""

    #: True when the tail sustains a finite-amplitude oscillation.
    oscillating: bool
    #: Half peak-to-peak amplitude over the analysis tail, in the
    #: trajectory's units (packets for ``fluid.queue_pkts``).
    amplitude: float
    #: Amplitude relative to the tail mean (0 when the mean is 0).
    rel_amplitude: float
    #: Estimated oscillation period, seconds (0 when not oscillating).
    period: float
    #: Full mean-crossing cycles observed in the tail.
    cycles: float
    #: Tail mean level.
    mean: float
    #: Amplitude of the tail's second half over its first half —
    #: near 1 for a sustained cycle, near 0 for a damped transient.
    decay_ratio: float


def detect_limit_cycle(
    times: Sequence[float],
    values: Sequence[float],
    *,
    settle_frac: float = 0.5,
    min_cycles: float = 3.0,
    rel_amp_threshold: float = 0.1,
    abs_amp_threshold: float = 1.0,
    decay_threshold: float = 0.6,
) -> OscillationReport:
    """Classify a trajectory's tail as sustained oscillation or not.

    The first ``settle_frac`` of the run is discarded as transient.
    The tail oscillates when (a) it crosses its own mean often enough
    for ``min_cycles`` full cycles, (b) the half peak-to-peak amplitude
    clears both the absolute and the mean-relative floor, and (c) the
    amplitude does not decay across the tail (``decay_ratio`` above
    ``decay_threshold``) — a damped spiral into a fixed point fails (c)
    even when its early tail still swings.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size != v.size:
        raise ValueError("times and values must have equal length")
    flat = OscillationReport(False, 0.0, 0.0, 0.0, 0.0,
                             float(v.mean()) if v.size else 0.0, 0.0)
    if v.size < 8:
        return flat
    start = int(v.size * settle_frac)
    tail_t, tail_v = t[start:], v[start:]
    if tail_v.size < 8:
        return flat
    mean = float(tail_v.mean())
    amplitude = float(tail_v.max() - tail_v.min()) / 2.0
    rel_amplitude = amplitude / mean if mean > 0 else 0.0
    centered = tail_v - mean
    signs = np.sign(centered)
    signs[signs == 0] = 1.0
    crossings = int(np.count_nonzero(np.diff(signs)))
    cycles = crossings / 2.0
    duration = float(tail_t[-1] - tail_t[0])
    period = duration / cycles if cycles > 0 else 0.0
    half = tail_v.size // 2
    first = float(tail_v[:half].max() - tail_v[:half].min())
    second = float(tail_v[half:].max() - tail_v[half:].min())
    decay_ratio = second / first if first > 0 else 0.0
    oscillating = (
        cycles >= min_cycles
        and amplitude >= abs_amp_threshold
        and rel_amplitude >= rel_amp_threshold
        and decay_ratio >= decay_threshold
    )
    return OscillationReport(
        oscillating=oscillating,
        amplitude=amplitude,
        rel_amplitude=rel_amplitude,
        period=period if oscillating else 0.0,
        cycles=cycles,
        mean=mean,
        decay_ratio=decay_ratio,
    )


# ----------------------------------------------------------------------
# Analytic side: Reynier's condition on the linearized loop
# ----------------------------------------------------------------------

@dataclass
class ReynierCondition:
    """The linearized TCP/RED loop's verdict for one parameterization."""

    #: True when every closed-loop pole has negative real part.
    stable: bool
    #: Largest real part over the poles; negative = stable.
    dominant_real: float
    #: Stability margin, ``-dominant_real`` (positive = stable).
    margin: float
    #: Loop gain ``K = rho * alpha * C^2 / (2N)``.
    gain: float
    #: EWMA pole, 1/s (``-ln(1-w_q) * C``).
    alpha: float
    #: Effective ramp slope dp/davg at the operating point, 1/packet.
    rho: float
    #: Window pole ``2N/(R^2 C)``, 1/s.
    a1: float
    #: Queue pole ``1/R``, 1/s.
    a2: float
    #: Equilibrium round-trip time, seconds.
    rtt: float
    #: Equilibrium queue level, packets.
    q0: float
    #: Equilibrium drop probability.
    p0: float
    #: Anything the equilibrium search had to assume or clamp.
    notes: List[str] = field(default_factory=list)


def reynier_condition(
    *,
    w_q: float,
    max_p: float,
    min_th: float,
    max_th: float,
    capacity_pps: float,
    n_flows: float,
    rtt: float,
) -> ReynierCondition:
    """Evaluate the linearized stability condition.

    ``rtt`` is the propagation (no-queue) round trip; the equilibrium
    search adds the queueing delay.  All quantities in packets and
    seconds, matching the fluid integrator's units.
    """
    if not 0.0 < w_q < 1.0:
        raise ValueError("w_q must be in (0, 1)")
    if not 0.0 < max_p <= 1.0:
        raise ValueError("max_p must be in (0, 1]")
    if max_th <= min_th:
        raise ValueError("max_th must exceed min_th")
    if capacity_pps <= 0 or n_flows <= 0 or rtt <= 0:
        raise ValueError("capacity_pps, n_flows and rtt must be positive")

    notes: List[str] = []
    C = float(capacity_pps)
    N = float(n_flows)
    ramp = max_p / (max_th - min_th)

    # Equilibrium: full utilization pins the per-flow window at
    # W0 = C R0 / N; the TCP square-root law gives the loss that
    # sustains it (p0 = 2/W0^2); inverting our RED law's inter-drop
    # correction (p = 2 p_b / (1 + p_b)) locates the averaged queue on
    # the ramp.  Iterate because R0 depends on q0.
    q0 = 0.5 * (min_th + max_th)
    p0 = pb0 = 0.0
    for _ in range(100):
        R0 = rtt + q0 / C
        W0 = max(C * R0 / N, 1.05)
        p0 = min(2.0 / (W0 * W0), 0.95)
        pb0 = p0 / (2.0 - p0)
        q_new = min_th + pb0 / ramp
        if abs(q_new - q0) < 1e-9:
            q0 = q_new
            break
        q0 = q_new
    if q0 < min_th:
        notes.append(
            "equilibrium sits below min_th (no early-drop feedback); "
            "clamped to the ramp foot"
        )
        q0 = min_th
    if q0 > max_th:
        notes.append(
            "equilibrium sits above max_th (forced-drop regime); "
            "clamped to the ramp ceiling"
        )
        q0 = max_th
    R0 = rtt + q0 / C

    # Small-signal pieces around (q0, p0).
    alpha = -math.log(1.0 - w_q) * C
    rho = ramp * 2.0 / ((1.0 + pb0) ** 2)  # d(2pb/(1+pb))/d(avg)
    a1 = 2.0 * N / (R0 * R0 * C)
    a2 = 1.0 / R0
    gain = rho * alpha * C * C / (2.0 * N)

    # (s+a1)(s+a2)(s+alpha)(1+sR/2) + K(1-sR/2) = 0, expanded.
    half_delay = R0 / 2.0
    cubic = np.array([1.0, a1 + a2 + alpha,
                      a1 * a2 + alpha * (a1 + a2), a1 * a2 * alpha])
    poly = np.polymul(cubic, np.array([half_delay, 1.0]))
    poly = np.polyadd(poly, np.array([0.0, 0.0, 0.0,
                                      -gain * half_delay, gain]))
    roots = np.roots(poly)
    dominant = float(roots.real.max())
    return ReynierCondition(
        stable=dominant < 0.0,
        dominant_real=dominant,
        margin=-dominant,
        gain=gain,
        alpha=alpha,
        rho=rho,
        a1=a1,
        a2=a2,
        rtt=R0,
        q0=q0,
        p0=p0,
        notes=notes,
    )


# ----------------------------------------------------------------------
# Entry points: bundles and scenario documents
# ----------------------------------------------------------------------

@dataclass
class StabilityReport:
    """Combined verdict ``taq-obs stability`` renders."""

    #: "limit-cycle", "stable", or "inconclusive".
    verdict: str
    oscillation: Optional[OscillationReport] = None
    condition: Optional[ReynierCondition] = None
    #: The RED/topology parameters the analysis used.
    params: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def _combine(
    oscillation: Optional[OscillationReport],
    condition: Optional[ReynierCondition],
    params: Dict[str, Any],
    notes: List[str],
) -> StabilityReport:
    """Empirical evidence wins; the analytic condition breaks ties and
    disagreements get a note rather than silence."""
    if oscillation is not None:
        verdict = "limit-cycle" if oscillation.oscillating else "stable"
        if condition is not None and condition.stable == oscillation.oscillating:
            side = "stable" if condition.stable else "unstable"
            notes = notes + [
                f"analytic condition says {side} but the trajectory "
                f"says {verdict}; trusting the trajectory"
            ]
    elif condition is not None:
        verdict = "stable" if condition.stable else "limit-cycle"
        notes = notes + ["no queue trajectory recorded; verdict is "
                         "analytic only"]
    else:
        verdict = "inconclusive"
    return StabilityReport(
        verdict=verdict,
        oscillation=oscillation,
        condition=condition,
        params=params,
        notes=notes,
    )


def _red_params(
    qdisc: Dict[str, Any],
    topology: Dict[str, Any],
    n_flows: float,
) -> Optional[Dict[str, Any]]:
    """RED loop parameters from manifest/scenario dicts, defaults
    filled the way :func:`repro.fluid.disciplines.red` fills them;
    None when the queue is not RED (no analytic condition applies)."""
    if qdisc.get("kind") != "red":
        return None
    capacity_bps = float(topology.get("capacity_bps", 0.0))
    pkt_size = float(topology.get("pkt_size", 1000))
    rtt = float(topology.get("rtt", 0.1))
    if capacity_bps <= 0 or n_flows <= 0:
        return None
    capacity_pps = capacity_bps / (8.0 * pkt_size)
    from repro.net.topology import rtt_buffer_pkts

    buffer_pkts = rtt_buffer_pkts(
        capacity_bps, rtt, int(pkt_size), float(qdisc.get("buffer_rtts", 1.0))
    )
    min_th = float(qdisc.get("min_th") or max(1.0, buffer_pkts / 4.0))
    max_th = float(qdisc.get("max_th") or min(buffer_pkts, 3.0 * min_th))
    return {
        "w_q": float(qdisc.get("weight", 0.002)),
        "max_p": float(qdisc.get("max_p", 0.1)),
        "min_th": min_th,
        "max_th": max_th,
        "capacity_pps": capacity_pps,
        "n_flows": float(n_flows),
        "rtt": rtt,
        "buffer_pkts": buffer_pkts,
    }


def _spec_n_flows(scenario: Dict[str, Any]) -> float:
    return float(sum(
        workload.get("n_flows", 0) or 0
        for workload in scenario.get("workloads", [])
    ))


def analyze_bundle(bundle_dir: str) -> StabilityReport:
    """Stability verdict for a recorded telemetry bundle.

    Empirical evidence comes from the ``fluid.queue_pkts`` series an
    armed fluid probe recorded; the analytic condition from the
    manifest's queue/topology/scenario parameters when the run was RED.
    Missing pieces degrade gracefully to whatever is available.
    """
    import os

    from repro.obs.manifest import load_manifest
    from repro.obs.metrics import load_metrics_jsonl
    from repro.obs.telemetry import MANIFEST_NAME, METRICS_NAME

    notes: List[str] = []
    oscillation: Optional[OscillationReport] = None
    condition: Optional[ReynierCondition] = None
    params: Dict[str, Any] = {}

    metrics_path = os.path.join(bundle_dir, METRICS_NAME)
    if os.path.isfile(metrics_path):
        doc = load_metrics_jsonl(metrics_path)
        samples = doc.get("series", {}).get("fluid.queue_pkts")
        if samples:
            oscillation = detect_limit_cycle(
                [t for t, _ in samples], [v for _, v in samples]
            )
        else:
            notes.append(
                "bundle has no fluid.queue_pkts series (run the fluid "
                "backend with telemetry armed to record one)"
            )
    manifest_path = os.path.join(bundle_dir, MANIFEST_NAME)
    if os.path.isfile(manifest_path):
        manifest = load_manifest(manifest_path)
        red = _red_params(
            manifest.qdisc, manifest.topology,
            _spec_n_flows(manifest.scenario),
        )
        if red is not None:
            params = red
            condition = reynier_condition(
                w_q=red["w_q"], max_p=red["max_p"], min_th=red["min_th"],
                max_th=red["max_th"], capacity_pps=red["capacity_pps"],
                n_flows=red["n_flows"], rtt=red["rtt"],
            )
        else:
            notes.append(
                f"queue kind {manifest.qdisc.get('kind')!r} has no "
                "analytic RED condition; empirical trajectory only"
            )
    return _combine(oscillation, condition, params, notes)


def analyze_spec(document) -> StabilityReport:
    """Stability verdict for a scenario document (or ScenarioSpec):
    run the fluid backend with a probe armed and analyze the resulting
    trajectory alongside the analytic condition.

    The fluid run is cheap (cost independent of N), so "just run it"
    is the honest way to get the empirical side for a spec that never
    ran — this is what ``taq-obs stability scenario.json`` does.
    """
    from repro.build import ScenarioSpec, build_simulation
    from repro.build.spec import BackendSpec
    from repro.fluid.probe import FluidProbe
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.observe import subscribe

    spec = (
        document
        if isinstance(document, ScenarioSpec)
        else ScenarioSpec.from_document(document)
    )
    if spec.backend.kind != "fluid":
        spec.backend = BackendSpec(kind="fluid")
    built = build_simulation(spec)
    registry = MetricsRegistry()
    subscribe(built.model, FluidProbe(registry))
    built.run()
    queue = registry.series["fluid.queue_pkts"]
    oscillation = detect_limit_cycle(
        [t for t, _ in queue.samples], [v for _, v in queue.samples]
    )
    notes: List[str] = []
    document_dict = spec.canonical()
    red = _red_params(
        document_dict.get("queue", {}),
        document_dict.get("topology", {}),
        _spec_n_flows(document_dict),
    )
    condition = None
    params: Dict[str, Any] = {}
    if red is not None:
        params = red
        condition = reynier_condition(
            w_q=red["w_q"], max_p=red["max_p"], min_th=red["min_th"],
            max_th=red["max_th"], capacity_pps=red["capacity_pps"],
            n_flows=red["n_flows"], rtt=red["rtt"],
        )
    else:
        notes.append(
            f"queue kind {document_dict.get('queue', {}).get('kind')!r} "
            "has no analytic RED condition; empirical trajectory only"
        )
    return _combine(oscillation, condition, params, notes)


def render_stability(report: StabilityReport) -> str:
    """Human-readable rendering for ``taq-obs stability``."""
    lines = [f"stability verdict: {report.verdict}"]
    osc = report.oscillation
    if osc is not None:
        lines.append(
            f"  trajectory: amplitude {osc.amplitude:.2f} pkts "
            f"({osc.rel_amplitude:.1%} of mean {osc.mean:.2f}), "
            f"{osc.cycles:.1f} cycles, decay ratio {osc.decay_ratio:.2f}"
        )
        if osc.oscillating:
            lines.append(f"  oscillation period: {osc.period:.2f} s")
    cond = report.condition
    if cond is not None:
        side = "stable" if cond.stable else "UNSTABLE"
        lines.append(
            f"  Reynier condition: {side} "
            f"(dominant pole {cond.dominant_real:+.3f}/s, "
            f"margin {cond.margin:.3f})"
        )
        lines.append(
            f"    operating point: q0 {cond.q0:.1f} pkts, "
            f"p0 {cond.p0:.4f}, R0 {cond.rtt * 1000:.0f} ms; "
            f"loop gain {cond.gain:.3g}, ewma pole {cond.alpha:.3g}/s"
        )
    if report.params:
        p = report.params
        lines.append(
            f"  RED parameters: w_q {p['w_q']:g}, max_p {p['max_p']:g}, "
            f"thresholds [{p['min_th']:.0f}, {p['max_th']:.0f}] pkts, "
            f"{p['n_flows']:.0f} flows at {p['capacity_pps']:.0f} pkt/s"
        )
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
