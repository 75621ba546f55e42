"""``ScenarioSpec`` -> fluid run: the "fluid" entry of the backend registry.

The registration itself sits in :mod:`repro.build.builtin_backends`,
which imports this module when a fluid document is built — so packet
runs never load numpy or :mod:`repro.model`.

:func:`build_fluid` is the fluid counterpart of the packet assembly in
:func:`repro.build.harness.build_simulation`: it maps the declarative
spec onto :class:`repro.fluid.core.FluidModel` — bulk workloads become
:class:`FluidClass` populations, the queue spec selects a drop model
from :data:`repro.fluid.disciplines.FLUID_DISCIPLINES`, and TAQ
admission control becomes a mean-field fixed-point search over the
admitted population before the integrator ever runs.

The fluid model is an *approximation with a declared domain*: one
dumbbell bottleneck, long-running bulk flows, the disciplines it has
drop laws for.  Anything outside that domain is a :class:`SpecError`
at build time — never a silently wrong number.  Parameters the fluid
abstraction cannot represent but that do not change what is being
modelled (start-time jitter, RNG stream names, TAQ estimator knobs)
are accepted and recorded in the result's extras as ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.build.errors import SpecError
from repro.fluid.core import FluidClass, FluidModel, FluidResult
from repro.fluid.disciplines import FLUID_DISCIPLINES
from repro.model.population import P_CHAIN_MAX, population_fixed_point
from repro.net.topology import rtt_buffer_pkts

#: Bulk-workload parameters that only shape the packet backend's
#: start-time jitter and RNG layout — harmless to the mean-field view.
_IGNORED_BULK_PARAMS = frozenset(
    {"start_window", "first_flow_id", "rng_name"}
)

#: Queue parameters each supported kind forwards to its drop model (or
#: to the admission search); everything else the packet queue accepts
#: is estimator machinery the fluid abstraction integrates out.
_QUEUE_PARAM_MAP = {
    "droptail": frozenset(),
    "red": frozenset({"min_th", "max_th", "max_p", "weight"}),
    "taq": frozenset({"target_occupancy"}),
    "taq+ac": frozenset({"target_occupancy", "p_thresh", "safety_margin"}),
}


def _bulk_classes(
    spec, rtt_buckets: int
) -> Tuple[List[FluidClass], Dict[str, Any]]:
    """Flow classes from the spec's workloads (bulk only), plus notes.

    Packet-backend bulk flows draw access RTTs from ``U(0,
    extra_rtt_max)``; collapsing that spread to its mean would report
    fairness the real population does not have (throughput is roughly
    inversely proportional to RTT).  Each workload therefore becomes
    ``rtt_buckets`` equal-mass sub-classes at the uniform quantile
    midpoints — enough heterogeneity to carry the RTT-unfairness
    signal, at a per-step cost linear in the bucket count.
    """
    classes: List[FluidClass] = []
    ignored: Dict[str, Any] = {}
    for index, workload in enumerate(spec.workloads):
        context = f"workloads[{index}]"
        if workload.kind != "bulk":
            raise SpecError(
                f"fluid backend models long-running bulk flows only; "
                f"{context} has type {workload.kind!r} (use the packet "
                f"backend for session/short-flow workloads)"
            )
        params = dict(workload.params)
        n_flows = params.pop("n_flows", None)
        if n_flows is None:
            raise SpecError(f"missing 'n_flows' in {context}")
        if params.pop("size_segments", None) is not None:
            raise SpecError(
                f"fluid backend cannot model finite transfers; "
                f"{context} sets 'size_segments' (bulk flows must be "
                f"unbounded)"
            )
        extra_override = params.pop("extra_rtt_override", None)
        extra_max = params.pop("extra_rtt_max", 0.1)
        for key in list(params):
            if key in _IGNORED_BULK_PARAMS:
                ignored[f"{context}.{key}"] = params.pop(key)
        if params:
            unknown = ", ".join(sorted(params))
            raise SpecError(
                f"fluid backend cannot model bulk parameter(s) "
                f"{unknown} in {context}"
            )
        if extra_override is not None or extra_max <= 0.0:
            extras = [float(extra_override or 0.0)]
        else:
            extras = [
                (i + 0.5) / rtt_buckets * float(extra_max)
                for i in range(rtt_buckets)
            ]
        for i, extra in enumerate(extras):
            classes.append(
                FluidClass(
                    name=f"bulk{index}" if len(extras) == 1 else f"bulk{index}.r{i}",
                    n_flows=float(n_flows) / len(extras),
                    rtt=spec.topology.rtt + extra,
                )
            )
    return classes, ignored


def _admission_scale(
    classes: List[FluidClass],
    capacity_pps: float,
    wmax: int,
    p_thresh: float,
    safety_margin: float,
) -> Tuple[float, int]:
    """Largest admitted fraction keeping the fixed-point loss in budget,
    plus how many fixed-point evaluations the search spent.

    The §4.3 controller admits flows while the measured loss stays
    under ``p_thresh`` (scaled by ``safety_margin``); its mean-field
    analogue is a bisection over the admitted fraction ``alpha`` of the
    offered population, using :func:`population_fixed_point` with the
    flow-weighted mean RTT as the common epoch.  The evaluation count
    flows into telemetry (``fluid.admission_iterations``) so the cost
    of the admission search is observable per run.
    """
    total = sum(c.n_flows for c in classes)
    if total <= 0:
        return 1.0, 0
    rtt = sum(c.n_flows * c.rtt for c in classes) / total
    budget = p_thresh * safety_margin
    evals = 0

    def loss_at(alpha: float) -> float:
        nonlocal evals
        evals += 1
        admitted = max(1.0, alpha * total)
        eq = population_fixed_point(
            int(round(admitted)), capacity_pps, rtt, wmax=wmax
        )
        return eq.p

    if loss_at(1.0) <= budget:
        return 1.0, evals
    lo, hi = 0.0, 1.0  # loss_at is monotone increasing in alpha
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if loss_at(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo, evals


@dataclass
class BuiltFluid:
    """A fully configured fluid run — the fluid peer of
    :class:`repro.build.harness.BuiltScenario`."""

    spec: Any
    model: FluidModel
    #: Spec parameters accepted but not representable in the fluid
    #: abstraction (recorded so results are honest about what ran).
    ignored_params: Dict[str, Any] = field(default_factory=dict)
    result: Optional[FluidResult] = None
    #: Fixed-point evaluations the taq+ac admission bisection spent
    #: (0 for disciplines without admission control).
    admission_iterations: int = 0
    #: Admitted fraction the search settled on (1.0 = everyone in).
    admission_alpha: float = 1.0

    @property
    def backend(self) -> str:
        return "fluid"

    @property
    def violations(self):
        return self.model.violations

    def run(self, until: Optional[float] = None) -> FluidResult:
        """Integrate to *until* (default: the spec duration)."""
        if self.result is None:
            duration = self.spec.duration if until is None else until
            self.result = self.model.run(duration)
        return self.result

    def scenario_outcome(self):
        """The run reduced to the standard scenario metric set."""
        from repro.experiments.scenario import ScenarioOutcome

        result = self.run()
        extras: Dict[str, Any] = {
            "backend": "fluid",
            "mean_queue_pkts": result.mean_queue_pkts,
            "queue_p99_pkts": result.queue_percentiles["p99"],
            "fluid_valid": result.valid,
        }
        if result.parked_flows > 0:
            extras["admission_refusals"] = int(round(result.parked_flows))
        if self.ignored_params:
            extras["ignored_params"] = dict(self.ignored_params)
        return ScenarioOutcome(
            name=self.spec.name,
            duration=result.duration,
            short_term_jain=result.short_term_jain,
            long_term_jain=result.long_term_jain,
            utilization=result.utilization,
            loss_rate=result.loss_rate,
            timeouts=int(round(result.timeouts)),
            completed_transfers=0,
            total_transfers=0,
            extras=extras,
        )


def build_fluid(
    spec,
    dt: Optional[float] = None,
    wmax: Optional[int] = None,
    rtt_buckets: int = 4,
    fault_leak: float = 0.0,
) -> BuiltFluid:
    """Construct a :class:`BuiltFluid` from a :class:`ScenarioSpec`.

    ``dt`` and ``wmax`` default adaptively: the step to an eighth of
    the smallest class RTT, the window ceiling to twice the largest
    full-queue fair share (clamped to ``[6, 64]`` — the chain needs
    fast retransmit to exist, and 64 matches the sender's initial
    ssthresh).
    """
    if spec.topology.kind != "dumbbell":
        raise SpecError(
            f"fluid backend models a single dumbbell bottleneck; "
            f"topology type {spec.topology.kind!r} needs the packet backend"
        )
    kind = spec.queue.kind
    if kind not in FLUID_DISCIPLINES or kind == "pinned":
        supported = ", ".join(sorted(k for k in FLUID_DISCIPLINES if k != "pinned"))
        raise SpecError(
            f"fluid backend has no drop model for queue kind {kind!r} "
            f"(supported: {supported})"
        )
    if rtt_buckets < 1:
        raise SpecError(f"'rtt_buckets' must be >= 1, got {rtt_buckets!r}")
    classes, ignored = _bulk_classes(spec, rtt_buckets)

    capacity_pps = spec.topology.capacity_bps / (8.0 * spec.topology.pkt_size)
    buffer_pkts = rtt_buffer_pkts(
        spec.topology.capacity_bps,
        spec.topology.rtt,
        spec.topology.pkt_size,
        spec.queue.buffer_rtts,
    )
    total_flows = sum(c.n_flows for c in classes)
    if total_flows <= 0:
        raise SpecError("fluid backend needs at least one flow")
    if wmax is None:
        r_full = max(c.rtt for c in classes) + buffer_pkts / capacity_pps
        fair = capacity_pps * r_full / total_flows
        wmax = int(min(64, max(6, math.ceil(2.0 * fair))))

    supported_params = _QUEUE_PARAM_MAP[kind]
    queue_params = {}
    for key, value in spec.queue.params.items():
        if key in supported_params:
            queue_params[key] = value
        else:
            ignored[f"queue.{key}"] = value

    admission_alpha = 1.0
    admission_iterations = 0
    if kind == "taq+ac":
        p_thresh = float(queue_params.pop("p_thresh", 0.1))
        safety_margin = float(queue_params.pop("safety_margin", 0.9))
        if not 0.0 < p_thresh < P_CHAIN_MAX:
            raise SpecError(
                f"'p_thresh' must be in (0, {P_CHAIN_MAX}), got {p_thresh!r}"
            )
        alpha, admission_iterations = _admission_scale(
            classes, capacity_pps, wmax, p_thresh, safety_margin
        )
        admission_alpha = alpha
        classes = [
            FluidClass(
                name=c.name,
                n_flows=alpha * c.n_flows,
                rtt=c.rtt,
                parked=(1.0 - alpha) * c.n_flows,
            )
            for c in classes
        ]
    discipline = FLUID_DISCIPLINES[kind](**queue_params)

    model = FluidModel(
        classes,
        capacity_pps,
        buffer_pkts,
        discipline,
        wmax=wmax,
        dt=dt,
        slice_seconds=spec.metrics.slice_seconds,
        fault_leak=fault_leak,
    )
    return BuiltFluid(
        spec=spec,
        model=model,
        ignored_params=ignored,
        admission_iterations=admission_iterations,
        admission_alpha=admission_alpha,
    )
