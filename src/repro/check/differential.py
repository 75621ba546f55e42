"""Differential and metamorphic oracles over ScenarioSpecs.

Two complementary comparisons, both built on the declarative build
plane so the *same* scenario document drives every arm:

- :func:`compare_disciplines` runs one spec under two queue disciplines
  and asserts the metamorphic relations that must hold regardless of
  the discipline under test: the offered load (flow population, sizes,
  start times) is identical because workloads draw from named RNG
  streams the queue never touches; the sum of per-flow goodput cannot
  exceed what the bottleneck can serialize; and — in the paper's
  small-packet regimes — whatever TAQ drops beyond DropTail's count
  buys short-term fairness at equal utilization.
- :func:`compare_jobs` runs one spec through the parallel engine at two
  ``--jobs`` values and asserts bit-identical outcomes: process fan-out
  is an execution detail, never a result-changing one.
- :func:`compare_backends` runs one spec through the packet event
  simulator and the mean-field fluid integrator and asserts agreement
  on loss rate, mean queue, and Jain fairness within declared
  tolerances (:class:`BackendTolerances`) — the gate that earns the
  fluid backend trust at small N before it is used at N = 10^6.

Failures are collected in a :class:`DifferentialReport` rather than
raised, so the fuzzer can fold them into its shrinking loop like any
other violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.build import ScenarioSpec, build_simulation
from repro.check.suite import attach_monitors


@dataclass
class Relation:
    """One checked metamorphic relation."""

    name: str
    holds: bool
    detail: str

    def to_document(self) -> Dict[str, Any]:
        return {"name": self.name, "holds": self.holds, "detail": self.detail}


@dataclass
class DifferentialReport:
    """The outcome of one differential comparison."""

    scenario: str
    arms: Tuple[str, str]
    relations: List[Relation] = field(default_factory=list)
    #: Invariant violations recorded while running the arms (collect
    #: mode), if monitors were armed.
    violations: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.holds for r in self.relations) and not self.violations

    @property
    def failures(self) -> List[Relation]:
        return [r for r in self.relations if not r.holds]

    def to_document(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "arms": list(self.arms),
            "ok": self.ok,
            "relations": [r.to_document() for r in self.relations],
            "violations": [
                v.to_document() if hasattr(v, "to_document") else repr(v)
                for v in self.violations
            ],
        }

    def check(self, name: str, holds: bool, detail: str) -> None:
        self.relations.append(Relation(name, bool(holds), detail))


def respec_queue(spec: ScenarioSpec, kind: str, **params: Any) -> ScenarioSpec:
    """A copy of *spec* with a clean queue of *kind*.

    Kind-specific parameters never transfer between disciplines (a TAQ
    ablation knob means nothing to RED), so the new queue starts from
    just the shared ``buffer_rtts`` sizing plus whatever *params* the
    caller supplies for the new kind.
    """
    document = spec.to_document()
    document["queue"] = {
        "kind": kind,
        "buffer_rtts": spec.queue.buffer_rtts,
        "reverse_tap": spec.queue.reverse_tap,
        **params,
    }
    return ScenarioSpec.from_document(document)


def offered_load_signature(built) -> List[Tuple]:
    """A deterministic fingerprint of the traffic a built scenario will
    offer: per-flow identity, size, and start time, before any packet
    moves.  Two builds of the same document must produce the same
    signature no matter which discipline guards the bottleneck."""
    signature = []
    for flow in built.all_flows():
        signature.append(
            (
                flow.flow_id,
                getattr(flow, "pool_id", -1),
                getattr(flow, "size_segments", None),
                round(getattr(flow, "start_time", 0.0), 12),
                round(getattr(flow, "extra_rtt", 0.0), 12),
            )
        )
    for user in built.users:
        signature.append(
            ("user", getattr(user, "user_id", None),
             round(getattr(user, "start_time", 0.0), 12),
             tuple(getattr(user, "pending", ()) or ()))
        )
    return sorted(signature, key=repr)


def _goodput_bits(built) -> float:
    """Total delivered DATA bits, summed from the slice collector."""
    collector = built.collector
    return sum(
        sum(collector.slice_goodputs(index)) * collector.slice_seconds
        for index in collector.slice_indices()
    )


def _run_arm(spec: ScenarioSpec, monitors: bool) -> Tuple[Any, Any, List]:
    built = build_simulation(spec)
    signature = offered_load_signature(built)
    suite = attach_monitors(built, mode="collect") if monitors else None
    built.run()
    if suite is not None:
        suite.finalize()
    return built, signature, (suite.violations if suite is not None else [])


def small_packet_regime(spec: ScenarioSpec, k: float = 3.0) -> bool:
    """Whether *spec* operates in the paper's small-packet (or
    sub-packet) regime, judged from its long-running flow count."""
    built_probe = build_simulation(spec)
    n_flows = max(1, len(built_probe.all_flows()))
    topology = built_probe.topology
    if not hasattr(topology, "packets_per_rtt"):
        return False
    return topology.packets_per_rtt(n_flows) < k


#: How far below the baseline's utilization the candidate may sit and
#: still count as equal (the Fig 8 grid's worst point is -0.0035).
UTILIZATION_SLACK = 0.01


def _fairness_and_utilization(spec: ScenarioSpec, built) -> Tuple[float, float]:
    flow_ids = [flow.flow_id for flow in built.all_flows()]
    return (
        built.collector.mean_short_term_jain(flow_ids),
        built.topology.forward.stats.utilization(
            spec.topology.capacity_bps, spec.duration),
    )


def compare_disciplines(
    spec: ScenarioSpec,
    baseline: str = "droptail",
    candidate: str = "taq",
    monitors: bool = True,
    drop_relation: Optional[bool] = None,
) -> DifferentialReport:
    """Run *spec* under two disciplines and check the metamorphic
    relations.

    ``drop_relation`` controls the relation on drop counts: ``None``
    (default) applies it only when the baseline is droptail, the
    candidate is a TAQ variant, and the scenario sits in the
    small-packet regime.  There both arms saturate the link, so drops
    are offered load minus what the link served, and TAQ — whose flows
    spend less time silent in backoff — offers more and drops more
    (docs/invariants.md has the Fig 8 numbers).  What must hold is that
    the extra drops buy something: TAQ either drops no more than
    DropTail, or is at least as fair over short slices without giving
    up utilization.
    """
    base_spec = respec_queue(spec, baseline)
    cand_spec = respec_queue(spec, candidate)
    report = DifferentialReport(scenario=spec.name, arms=(baseline, candidate))

    base_built, base_sig, base_violations = _run_arm(base_spec, monitors)
    cand_built, cand_sig, cand_violations = _run_arm(cand_spec, monitors)
    report.violations.extend(base_violations)
    report.violations.extend(cand_violations)

    report.check(
        "offered-load-identical",
        base_sig == cand_sig,
        f"{len(base_sig)} vs {len(cand_sig)} population entries",
    )

    capacity_budget = spec.topology.capacity_bps * spec.duration
    # One serialization in flight at the horizon is legal slack.
    slack = 8.0 * spec.topology.pkt_size
    for label, built in ((baseline, base_built), (candidate, cand_built)):
        goodput = _goodput_bits(built)
        report.check(
            f"goodput-under-capacity[{label}]",
            goodput <= capacity_budget + slack,
            f"sum per-flow goodput {goodput:.0f}b vs capacity budget "
            f"{capacity_budget:.0f}b over {spec.duration:.0f}s",
        )

    apply_drop_relation = drop_relation
    if apply_drop_relation is None:
        apply_drop_relation = (
            baseline == "droptail"
            and candidate.startswith("taq")
            and small_packet_regime(spec)
        )
    if apply_drop_relation:
        base_drops = base_built.queue.dropped
        cand_drops = cand_built.queue.dropped
        base_jain, base_util = _fairness_and_utilization(spec, base_built)
        cand_jain, cand_util = _fairness_and_utilization(spec, cand_built)
        report.check(
            "taq-extra-drops-buy-fairness",
            cand_drops <= base_drops
            or (cand_jain >= base_jain
                and cand_util >= base_util - UTILIZATION_SLACK),
            f"{baseline} dropped {base_drops}, {candidate} dropped {cand_drops}; "
            f"short-term Jain {base_jain:.3f} -> {cand_jain:.3f}, "
            f"utilization {base_util:.3f} -> {cand_util:.3f}",
        )
    return report


# ----------------------------------------------------------------------
# Backend differential (packet vs fluid)
# ----------------------------------------------------------------------

def respec_backend(spec: ScenarioSpec, kind: str, **params: Any) -> ScenarioSpec:
    """A copy of *spec* running under backend *kind* (clean params)."""
    document = spec.to_document()
    document.pop("backend", None)
    if kind != "packet" or params:
        document["backend"] = {"kind": kind, **params}
    return ScenarioSpec.from_document(document)


@dataclass
class BackendTolerances:
    """Declared fluid-vs-packet agreement bands (see ``docs/fluid.md``).

    A metric agrees when ``|packet - fluid| <= max(abs, rel * max(|packet|,
    |fluid|))``.  The defaults were calibrated on the differential suite
    (DropTail/RED/TAQ at N in {4, 16, 64} straddling SPK): loss rates
    track within a few hundredths; the queue gets the widest band
    because at small N a handful of synchronized sawtooths drain the
    buffer between loss events while the mean-field limit holds it near
    its fixed point; Jain — where a packet run of N flows is a *sample*
    whose variance the mean-field limit integrates out — within a
    quarter.
    """

    loss_abs: float = 0.03
    loss_rel: float = 0.35
    queue_abs: float = 12.0
    queue_rel: float = 0.60
    jain_abs: float = 0.25
    utilization_abs: float = 0.12

    def close(self, metric: str, packet: float, fluid: float) -> bool:
        abs_tol = getattr(self, f"{metric}_abs")
        rel_tol = getattr(self, f"{metric}_rel", 0.0)
        band = max(abs_tol, rel_tol * max(abs(packet), abs(fluid)))
        return abs(packet - fluid) <= band


def packet_mean_queue(built, samples: int = 200) -> float:
    """Arm a side-effect-free queue sampler on a *built* packet scenario.

    Schedules ``samples`` reads of ``len(queue)`` across the spec
    duration *before* the run; callbacks only read the queue length, so
    the simulated results stay bit-identical to an unsampled run.
    Returns a closure to call after ``built.run()`` for the mean.
    """
    readings: List[int] = []
    queue = built.queue
    period = built.spec.duration / samples

    def sample() -> None:
        readings.append(len(queue))

    for i in range(1, samples + 1):
        built.sim.schedule_at(i * period, sample)
    return lambda: (sum(readings) / len(readings)) if readings else 0.0


def compare_backends(
    spec: ScenarioSpec,
    tolerances: Optional[BackendTolerances] = None,
    monitors: bool = True,
    backend_params: Optional[Dict[str, Any]] = None,
) -> DifferentialReport:
    """Run *spec* under both backends and check metric agreement.

    The packet arm runs the full event simulation (with the passive
    monitor suite when *monitors* is set, plus a read-only queue
    sampler for the mean queue); the fluid arm runs the mean-field
    integrator, whose built-in conservation monitors feed the same
    violations list.  Relations: loss rate, mean queue, short- and
    long-term Jain, and utilization, each within
    :class:`BackendTolerances`.
    """
    tolerances = tolerances or BackendTolerances()
    packet_spec = respec_backend(spec, "packet")
    fluid_spec = respec_backend(spec, "fluid", **(backend_params or {}))
    report = DifferentialReport(scenario=spec.name, arms=("packet", "fluid"))

    packet_built = build_simulation(packet_spec)
    mean_queue = packet_mean_queue(packet_built)
    suite = attach_monitors(packet_built, mode="collect") if monitors else None
    packet_built.run()
    if suite is not None:
        suite.finalize()
        report.violations.extend(suite.violations)
    flow_ids = [f.flow_id for f in packet_built.all_flows()]
    packet_metrics = {
        "loss": packet_built.queue.loss_rate(),
        "queue": mean_queue(),
        "jain_short": packet_built.collector.mean_short_term_jain(flow_ids),
        "jain_long": packet_built.collector.long_term_jain(flow_ids),
        "utilization": packet_built.topology.forward.stats.utilization(
            packet_spec.topology.capacity_bps, packet_spec.duration
        ),
    }

    fluid_built = build_simulation(fluid_spec)
    fluid_result = fluid_built.run()
    report.violations.extend(fluid_built.violations)
    fluid_metrics = {
        "loss": fluid_result.loss_rate,
        "queue": fluid_result.mean_queue_pkts,
        "jain_short": fluid_result.short_term_jain,
        "jain_long": fluid_result.long_term_jain,
        "utilization": fluid_result.utilization,
    }

    for name, metric in (
        ("loss-rate", "loss"),
        ("mean-queue", "queue"),
        ("short-term-jain", "jain"),
        ("long-term-jain", "jain"),
        ("utilization", "utilization"),
    ):
        key = {
            "loss-rate": "loss",
            "mean-queue": "queue",
            "short-term-jain": "jain_short",
            "long-term-jain": "jain_long",
            "utilization": "utilization",
        }[name]
        packet_value = packet_metrics[key]
        fluid_value = fluid_metrics[key]
        report.check(
            f"backend-{name}",
            tolerances.close(metric, packet_value, fluid_value),
            f"packet {packet_value:.4f} vs fluid {fluid_value:.4f}",
        )
    return report


# ----------------------------------------------------------------------
# Jobs differential
# ----------------------------------------------------------------------

def compare_jobs(
    spec: ScenarioSpec, jobs_a: int = 1, jobs_b: int = 2, points: int = 3
) -> DifferentialReport:
    """Run the same scenario points at two ``--jobs`` levels and demand
    bit-identical outcomes (the engine's no-result-change contract).

    ``points`` seed-shifted copies of *spec* make up the sweep so the
    multi-process arm actually exercises concurrent workers.
    """
    from repro.parallel import ParallelRunner, PointSpec

    documents = []
    for offset in range(points):
        document = spec.to_document()
        document["seed"] = spec.seed + offset
        document["name"] = f"{spec.name}-s{spec.seed + offset}"
        documents.append(document)
    specs = [
        PointSpec(
            fn="repro.experiments.scenario:run_scenario",
            kwargs={"document": document},
            label=document["name"],
        )
        for document in documents
    ]
    results_a = ParallelRunner(jobs=jobs_a).run(specs)
    results_b = ParallelRunner(jobs=jobs_b).run(specs)

    report = DifferentialReport(
        scenario=spec.name, arms=(f"jobs={jobs_a}", f"jobs={jobs_b}")
    )
    for result_a, result_b in zip(results_a, results_b):
        identical = result_a.value == result_b.value
        report.check(
            f"jobs-equal[{result_a.spec.label}]",
            identical,
            "identical" if identical else
            f"{result_a.value!r} != {result_b.value!r}",
        )
    return report
