"""VAR — no end-host variant escapes the small packet regime (§2.3).

In-text claim: "none of the existing variants of TCP and TFRC or
existing variants of queuing mechanisms (RED, SFQ) address these
problems in the small packet regime."  This experiment runs the same
sub-packet population under every combination of end-host transport
(NewReno, SACK, Tahoe, CUBIC, TFRC) and bottleneck discipline
(DropTail, RED, SFQ) and contrasts them with TAQ under plain NewReno:
the fix has to live in the network, not the sender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.build import ScenarioSpec, WorkloadSpec, build_simulation
from repro.experiments.runner import TableResult, dumbbell_spec
from repro.parallel import ParallelRunner, PointSpec


@dataclass
class Config:
    capacity_bps: float = 600_000.0
    n_flows: int = 120
    duration: float = 100.0
    rtt: float = 0.2
    slice_seconds: float = 20.0
    seed: int = 2
    transports: Sequence[str] = ("newreno", "sack", "tahoe", "cubic", "tfrc")
    queues: Sequence[str] = ("droptail", "red", "sfq")

    @classmethod
    def paper(cls) -> "Config":
        return cls(duration=400.0, n_flows=200, capacity_bps=1_000_000.0)


@dataclass
class VariantPoint:
    transport: str
    queue_kind: str
    short_term_jain: float
    utilization: float
    timeouts: int


@dataclass
class Result:
    points: List[VariantPoint] = field(default_factory=list)
    taq_reference: float = 0.0

    def jain(self, transport: str, queue_kind: str) -> float:
        for p in self.points:
            if p.transport == transport and p.queue_kind == queue_kind:
                return p.short_term_jain
        raise KeyError((transport, queue_kind))

    def table(self) -> TableResult:
        table = TableResult(
            title="§2.3: transport variants x queue disciplines, sub-packet regime",
            headers=("transport", "queue", "short_jfi", "util", "timeouts"),
        )
        for p in self.points:
            table.add(p.transport, p.queue_kind, p.short_term_jain,
                      p.utilization, p.timeouts)
        table.add("newreno", "TAQ", self.taq_reference, float("nan"), -1)
        table.notes.append(
            "paper: no end-host variant or classic AQM fixes the regime; TAQ does"
        )
        return table

    def __str__(self) -> str:
        return str(self.table())


def scenario_for(transport: str, queue_kind: str, config: Config) -> ScenarioSpec:
    """The declarative description of one (transport, queue) matrix cell."""
    if transport == "tfrc":
        workload = WorkloadSpec(
            "tfrc",
            dict(
                n_flows=config.n_flows,
                start_window=5.0,
                extra_rtt_max=0.1,
                rng_name="tfrc-starts",
                first_flow_id=0,
            ),
        )
    else:
        workload = WorkloadSpec(
            "bulk",
            dict(
                n_flows=config.n_flows,
                start_window=5.0,
                extra_rtt_max=0.1,
                first_flow_id=0,
                rng_name="bulk-starts",
                variant=transport,
                initial_cwnd=None,  # let the variant pick (CUBIC: IW10)
            ),
        )
    return dumbbell_spec(
        queue_kind,
        config.capacity_bps,
        rtt=config.rtt,
        seed=config.seed,
        slice_seconds=config.slice_seconds,
        duration=config.duration,
        name=f"variants-{transport}-{queue_kind}",
        workloads=[workload],
    )


def _run_point(transport: str, queue_kind: str, config: Config) -> VariantPoint:
    built = build_simulation(scenario_for(transport, queue_kind, config))
    built.run()
    flows = built.flows
    if transport == "tfrc":
        timeouts = -1  # TFRC has no retransmission timeouts
    else:
        timeouts = sum(f.sender.stats.timeouts for f in flows)
    flow_ids = [f.flow_id for f in flows]
    return VariantPoint(
        transport=transport,
        queue_kind=queue_kind,
        short_term_jain=built.collector.mean_short_term_jain(flow_ids),
        utilization=built.topology.forward.stats.utilization(
            config.capacity_bps, config.duration
        ),
        timeouts=timeouts,
    )


def run_variant_point(
    transport: str,
    queue_kind: str,
    capacity_bps: float,
    n_flows: int,
    duration: float,
    rtt: float,
    slice_seconds: float,
    seed: int,
) -> VariantPoint:
    """Picklable scalar-argument wrapper around :func:`_run_point`."""
    config = Config(
        capacity_bps=capacity_bps,
        n_flows=n_flows,
        duration=duration,
        rtt=rtt,
        slice_seconds=slice_seconds,
        seed=seed,
    )
    return _run_point(transport, queue_kind, config)


def _point_spec(transport: str, queue_kind: str, config: Config) -> PointSpec:
    return PointSpec(
        "repro.experiments.variants:run_variant_point",
        dict(
            transport=transport,
            queue_kind=queue_kind,
            capacity_bps=config.capacity_bps,
            n_flows=config.n_flows,
            duration=config.duration,
            rtt=config.rtt,
            slice_seconds=config.slice_seconds,
            seed=config.seed,
        ),
        label=f"{transport}/{queue_kind}",
        scenario=scenario_for(transport, queue_kind, config).canonical(),
    )


def run(config: Config = Config(), *, jobs: int = 1, cache=None, progress=None) -> Result:
    specs = [
        _point_spec(transport, queue_kind, config)
        for transport in config.transports
        for queue_kind in config.queues
    ]
    # The TAQ reference rides in the same batch as the matrix points.
    specs.append(_point_spec("newreno", "taq", config))
    runner = ParallelRunner(jobs=jobs, cache=cache, progress=progress)
    points = [result.value for result in runner.run(specs)]
    return Result(points=points[:-1], taq_reference=points[-1].short_term_jain)
