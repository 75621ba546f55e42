"""FIG11 — short-term fairness on the (emulated) physical testbed.

Paper setup (§5.4): the C# middlebox on real hardware, two client
machines opening long-lived requests through an artificially
constrained 600 Kbps / 1000 Kbps link; Jain fairness over 20-second
slices as a function of per-flow fair share, DT vs TAQ.  Expected
shape: the simulation results carry over — TAQ beats DT across the
sweep "even on realistically basic hardware".

Here the sweep runs on :class:`repro.testbed.TestbedDumbbell`, which
drives the *unmodified* TAQ queue through jittered links and a LAN hop
(see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.build import (
    MetricsSpec,
    QueueSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_simulation,
)
from repro.experiments.runner import TableResult, run_point
from repro.experiments.sweeps import flows_for_fair_share
from repro.parallel import ParallelRunner, PointSpec


@dataclass
class Config:
    capacities_bps: Sequence[float] = (600_000.0, 1_000_000.0)
    fair_shares_bps: Sequence[float] = (5_000.0, 10_000.0, 20_000.0, 40_000.0)
    duration: float = 120.0
    rtt: float = 0.2
    slice_seconds: float = 20.0
    seed: int = 1
    queue_kinds: Sequence[str] = ("droptail", "taq")

    @classmethod
    def paper(cls) -> "Config":
        return cls(
            fair_shares_bps=(2_500.0, 5_000.0, 10_000.0, 20_000.0, 30_000.0, 50_000.0),
            duration=400.0,
        )


@dataclass
class TestbedPoint:
    queue_kind: str
    capacity_bps: float
    n_flows: int
    fair_share_bps: float
    short_term_jain: float
    utilization: float
    telemetry: Optional[dict] = None


@dataclass
class Result:
    points: List[TestbedPoint] = field(default_factory=list)

    def jain(self, kind: str, capacity: float, fair_share: float) -> float:
        for p in self.points:
            if (
                p.queue_kind == kind
                and p.capacity_bps == capacity
                and abs(p.fair_share_bps - fair_share) < 1.0
            ):
                return p.short_term_jain
        raise KeyError((kind, capacity, fair_share))

    def table(self) -> TableResult:
        table = TableResult(
            title="Fig 11: testbed short-term Jain fairness (DT vs TAQ)",
            headers=("queue", "capacity_kbps", "flows", "fair_share_bps",
                     "short_jfi", "util"),
        )
        for p in self.points:
            table.add(p.queue_kind, p.capacity_bps / 1000, p.n_flows,
                      p.fair_share_bps, p.short_term_jain, p.utilization)
        table.notes.append("paper: TAQ handles these rates on basic hardware; TAQ > DT")
        return table

    def __str__(self) -> str:
        return str(self.table())


def testbed_point_scenario(
    queue_kind: str,
    capacity_bps: float,
    fair_share_bps: float,
    duration: float,
    rtt: float,
    slice_seconds: float,
    seed: int,
) -> ScenarioSpec:
    """The declarative description of one testbed sweep point."""
    n_flows = flows_for_fair_share(capacity_bps, fair_share_bps)
    return ScenarioSpec(
        name=(
            f"fig11-{queue_kind}-{int(capacity_bps)}bps-"
            f"share{int(fair_share_bps)}"
        ),
        seed=seed,
        duration=duration,
        topology=TopologySpec(capacity_bps=capacity_bps, kind="testbed", rtt=rtt),
        queue=QueueSpec(kind=queue_kind),
        workloads=[
            WorkloadSpec(
                "bulk",
                dict(
                    n_flows=n_flows,
                    start_window=5.0,
                    extra_rtt_max=0.1,
                    first_flow_id=0,
                    rng_name="bulk-starts",
                ),
            )
        ],
        metrics=MetricsSpec(slice_seconds=slice_seconds),
    )


def run_testbed_point(
    queue_kind: str,
    capacity_bps: float,
    fair_share_bps: float,
    duration: float,
    rtt: float,
    slice_seconds: float,
    seed: int,
    telemetry_dir: Optional[str] = None,
    sample_interval: float = 1.0,
) -> TestbedPoint:
    """Measure one testbed sweep point — picklable for the pool."""
    n_flows = flows_for_fair_share(capacity_bps, fair_share_bps)
    scenario = testbed_point_scenario(
        queue_kind, capacity_bps, fair_share_bps, duration, rtt,
        slice_seconds, seed,
    )
    built = build_simulation(scenario)
    bed, collector, flows = built.topology, built.collector, built.flows
    payload = run_point(
        built,
        f"testbed-{queue_kind}-{int(capacity_bps)}bps-"
        f"share{int(fair_share_bps)}-seed{seed}",
        telemetry_dir,
        sample_interval,
    )
    return TestbedPoint(
        queue_kind=queue_kind,
        capacity_bps=capacity_bps,
        n_flows=n_flows,
        fair_share_bps=capacity_bps / n_flows,
        short_term_jain=collector.mean_short_term_jain([f.flow_id for f in flows]),
        utilization=bed.forward.stats.utilization(capacity_bps, duration),
        telemetry=payload,
    )


def run(
    config: Config = Config(),
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    telemetry_dir=None,
    sample_interval: float = 1.0,
) -> Result:
    extra = {}
    if telemetry_dir is not None:
        extra = dict(telemetry_dir=telemetry_dir, sample_interval=sample_interval)
    specs = [
        PointSpec(
            "repro.experiments.fig11_testbed:run_testbed_point",
            dict(
                queue_kind=kind,
                capacity_bps=capacity,
                fair_share_bps=fair_share,
                duration=config.duration,
                rtt=config.rtt,
                slice_seconds=config.slice_seconds,
                seed=config.seed,
                **extra,
            ),
            label=f"testbed {kind} {capacity / 1000:g}Kbps share={fair_share:g}bps",
            scenario=testbed_point_scenario(
                kind, capacity, fair_share, config.duration, config.rtt,
                config.slice_seconds, config.seed,
            ).canonical(),
        )
        for kind in config.queue_kinds
        for capacity in config.capacities_bps
        for fair_share in config.fair_shares_bps
    ]
    runner = ParallelRunner(jobs=jobs, cache=cache, progress=progress)
    return Result(points=[result.value for result in runner.run(specs)])
