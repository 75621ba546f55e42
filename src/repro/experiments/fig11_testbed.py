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
from typing import Dict, List, Sequence

from repro.experiments.runner import TableResult
from repro.experiments.sweeps import SweepPoint, sweep_specs
from repro.parallel import ParallelRunner


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
class Result:
    #: queue kind -> its sweep points, capacity-major as swept.
    points: Dict[str, List[SweepPoint]] = field(default_factory=dict)

    def jain(self, kind: str, capacity: float, fair_share: float) -> float:
        for p in self.points.get(kind, ()):
            if p.capacity_bps == capacity and abs(p.fair_share_bps - fair_share) < 1.0:
                return p.short_term_jain
        raise KeyError((kind, capacity, fair_share))

    def table(self) -> TableResult:
        table = TableResult(
            title="Fig 11: testbed short-term Jain fairness (DT vs TAQ)",
            headers=("queue", "capacity_kbps", "flows", "fair_share_bps",
                     "short_jfi", "util"),
        )
        for kind, points in self.points.items():
            for p in points:
                table.add(kind, p.capacity_bps / 1000, p.n_flows,
                          p.fair_share_bps, p.short_term_jain, p.utilization)
        table.notes.append("paper: TAQ handles these rates on basic hardware; TAQ > DT")
        return table

    def __str__(self) -> str:
        return str(self.table())


def run(
    config: Config = Config(),
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    telemetry_dir=None,
    sample_interval: float = 1.0,
) -> Result:
    specs = []
    for kind in config.queue_kinds:
        specs.extend(
            sweep_specs(
                kind,
                config.capacities_bps,
                config.fair_shares_bps,
                telemetry_dir=telemetry_dir,
                sample_interval=sample_interval,
                duration=config.duration,
                rtt=config.rtt,
                slice_seconds=config.slice_seconds,
                seed=config.seed,
                topology="testbed",
            )
        )
    result = Result()
    runner = ParallelRunner(jobs=jobs, cache=cache, progress=progress)
    for point_result in runner.run(specs):
        kind = point_result.spec.kwargs["kind"]
        result.points.setdefault(kind, []).append(point_result.value)
    return result
