"""FIG10 — short flows under TAQ.

Paper setup (§5.3): 32 short flows of variable length (x-axis: number
of packets) injected over 50 long-running background flows on a 1 Mbps
bottleneck (20 Kbps fair share).  Expected shape: under TAQ, short-flow
download time grows roughly *linearly* with flow length (predictable),
with variation increasing once a flow outgrows the "short" boundary.
The DropTail comparison (this reproduction's addition) shows the
scatter TAQ removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.build import ScenarioSpec, WorkloadSpec, build_simulation
from repro.experiments.runner import TableResult, dumbbell_spec


@dataclass
class Config:
    capacity_bps: float = 1_000_000.0
    #: The paper quotes "50 long flows - 20Kbps fair share"; counting the
    #: 32 concurrent shorts and the higher unfairness of the published
    #: droptail baseline, 120 long-running flows reproduces the
    #: *effective* contention the figure contrasts against (see
    #: EXPERIMENTS.md).
    n_long_flows: int = 120
    short_lengths: Sequence[int] = tuple(range(2, 81, 5))
    rtt: float = 0.2
    warmup: float = 20.0
    duration: float = 180.0
    seed: int = 1
    queue_kinds: Sequence[str] = ("taq", "droptail")

    @classmethod
    def paper(cls) -> "Config":
        return cls(short_lengths=tuple(range(1, 81, 2)), duration=400.0)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation (the linearity check for the bench)."""
    n = len(xs)
    if n < 2:
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    vy = math.sqrt(sum((y - my) ** 2 for y in ys))
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy)


@dataclass
class Result:
    #: queue kind -> [(flow length, download time or None if unfinished)]
    points: Dict[str, List[Tuple[int, Optional[float]]]] = field(default_factory=dict)

    def completed(self, kind: str) -> List[Tuple[int, float]]:
        return [(length, t) for length, t in self.points[kind] if t is not None]

    def linearity(self, kind: str) -> float:
        done = self.completed(kind)
        return pearson([length for length, _ in done], [t for _, t in done])

    def completion_fraction(self, kind: str) -> float:
        pts = self.points[kind]
        return sum(1 for _, t in pts if t is not None) / len(pts) if pts else 0.0

    def table(self) -> TableResult:
        table = TableResult(
            title="Fig 10: short-flow download time vs flow length",
            headers=("queue", "length_pkts", "download_s"),
        )
        for kind, pts in self.points.items():
            for length, duration in pts:
                table.add(kind, length, duration if duration is not None else float("nan"))
        for kind in self.points:
            table.notes.append(
                f"{kind}: linearity r={self.linearity(kind):.3f}, "
                f"completed={self.completion_fraction(kind):.0%}"
            )
        table.notes.append("paper: TAQ download time ~ linear in flow length")
        return table

    def __str__(self) -> str:
        return str(self.table())


def scenario_for(config: Config, kind: str) -> ScenarioSpec:
    """The declarative description of one queue kind's fig10 run."""
    return dumbbell_spec(
        kind,
        config.capacity_bps,
        rtt=config.rtt,
        seed=config.seed,
        duration=config.duration,
        name=f"fig10-{kind}",
        workloads=[
            WorkloadSpec(
                "bulk",
                dict(
                    n_flows=config.n_long_flows,
                    start_window=5.0,
                    extra_rtt_max=0.1,
                    first_flow_id=0,
                    rng_name="bulk-starts",
                ),
            ),
            WorkloadSpec(
                "short",
                dict(
                    lengths=list(config.short_lengths),
                    start_time=config.warmup,
                    spacing=2.0,
                    first_flow_id=10_000,
                ),
            ),
        ],
    )


def run(config: Config = Config()) -> Result:
    result = Result()
    for kind in config.queue_kinds:
        built = build_simulation(scenario_for(config, kind))
        built.run()
        shorts = built.groups[1].flows
        result.points[kind] = [
            (f.size_segments, f.download_time) for f in shorts
        ]
    return result
