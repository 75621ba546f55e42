"""FIG1 — download-time scatter vs object size at a shared proxy.

The paper's Fig 1 plots min / 10th-percentile / average / 90th-
percentile / max download time per logarithmic object-size bucket, from
a 2-hour window at a university proxy behind a 2 Mbps link shared by
hundreds of machines.  Headline observations: (a) download times for
comparable sizes vary by over two orders of magnitude, (b) even tiny
objects often take many seconds.

Here a synthetic trace with the published aggregates (see
:mod:`repro.workloads.traces`) is replayed through the simulated
bottleneck under DropTail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.build import ScenarioSpec, WorkloadSpec, build_simulation
from repro.experiments.runner import TableResult, dumbbell_spec
from repro.metrics.downloads import (
    BucketStats,
    DownloadSample,
    bucket_statistics,
    spread_orders_of_magnitude,
)


@dataclass
class Config:
    capacity_bps: float = 2_000_000.0
    rtt: float = 0.2
    n_clients: int = 40
    duration: float = 240.0
    requests_per_client_per_sec: float = 0.08
    max_object_bytes: int = 1_000_000
    connections: int = 4
    seed: int = 1
    queue_kind: str = "droptail"

    @classmethod
    def paper(cls) -> "Config":
        """Closer to the published setting (221 clients; slow)."""
        return cls(n_clients=220, duration=600.0, max_object_bytes=2_000_000)


@dataclass
class Result:
    samples: List[DownloadSample] = field(default_factory=list)
    buckets: List[BucketStats] = field(default_factory=list)
    completed: int = 0
    outstanding: int = 0

    def spread(self) -> float:
        """Orders of magnitude between fastest and slowest download."""
        return spread_orders_of_magnitude([s.duration for s in self.samples])

    def table(self) -> TableResult:
        table = TableResult(
            title="Fig 1: download time vs object size (droptail proxy view)",
            headers=("size_bucket", "count", "min_s", "p10_s", "avg_s", "p90_s", "max_s"),
        )
        for b in self.buckets:
            table.add(f"1e{b.bucket}B", b.count, b.minimum, b.p10, b.average, b.p90, b.maximum)
        table.notes.append(
            "paper: times for comparable sizes spread over 2+ orders of magnitude"
        )
        return table

    def __str__(self) -> str:
        return str(self.table())


def scenario_for(config: Config) -> ScenarioSpec:
    """The declarative description of the fig01 trace replay."""
    return dumbbell_spec(
        config.queue_kind,
        config.capacity_bps,
        rtt=config.rtt,
        seed=config.seed,
        duration=config.duration,
        name="fig01-trace-replay",
        workloads=[
            WorkloadSpec(
                "trace",
                dict(
                    trace_seed=config.seed,
                    n_clients=config.n_clients,
                    # Leave tail time to finish downloads.
                    trace_duration=config.duration * 0.7,
                    requests_per_client_per_sec=config.requests_per_client_per_sec,
                    max_object_bytes=config.max_object_bytes,
                    connections=config.connections,
                ),
            )
        ],
    )


def run(config: Config = Config()) -> Result:
    built = build_simulation(scenario_for(config))
    built.run()
    users = built.users
    samples = [s for user in users for s in user.samples]
    outstanding = sum(len(user.pending) + user._in_flight for user in users)
    return Result(
        samples=samples,
        buckets=bucket_statistics(samples),
        completed=len(samples),
        outstanding=outstanding,
    )
