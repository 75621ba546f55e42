"""FIG3 — DropTail buffer sizes required to restore fairness.

The paper sweeps the droptail buffer (in RTTs of packets) for several
per-flow fair shares expressed in packets/RTT, and plots the buffer
needed to reach a given 20-second-slice JFI.  Expected shape: fairness
is purchasable with buffer, but the deeper into the sub-packet regime
(0.25 pkt/RTT), the more RTTs of buffering (= seconds of queueing
delay) each JFI level costs — §2.4's "trading delay for fairness".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.build import ScenarioSpec, WorkloadSpec, build_simulation
from repro.experiments.runner import TableResult, dumbbell_spec, run_point
from repro.parallel import ParallelRunner, PointSpec


@dataclass
class Config:
    capacity_bps: float = 400_000.0
    fair_shares_pkts_per_rtt: Sequence[float] = (0.25, 0.5, 1.0, 1.25)
    buffer_rtts: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0)
    duration: float = 120.0
    rtt: float = 0.2
    pkt_size: int = 500
    slice_seconds: float = 20.0
    seed: int = 1

    @classmethod
    def paper(cls) -> "Config":
        return cls(duration=400.0, buffer_rtts=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0))


@dataclass
class Result:
    #: (fair_share_pkts, buffer_rtts) -> measured short-term JFI.
    jfi: Dict[Tuple[float, float], float] = field(default_factory=dict)
    #: Maximum queueing delay each buffer size implies, seconds (analytic).
    max_delay: Dict[float, float] = field(default_factory=dict)
    #: (fair_share_pkts, buffer_rtts) -> measured (mean, p95) queueing delay.
    measured_delay: Dict[Tuple[float, float], Tuple[float, float]] = field(
        default_factory=dict
    )

    def required_buffer(self, fair_share_pkts: float, target_jfi: float) -> Optional[float]:
        """Smallest swept buffer (RTTs) reaching *target_jfi*, or None."""
        for buffer_rtts in sorted({b for (f, b) in self.jfi if f == fair_share_pkts}):
            if self.jfi[(fair_share_pkts, buffer_rtts)] >= target_jfi:
                return buffer_rtts
        return None

    def table(self) -> TableResult:
        table = TableResult(
            title="Fig 3: droptail buffer (RTTs) vs achieved short-term JFI",
            headers=("fair_share_pkts_rtt", "buffer_rtts", "short_jfi",
                     "max_q_delay_s", "mean_q_delay_s", "p95_q_delay_s"),
        )
        for (fair_share, buffer_rtts), jfi in sorted(self.jfi.items()):
            mean, p95 = self.measured_delay.get((fair_share, buffer_rtts), (0.0, 0.0))
            table.add(fair_share, buffer_rtts, jfi,
                      self.max_delay[buffer_rtts], mean, p95)
        table.notes.append(
            "paper: smaller fair shares need disproportionately more buffer; "
            "the delay cost grows with it"
        )
        return table

    def __str__(self) -> str:
        return str(self.table())


@dataclass
class BufferPoint:
    """One measured (fair share, buffer) cell — picklable."""

    fair_share_pkts: float
    buffer_rtts: float
    jfi: float
    mean_delay: float
    p95_delay: float
    telemetry: Optional[dict] = None


def buffer_point_scenario(
    fair_share_pkts: float,
    buffer_rtts: float,
    capacity_bps: float,
    rtt: float = 0.2,
    pkt_size: int = 500,
    slice_seconds: float = 20.0,
    seed: int = 1,
    duration: float = 120.0,
) -> ScenarioSpec:
    """The declarative description of one (fair share, buffer) cell."""
    fair_share_bps = fair_share_pkts * pkt_size * 8 / rtt
    n_flows = max(2, round(capacity_bps / fair_share_bps))
    return dumbbell_spec(
        "droptail",
        capacity_bps,
        rtt=rtt,
        pkt_size=pkt_size,
        seed=seed,
        slice_seconds=slice_seconds,
        buffer_rtts=buffer_rtts,
        duration=duration,
        name=f"fig03-buf{buffer_rtts:g}rtt-share{fair_share_pkts:g}pkt",
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
    )


def run_buffer_point(
    fair_share_pkts: float,
    buffer_rtts: float,
    capacity_bps: float,
    rtt: float,
    pkt_size: int,
    slice_seconds: float,
    seed: int,
    duration: float,
    telemetry_dir: Optional[str] = None,
    sample_interval: float = 1.0,
) -> BufferPoint:
    """Measure one (fair share, buffer) cell of the tradeoff grid."""
    scenario = buffer_point_scenario(
        fair_share_pkts, buffer_rtts, capacity_bps,
        rtt=rtt, pkt_size=pkt_size, slice_seconds=slice_seconds,
        seed=seed, duration=duration,
    )
    built = build_simulation(scenario)
    flows = built.flows
    payload = run_point(
        built,
        f"droptail-buf{buffer_rtts:g}rtt-share{fair_share_pkts:g}pkt-seed{seed}",
        telemetry_dir,
        sample_interval,
    )
    stats = built.topology.forward.stats
    return BufferPoint(
        fair_share_pkts=fair_share_pkts,
        buffer_rtts=buffer_rtts,
        jfi=built.collector.mean_short_term_jain([f.flow_id for f in flows]),
        mean_delay=stats.mean_queue_delay(),
        p95_delay=stats.queue_delay_percentile(95),
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
    result = Result()
    # Telemetry kwargs enter the specs only when enabled, keeping the
    # uninstrumented path's cache keys unchanged.
    extra = {}
    if telemetry_dir is not None:
        extra = dict(telemetry_dir=telemetry_dir, sample_interval=sample_interval)
    specs = []
    for buffer_rtts in config.buffer_rtts:
        # Max queueing delay this buffer implies at line rate.
        result.max_delay[buffer_rtts] = buffer_rtts * config.rtt
        for fair_share_pkts in config.fair_shares_pkts_per_rtt:
            specs.append(
                PointSpec(
                    "repro.experiments.fig03_buffer_tradeoff:run_buffer_point",
                    dict(
                        fair_share_pkts=fair_share_pkts,
                        buffer_rtts=buffer_rtts,
                        capacity_bps=config.capacity_bps,
                        rtt=config.rtt,
                        pkt_size=config.pkt_size,
                        slice_seconds=config.slice_seconds,
                        seed=config.seed,
                        duration=config.duration,
                        **extra,
                    ),
                    label=f"droptail buf={buffer_rtts:g}rtt share={fair_share_pkts:g}pkt",
                    scenario=buffer_point_scenario(
                        fair_share_pkts, buffer_rtts, config.capacity_bps,
                        rtt=config.rtt, pkt_size=config.pkt_size,
                        slice_seconds=config.slice_seconds,
                        seed=config.seed, duration=config.duration,
                    ).canonical(),
                )
            )
    runner = ParallelRunner(jobs=jobs, cache=cache, progress=progress)
    for point_result in runner.run(specs):
        point = point_result.value
        result.jfi[(point.fair_share_pkts, point.buffer_rtts)] = point.jfi
        result.measured_delay[(point.fair_share_pkts, point.buffer_rtts)] = (
            point.mean_delay,
            point.p95_delay,
        )
    return result
