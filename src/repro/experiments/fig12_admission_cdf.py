"""FIG12 — object download-time CDFs with admission control.

Paper setup (§5.5): a 2-hour peak-load access log replayed by clients
that open up to four connections each and request objects as soon as
possible, over a 1 Mbps bottleneck; unadmitted flows retry until
admitted, and their waiting time counts toward the download time.
CDFs of download time for small (10-20 KB) and larger (100-110 KB)
objects, DropTail vs TAQ-with-admission-control.

Expected shape: TAQ cuts the median and worst case — by ~5x for small
objects and ~2x (median) / ~1.6x (worst case) for large ones — and
shrinks the variance across the board.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.build import ScenarioSpec, WorkloadSpec, build_simulation
from repro.experiments.runner import TableResult, dumbbell_spec
from repro.metrics.downloads import cdf_percentile, cdf_points


@dataclass
class Config:
    capacity_bps: float = 1_000_000.0
    rtt: float = 0.2
    n_users: int = 40
    objects_per_user: int = 18
    small_band: Tuple[int, int] = (10_000, 20_000)
    large_band: Tuple[int, int] = (100_000, 110_000)
    #: Fraction of each user's objects drawn from the large band.
    large_fraction: float = 0.25
    connections: int = 4
    duration: float = 400.0
    #: Sessions arrive over this window, as in the replayed 2-hour log
    #: (a simultaneous start would let every pool in before the loss
    #: estimator sees any congestion).
    arrival_window: float = 120.0
    #: Guaranteed-admission pacing.  Must be slower than the session
    #: arrival rate to actually bound concurrency under sustained
    #: overload; the wait is paid once per pool and amortized over all
    #: its objects.
    t_wait: float = 6.0
    seed: int = 1
    queue_kinds: Sequence[str] = ("droptail", "taq+ac")

    @classmethod
    def paper(cls) -> "Config":
        return cls(
            n_users=80,
            objects_per_user=40,
            duration=1200.0,
            arrival_window=400.0,
        )


@dataclass
class BandResult:
    """Download-time distribution of one size band under one queue."""

    durations: List[float] = field(default_factory=list)

    def cdf(self) -> List[Tuple[float, float]]:
        return cdf_points(self.durations)

    def percentile(self, q: float) -> float:
        return cdf_percentile(self.durations, q)


@dataclass
class Result:
    #: (queue kind, band name) -> distribution
    bands: Dict[Tuple[str, str], BandResult] = field(default_factory=dict)
    refusals: Dict[str, int] = field(default_factory=dict)

    def table(self) -> TableResult:
        table = TableResult(
            title="Fig 12: object download times with admission control",
            headers=("queue", "band", "n", "median_s", "p90_s", "worst_s"),
        )
        for (kind, band), dist in sorted(self.bands.items()):
            if not dist.durations:
                table.add(kind, band, 0, float("nan"), float("nan"), float("nan"))
                continue
            table.add(
                kind,
                band,
                len(dist.durations),
                dist.percentile(50),
                dist.percentile(90),
                max(dist.durations),
            )
        table.notes.append(
            "paper: TAQ ~5x faster median/worst for small objects, "
            "~2x median / ~1.6x worst for large"
        )
        return table

    def chart(self, band: str = "small") -> str:
        """ASCII CDFs of download times for one size band (the figure)."""
        from repro.metrics.asciichart import cdf_chart

        cdfs = {
            kind: dist.cdf()
            for (kind, b), dist in sorted(self.bands.items())
            if b == band and dist.durations
        }
        return cdf_chart(cdfs, x_label="download time (s)")

    def __str__(self) -> str:
        return str(self.table())


def scenario_for(config: Config, kind: str) -> ScenarioSpec:
    """The declarative description of one queue kind's fig12 run."""
    # Per-kind queue knobs: only the admission-controlled variant takes
    # the guaranteed-admission pacing parameter.
    per_kind_params = {"taq+ac": dict(t_wait=config.t_wait)}
    return dumbbell_spec(
        kind,
        config.capacity_bps,
        rtt=config.rtt,
        seed=config.seed,
        duration=config.duration,
        name=f"fig12-{kind}",
        workloads=[
            WorkloadSpec(
                "web-bands",
                dict(
                    n_users=config.n_users,
                    objects_per_user=config.objects_per_user,
                    small_band=list(config.small_band),
                    large_band=list(config.large_band),
                    large_fraction=config.large_fraction,
                    connections=config.connections,
                    arrival_window=config.arrival_window,
                    rng_name="fig12-objects",
                    first_flow_id=0,
                    persistent_syn=True,  # §5.5: clients retry till admitted
                ),
            )
        ],
        **per_kind_params.get(kind, {}),
    )


def run(config: Config = Config()) -> Result:
    result = Result()
    for kind in config.queue_kinds:
        built = build_simulation(scenario_for(config, kind))
        built.run()
        users = built.users
        small = BandResult()
        large = BandResult()
        lo_s, hi_s = config.small_band
        lo_l, hi_l = config.large_band
        for user in users:
            for sample in user.samples:
                if lo_s <= sample.size_bytes <= hi_s:
                    small.durations.append(sample.duration)
                elif lo_l <= sample.size_bytes <= hi_l:
                    large.durations.append(sample.duration)
        result.bands[(kind, "small")] = small
        result.bands[(kind, "large")] = large
        refusals = getattr(built.queue, "admission_refusals", 0)
        result.refusals[kind] = refusals
    return result
