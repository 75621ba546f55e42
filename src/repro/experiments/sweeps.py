"""The fair-share fairness sweep shared by Figs 2, 8 and 11.

One sweep point = (bottleneck capacity, per-flow fair share): the flow
count is ``capacity / fair_share`` long-running flows, and the metric is
the mean 20-second-slice Jain index (plus the whole-run "long-term" JFI
and utilization for context).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.build import ScenarioSpec, WorkloadSpec, build_simulation
from repro.experiments.runner import dumbbell_spec, run_point
from repro.parallel import ParallelRunner, PointSpec, ProgressPrinter, ResultCache


@dataclass
class SweepPoint:
    """One measured sweep point."""

    capacity_bps: float
    n_flows: int
    fair_share_bps: float
    packets_per_rtt: float
    short_term_jain: float
    long_term_jain: float
    utilization: float
    loss_rate: float
    timeouts: int
    repetitive_timeouts: int
    shut_out_fraction: float
    #: ``repro.obs`` payload (bundle path, manifest, metric summary)
    #: when the point ran with telemetry enabled; None otherwise.
    telemetry: Optional[Dict[str, Any]] = None


def flows_for_fair_share(capacity_bps: float, fair_share_bps: float) -> int:
    """Flow count realizing *fair_share_bps* on *capacity_bps*."""
    return max(2, round(capacity_bps / fair_share_bps))


def sweep_point_scenario(
    kind: str,
    capacity_bps: float,
    fair_share_bps: float,
    duration: float = 120.0,
    rtt: float = 0.2,
    slice_seconds: float = 20.0,
    seed: int = 1,
    **queue_kwargs,
) -> ScenarioSpec:
    """The declarative description of one sweep point.

    :func:`run_sweep_point` builds exactly this spec, and
    :func:`sweep_specs` attaches its canonical form to each
    :class:`~repro.parallel.PointSpec` for provenance.
    """
    n_flows = flows_for_fair_share(capacity_bps, fair_share_bps)
    return dumbbell_spec(
        kind,
        capacity_bps,
        rtt=rtt,
        seed=seed,
        slice_seconds=slice_seconds,
        duration=duration,
        name=f"sweep-{kind}-{int(capacity_bps)}bps-share{int(fair_share_bps)}",
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
        **queue_kwargs,
    )


def run_sweep_point(
    kind: str,
    capacity_bps: float,
    fair_share_bps: float,
    duration: float = 120.0,
    rtt: float = 0.2,
    slice_seconds: float = 20.0,
    seed: int = 1,
    telemetry_dir: Optional[str] = None,
    sample_interval: float = 1.0,
    **queue_kwargs,
) -> SweepPoint:
    """Measure one (capacity, fair-share) point under queue *kind*.

    With ``telemetry_dir`` set, the point runs instrumented (see
    :mod:`repro.obs`) and writes its bundle to
    ``telemetry_dir/<kind>-<capacity>-<share>-seed<seed>/``; the
    returned point carries the manifest and deterministic summary.
    """
    n_flows = flows_for_fair_share(capacity_bps, fair_share_bps)
    scenario = sweep_point_scenario(
        kind,
        capacity_bps,
        fair_share_bps,
        duration=duration,
        rtt=rtt,
        slice_seconds=slice_seconds,
        seed=seed,
        **queue_kwargs,
    )
    built = build_simulation(scenario)
    flows = built.flows
    payload = run_point(
        built,
        f"{kind}-{int(capacity_bps)}bps-share{int(fair_share_bps)}-seed{seed}",
        telemetry_dir,
        sample_interval,
    )
    flow_ids = [f.flow_id for f in flows]
    indices = built.collector.slice_indices()
    steady = indices[len(indices) // 2] if indices else 0
    return SweepPoint(
        capacity_bps=capacity_bps,
        n_flows=n_flows,
        fair_share_bps=capacity_bps / n_flows,
        packets_per_rtt=built.topology.packets_per_rtt(n_flows),
        short_term_jain=built.collector.mean_short_term_jain(flow_ids),
        long_term_jain=built.collector.long_term_jain(flow_ids),
        utilization=built.topology.forward.stats.utilization(capacity_bps, duration),
        loss_rate=built.queue.loss_rate(),
        timeouts=sum(f.sender.stats.timeouts for f in flows),
        repetitive_timeouts=sum(f.sender.stats.repetitive_timeouts for f in flows),
        shut_out_fraction=built.collector.shut_out_fraction(steady, flow_ids),
        telemetry=payload,
    )


def sweep_specs(
    kind: str,
    capacities_bps: Sequence[float],
    fair_shares_bps: Sequence[float],
    telemetry_dir: Optional[str] = None,
    sample_interval: float = 1.0,
    **kwargs,
) -> List[PointSpec]:
    """Picklable point specs for the cross-product sweep.

    The telemetry kwargs enter a spec only when ``telemetry_dir`` is
    set, so an uninstrumented sweep hashes to exactly the cache keys it
    always had (prior cached results stay valid).
    """
    extra = {}
    if telemetry_dir is not None:
        extra = dict(telemetry_dir=telemetry_dir, sample_interval=sample_interval)
    return [
        PointSpec(
            "repro.experiments.sweeps:run_sweep_point",
            dict(
                kind=kind,
                capacity_bps=capacity,
                fair_share_bps=fair_share,
                **extra,
                **kwargs,
            ),
            label=f"{kind} {capacity / 1000:g}Kbps share={fair_share:g}bps",
            scenario=sweep_point_scenario(
                kind, capacity, fair_share, **kwargs
            ).canonical(),
        )
        for capacity in capacities_bps
        for fair_share in fair_shares_bps
    ]


def run_sweep(
    kind: str,
    capacities_bps: Sequence[float],
    fair_shares_bps: Sequence[float],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressPrinter] = None,
    **kwargs,
) -> List[SweepPoint]:
    """Cross-product sweep over capacities and fair shares.

    ``jobs=1`` (the default) runs the points sequentially in-process;
    ``jobs>1`` fans them across a process pool.  Both paths produce
    bit-identical points — every point seeds its own simulator.
    """
    specs = sweep_specs(kind, capacities_bps, fair_shares_bps, **kwargs)
    runner = ParallelRunner(jobs=jobs, cache=cache, progress=progress)
    return [result.value for result in runner.run(specs)]
