"""FIG3 — DropTail buffer sizes required to restore fairness.

The paper sweeps the droptail buffer (in RTTs of packets) for several
per-flow fair shares expressed in packets/RTT, and plots the buffer
needed to reach a given 20-second-slice JFI.  Expected shape: fairness
is purchasable with buffer, but the deeper into the sub-packet regime
(0.25 pkt/RTT), the more RTTs of buffering (= seconds of queueing
delay) each JFI level costs — §2.4's "trading delay for fairness".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.runner import TableResult
from repro.experiments.sweeps import sweep_specs
from repro.parallel import ParallelRunner


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


def run(
    config: Config = Config(),
    *,
    jobs: int = 1,
    cache=None,
    progress=None,
    telemetry_dir=None,
    sample_interval: float = 1.0,
) -> Result:
    # Every (buffer, share) cell is a droptail sweep point; the buffers
    # share one batch so a process pool sees every cell at once.
    result = Result()
    cells, specs = [], []
    for buffer_rtts in config.buffer_rtts:
        # Max queueing delay this buffer implies at line rate.
        result.max_delay[buffer_rtts] = buffer_rtts * config.rtt
        cells.extend((f, buffer_rtts) for f in config.fair_shares_pkts_per_rtt)
        specs.extend(sweep_specs(
            "droptail",
            [config.capacity_bps],
            [f * config.pkt_size * 8 / config.rtt
             for f in config.fair_shares_pkts_per_rtt],
            # One bundle directory per buffer: cells of equal share
            # would otherwise share a bundle name.
            telemetry_dir=(None if telemetry_dir is None else
                           os.path.join(telemetry_dir, f"buf{buffer_rtts:g}rtt")),
            sample_interval=sample_interval,
            duration=config.duration,
            rtt=config.rtt,
            slice_seconds=config.slice_seconds,
            seed=config.seed,
            buffer_rtts=buffer_rtts,
            pkt_size=config.pkt_size,
        ))
    runner = ParallelRunner(jobs=jobs, cache=cache, progress=progress)
    for cell, point_result in zip(cells, runner.run(specs)):
        point = point_result.value
        result.jfi[cell] = point.short_term_jain
        result.measured_delay[cell] = (point.mean_queue_delay, point.p95_queue_delay)
    return result
