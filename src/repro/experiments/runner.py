"""Shared plumbing for the experiment modules.

- :func:`dumbbell_spec` — the :class:`~repro.build.ScenarioSpec` of the
  paper's standard bench (one queue kind on a dumbbell), which
  :func:`repro.build.build_simulation` turns into a wired run;
- :func:`run_point` — runs a built sweep point, armed with a
  :mod:`repro.obs` telemetry bundle when asked, for every sweep-point
  function;
- :class:`TableResult` — a printable rows-and-headers result every
  experiment returns (the "same rows/series the paper reports").
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.build


def dumbbell_spec(
    kind: str,
    capacity_bps: float,
    rtt: float = 0.2,
    pkt_size: int = 500,
    seed: int = 1,
    slice_seconds: float = 20.0,
    buffer_rtts: float = 1.0,
    reverse_tap: bool = True,
    duration: float = 0.0,
    name: str = "dumbbell-bench",
    workloads: Sequence = (),
    topology: str = "dumbbell",
    **queue_kwargs,
) -> repro.build.ScenarioSpec:
    """Queue *kind* (any registered one) on a dumbbell, sliced goodput
    collected: ``build_simulation(dumbbell_spec(...))`` is the wired run.
    ``topology="testbed"`` puts the same bench on the emulated hardware
    of §5.4 (Fig 11).

    ``reverse_tap=False`` leaves TAQ in one-way mode (§3.3): epochs are
    estimated from SYN-to-first-data gaps and burst spacing only.
    ``queue_kwargs`` go to the registered builder (for the TAQ kinds
    that means :class:`~repro.core.TAQQueue`, e.g.
    ``classify_fair_share=False`` for ablations).
    """
    return repro.build.ScenarioSpec(
        name=name,
        seed=seed,
        duration=duration,
        topology=repro.build.TopologySpec(
            capacity_bps=capacity_bps, kind=topology, rtt=rtt, pkt_size=pkt_size
        ),
        queue=repro.build.QueueSpec(
            kind=kind,
            buffer_rtts=buffer_rtts,
            reverse_tap=reverse_tap,
            params=dict(queue_kwargs),
        ),
        workloads=list(workloads),
        metrics=repro.build.MetricsSpec(slice_seconds=slice_seconds),
    )


def run_point(
    built,
    run_id: str,
    telemetry_dir: Optional[str] = None,
    sample_interval: float = 1.0,
) -> Optional[Dict[str, Any]]:
    """Run one built sweep point to its spec's duration.

    With *telemetry_dir* the point runs armed (:meth:`repro.obs.Telemetry.arm`:
    gauge sampler, queue, bottleneck link, every flow), its bundle lands
    in ``telemetry_dir/run_id/`` and the picklable payload (bundle path,
    manifest, deterministic summary) is returned to travel back through
    :mod:`repro.parallel` — including on cache hits.  Without, None.
    """
    if telemetry_dir is None:
        built.run()
        return None
    from repro.obs import Telemetry

    telemetry = Telemetry(
        os.path.join(telemetry_dir, run_id), sample_interval=sample_interval
    )
    telemetry.arm(built)
    built.run()
    spec = built.spec
    manifest = telemetry.finalize(
        built.sim,
        run_id=run_id,
        seed=spec.seed,
        duration=spec.duration,
        **repro.build.manifest_payloads(spec),
    )
    return {
        "bundle_dir": telemetry.out_dir,
        "manifest": manifest.to_dict(),
        "summary": telemetry.summary(),
    }


@dataclass
class TableResult:
    """A titled table of result rows — the experiment's deliverable."""

    title: str
    headers: Sequence[str]
    rows: List[Tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *row) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(tuple(row))

    def to_csv(self) -> str:
        """Render as CSV (header row + data rows), for plotting tools."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def write_csv(self, path: str) -> None:
        """Write :meth:`to_csv` output to *path*."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv())

    def __str__(self) -> str:
        def fmt(cell) -> str:
            if isinstance(cell, float):
                return f"{cell:.4g}"
            return str(cell)

        cells = [[fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines)
