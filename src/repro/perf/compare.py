"""Diff two BENCH documents with per-benchmark regression thresholds.

``taq-perf compare baseline.json candidate.json`` renders a
per-benchmark table of wall time and event/packet rates with relative
deltas, and exits nonzero when any benchmark regressed beyond its
threshold or did different work.  Regression is judged on **wall time**
(the direct "did this change make the simulator slower" question);
rates are shown for context and memory is reported but never gated (RSS
is dominated by the interpreter and too platform-dependent to threshold
usefully).  The work itself is gated **exactly**: a benchmark's
``events`` and ``packets`` counts are seeded and clock-free, so at equal
``scale`` any difference is a behaviour change — a PR that moves them on
purpose re-records the baseline, as it would a golden.

Thresholds are deliberately generous by default (+50 % wall time) so CI
on shared runners only trips on step-change regressions, not scheduler
noise; ``--threshold`` tightens the default and ``--threshold-for
NAME=PCT`` overrides single benchmarks (micro-benchmarks with
sub-100 ms baselines usually need looser bounds than the long
scenarios).  Benchmarks present on only one side are reported and do
not fail the comparison — suites are allowed to grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

#: Default wall-time regression threshold: +50 % (see module docstring).
DEFAULT_THRESHOLD_PCT = 50.0


@dataclass
class BenchDelta:
    """One benchmark's baseline-vs-candidate comparison."""

    name: str
    base_wall_s: float
    cand_wall_s: float
    #: Relative wall-time change: +0.10 means 10 % slower.
    wall_delta: float
    base_events_per_sec: float
    cand_events_per_sec: float
    base_packets_per_sec: float
    cand_packets_per_sec: float
    threshold_pct: float
    regressed: bool
    #: The counts that differ at equal scale, as ``events 100 -> 101``
    #: ("" when none does, or a side does not record them).
    moved: str = ""

    @property
    def verdict(self) -> str:
        words = ["REGRESSED"] if self.regressed else []
        if self.moved:
            words.append(f"MOVED: {self.moved}")
        return "; ".join(words) or "ok"


@dataclass
class Comparison:
    """The full diff of two BENCH documents."""

    deltas: List[BenchDelta]
    only_in_baseline: List[str]
    only_in_candidate: List[str]

    @property
    def regressions(self) -> List[BenchDelta]:
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def moved(self) -> List[BenchDelta]:
        return [delta for delta in self.deltas if delta.moved]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.moved

    def verdict_lines(self, bold: str = "") -> List[str]:
        """``FAIL`` lines (slower, then different work), else ``OK``."""
        lines = []
        if self.regressions:
            names = ", ".join(delta.name for delta in self.regressions)
            lines.append(f"{bold}FAIL{bold}: {len(self.regressions)} "
                         f"regression(s): {names}")
        if self.moved:
            names = ", ".join(delta.name for delta in self.moved)
            lines.append(f"{bold}FAIL{bold}: {len(self.moved)} benchmark(s) did "
                         f"different work (events/packets moved; re-record the "
                         f"baseline if intended): {names}")
        return lines or [f"{bold}OK{bold}: {len(self.deltas)} benchmark(s) "
                         "within thresholds"]


def _relative(base: float, cand: float) -> float:
    if base <= 0:
        return 0.0
    return (cand - base) / base


def _moved(base: Mapping, cand: Mapping) -> str:
    if base.get("scale") != cand.get("scale"):
        return ""
    return ", ".join(
        f"{name} {base[name]} -> {cand[name]}" for name in ("events", "packets")
        if name in base and name in cand and base[name] != cand[name])


def compare_documents(
    baseline: Mapping,
    candidate: Mapping,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    per_benchmark_pct: Optional[Mapping[str, float]] = None,
) -> Comparison:
    """Compare two BENCH documents (see :func:`repro.perf.load_bench`).

    ``per_benchmark_pct`` maps benchmark name to an overriding wall-time
    threshold percentage; everything else uses ``threshold_pct``.
    """
    overrides: Dict[str, float] = dict(per_benchmark_pct or {})
    base_table = baseline["benchmarks"]
    cand_table = candidate["benchmarks"]
    deltas: List[BenchDelta] = []
    for name in sorted(set(base_table) & set(cand_table)):
        base, cand = base_table[name], cand_table[name]
        limit = overrides.get(name, threshold_pct)
        wall_delta = _relative(base["wall_time_s"], cand["wall_time_s"])
        deltas.append(
            BenchDelta(
                name=name,
                base_wall_s=base["wall_time_s"],
                cand_wall_s=cand["wall_time_s"],
                wall_delta=wall_delta,
                base_events_per_sec=base["events_per_sec"],
                cand_events_per_sec=cand["events_per_sec"],
                base_packets_per_sec=base["packets_per_sec"],
                cand_packets_per_sec=cand["packets_per_sec"],
                threshold_pct=limit,
                regressed=wall_delta * 100.0 > limit,
                moved=_moved(base, cand),
            )
        )
    return Comparison(
        deltas=deltas,
        only_in_baseline=sorted(set(base_table) - set(cand_table)),
        only_in_candidate=sorted(set(cand_table) - set(base_table)),
    )


def _rate(value: float) -> str:
    if value >= 1_000_000:
        return f"{value / 1_000_000:.2f}M/s"
    if value >= 1_000:
        return f"{value / 1_000:.1f}k/s"
    return f"{value:.0f}/s"


def render_comparison(comparison: Comparison) -> str:
    """Plain-text comparison table plus the verdict line."""
    lines = [
        f"{'benchmark':<32} {'base':>9} {'cand':>9} {'wall Δ':>8} "
        f"{'events/s':>10} {'limit':>7}  verdict"
    ]
    for delta in comparison.deltas:
        lines.append(
            f"{delta.name:<32} {delta.base_wall_s:>8.3f}s {delta.cand_wall_s:>8.3f}s "
            f"{delta.wall_delta * 100.0:>+7.1f}% "
            f"{_rate(delta.cand_events_per_sec):>10} "
            f"{delta.threshold_pct:>+6.0f}%  {delta.verdict}"
        )
    for name in comparison.only_in_baseline:
        lines.append(f"{name:<32} only in baseline (skipped)")
    for name in comparison.only_in_candidate:
        lines.append(f"{name:<32} only in candidate (skipped)")
    return "\n".join(lines + comparison.verdict_lines())


def render_markdown(comparison: Comparison) -> str:
    """GitHub-flavoured-markdown comparison table plus the verdict line.

    The shape CI writes to ``$GITHUB_STEP_SUMMARY``: one row per
    benchmark with wall times, the relative delta, both sides' rates
    and the applied threshold; regressed rows are bolded so they jump
    out of the job summary without opening the log.
    """
    lines = [
        "| benchmark | base wall | cand wall | wall Δ | events/s | packets/s | limit | verdict |",
        "|---|---:|---:|---:|---:|---:|---:|---|",
    ]
    for delta in comparison.deltas:
        failed = delta.regressed or delta.moved
        verdict = f"**{delta.verdict}**" if failed else "ok"
        name = f"**{delta.name}**" if failed else delta.name
        lines.append(
            f"| {name} "
            f"| {delta.base_wall_s:.3f}s "
            f"| {delta.cand_wall_s:.3f}s "
            f"| {delta.wall_delta * 100.0:+.1f}% "
            f"| {_rate(delta.base_events_per_sec)} → {_rate(delta.cand_events_per_sec)} "
            f"| {_rate(delta.base_packets_per_sec)} → {_rate(delta.cand_packets_per_sec)} "
            f"| +{delta.threshold_pct:.0f}% "
            f"| {verdict} |"
        )
    for name in comparison.only_in_baseline:
        lines.append(f"| {name} | — | — | — | — | — | — | only in baseline |")
    for name in comparison.only_in_candidate:
        lines.append(f"| {name} | — | — | — | — | — | — | only in candidate |")
    mark = "✅" if comparison.ok else "❌"
    return "\n".join(
        lines + [""] + [f"{mark} {line}" for line in comparison.verdict_lines("**")])


def parse_threshold_overrides(items: List[str]) -> Dict[str, float]:
    """Parse repeated ``--threshold-for NAME=PCT`` values."""
    overrides: Dict[str, float] = {}
    for item in items:
        name, sep, pct = item.partition("=")
        if not sep or not name:
            raise ValueError(f"expected NAME=PCT, got {item!r}")
        try:
            overrides[name] = float(pct)
        except ValueError:
            raise ValueError(f"threshold for {name!r} must be a number, got {pct!r}")
    return overrides


def compare_files(
    baseline_path: str,
    candidate_path: str,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    per_benchmark_pct: Optional[Mapping[str, float]] = None,
    markdown: bool = False,
) -> Tuple[Comparison, str]:
    """Load, compare and render two BENCH files.

    ``markdown=True`` renders the GitHub-table form (for
    ``$GITHUB_STEP_SUMMARY``) instead of the plain-text table.
    """
    from repro.perf.bench import load_bench

    comparison = compare_documents(
        load_bench(baseline_path),
        load_bench(candidate_path),
        threshold_pct=threshold_pct,
        per_benchmark_pct=per_benchmark_pct,
    )
    render = render_markdown if markdown else render_comparison
    return comparison, render(comparison)
