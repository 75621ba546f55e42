"""Repeatability of the ledger: two sets of N full runs of one commit.

    python3 benchmarks/ledger/repeat.py --runs 5 [--out REPORT.txt]

Workloads alternate inside each set, so a host phase shift lands on all
of them.  Per (workload, metric) the report gives each set's median and
quartiles, the between-set difference (positive when set B is worse) and
the bound from BENCHMARK.json.  Both sets are the same code, so a
difference beyond the bound in either direction is a failure: it exits
nonzero then, or when an exact metric differs between any two runs.

With ``--vary-seed`` every run takes another seed and the report adds the
spread the driver computes: (q3 - q1) / median over all runs.  Exact
metrics are then compared per seed only.

This is also the tool for sizing a later claim: section 8 of the
choosing-metrics guide wants the parent's own quartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import DECLARED, LEDGER, ROOT  # noqa: E402
from run import EXACT  # noqa: E402


def one_run(workload: str, seed: int, extra: List[str]) -> Dict[str, float]:
    command = [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
               "--seed", str(seed)] + extra
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-600:]}\n{done.stderr[-600:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in line["metrics"].items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: Optional[List[str]] = None) -> int:
    workloads = [w["name"] for w in DECLARED["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None, help="also write the report here")
    args = parser.parse_args(argv)
    extra = ["--smoke"] if args.smoke else []

    metrics = DECLARED["end_to_end"]
    # values[set][workload][metric] -> one value per run; seeds alongside
    values: List[Dict[str, Dict[str, List[float]]]] = [
        {w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(2)]
    seeds: List[Dict[str, List[int]]] = [{w: [] for w in workloads} for _ in range(2)]
    for which in range(2):
        for index in range(args.runs):
            for workload in workloads:
                seed = args.seed + (which * args.runs + index if args.vary_seed else 0)
                result = one_run(workload, seed, extra)
                for name, value in result.items():
                    values[which][workload][name].append(value)
                seeds[which][workload].append(seed)
                print(f"set {'AB'[which]} run {index + 1}/{args.runs} {workload} "
                      f"seed {seed}: unit_s={result['unit_s']:.4f}", file=sys.stderr)

    lines = [
        f"ledger repeatability: 2 sets x {args.runs} runs, seed {args.seed}"
        f"{' (varied per run)' if args.vary_seed else ''}"
        f"{', smoke scale' if args.smoke else ''}",
        "diff = how much worse (+) or better (-) set B's median is than set A's, as a "
        "share of A's; over the bound either way fails",
        "",
        f"{'workload':<20} {'metric':<22} {'A q1':>11} {'A median':>11} {'A q3':>11} "
        f"{'B q1':>11} {'B median':>11} {'B q3':>11} {'diff':>8} {'bound':>6} "
        f"{'spread':>7}  verdict",
    ]
    failed = False
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            a, b = values[0][workload][name], values[1][workload][name]
            qa, qb = quartiles(a), quartiles(b)
            diff = (qb[1] - qa[1]) / qa[1]
            if metric["better"] == "higher":
                diff = -diff
            everything = a + b
            q1, q2, q3 = quartiles(everything)
            spread = (q3 - q1) / q2
            verdict = "ok"
            if name in EXACT:
                by_seed: Dict[int, set] = {}
                for which in range(2):
                    for seed, value in zip(seeds[which][workload],
                                           values[which][workload][name]):
                        by_seed.setdefault(seed, set()).add(value)
                if any(len(v) > 1 for v in by_seed.values()):
                    verdict = "EXACT METRIC DIFFERS"
            if abs(diff) > metric["bound"]:
                verdict = "OVER BOUND"
            failed = failed or verdict != "ok"
            lines.append(
                f"{workload:<20} {name:<22} {qa[0]:>11.5g} {qa[1]:>11.5g} {qa[2]:>11.5g} "
                f"{qb[0]:>11.5g} {qb[1]:>11.5g} {qb[2]:>11.5g} {diff:>+8.2%} "
                f"{metric['bound']:>6.0%} {spread:>7.2%}  {verdict}")
    lines.append("")
    lines.append("FAILED" if failed else "all differences within their bounds; "
                 "exact metrics equal")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
