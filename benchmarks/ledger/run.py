"""Perf ledger v1: one run of one workload.

    python3 benchmarks/ledger/run.py --workload W --seed S [--seconds N] [--trace 0|1]

``--trace 0`` (the default) measures the end-to-end metrics with tracing
off; ``--trace 1`` is a separate traced run that produces the per-layer
metrics.  Both print a table, write the full run record under
``benchmarks/ledger/out/`` and end with one JSON line (``correct``,
``attempted``, ``failed``, ``metrics``).  The exit status is nonzero when
a check failed.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import clock  # noqa: E402
import units  # noqa: E402
from harness import (DECLARED, OUT, SRC, Checks, profile_unit, run_child,  # noqa: E402
                     sample_unit, total_calls, units_of)

#: Exact metrics: equal on every run of one seed, whatever the clock does.
EXACT = ("py_calls_per_pkt", "sim_short_jain")

#: ``rss_children``: how many of the set-up children also run one unit
#: for ``peak_rss_mb`` (it repeats to 0.1 MB, and the driver's time cap
#: has no room for nine extra units per run).
FULL = {"children": 9, "rss_children": 3, "min_slots": 8}
SMOKE = {"children": 2, "rss_children": 1, "min_slots": 4}


def paired_ratios(slots: List[Tuple[bool, Dict[str, float]]]) -> List[float]:
    """Each armed unit's raw seconds over the mean of its unarmed
    neighbours'.  Neighbours share the host's phase, so it cancels
    without help from the reference kernel."""
    ratios = []
    for index, (is_armed, sample) in enumerate(slots):
        if not is_armed:
            continue
        around = [slots[i][1]["raw"] for i in (index - 1, index + 1)
                  if 0 <= i < len(slots) and not slots[i][0]]
        if around:
            ratios.append(sample["raw"] / statistics.mean(around))
    return ratios


def measure(workload: Any, seconds: float, scale: Dict[str, int], workdir: str,
            checks: Checks) -> Tuple[Dict[str, float], Dict[str, Any]]:
    workload.prepare(workdir)

    children = [run_child(workload, workdir, index < scale["rss_children"])
                for index in range(scale["children"])]
    reference = workload.reference()
    checks.record("warm-up unit", [])
    # Profiled here, so the call count never depends on how many timed
    # units the clock let through before it.
    calls = total_calls(profile_unit(workload, checks))
    # Also warm the armed path: its first unit imports the observer families.
    sample_unit(workload, units.FAMILIES, checks, "armed warm-up unit")
    for index, child in enumerate(children[:scale["rss_children"]]):
        problems = []
        if child["key"] != repr(workload.expected):
            problems.append("outcome differs from the reference unit's")
        checks.record(f"child {index} unit", problems)

    # Every 4th slot is armed.  Slots keep their order: the armed ratio
    # pairs each armed unit with the unarmed units on either side of it.
    slots: List[Tuple[bool, Dict[str, float]]] = []
    deadline = perf_counter() + seconds
    slot = 0
    while slot < scale["min_slots"] or perf_counter() < deadline:
        is_armed = slot % 4 == 3
        sample = sample_unit(workload, units.FAMILIES if is_armed else (), checks,
                             f"slot {slot} ({'armed' if is_armed else 'unarmed'})")
        if sample is not None:
            slots.append((is_armed, sample))
        slot += 1
    unarmed = [sample for is_armed, sample in slots if not is_armed]
    armed = [sample for is_armed, sample in slots if is_armed]
    ratios = paired_ratios(slots)
    if not unarmed or not ratios:
        # The timed units raised: there is nothing to report but the failures.
        return {}, {}

    setup = clock.summarize([child["setup"] for child in children])
    unit = clock.summarize(unarmed)
    armed_summary = clock.summarize(armed)
    rss = [child["maxrss_kb"] / 1024.0 for child in children[:scale["rss_children"]]]
    metrics = {
        "setup_s": setup["median"],
        "unit_s": unit["median"],
        "sim_pkts_per_s": workload.packets / unit["median"],
        "armed_overhead_ratio": statistics.median(ratios),
        "peak_rss_mb": statistics.median(rss),
        "py_calls_per_pkt": calls / workload.packets,
        "sim_short_jain": workload.short_jain,
    }
    parent_refs = clock.ref_values(unarmed + armed)
    record = {
        "timings": {"setup_s": setup, "unit_s": unit, "armed_unit_s": armed_summary},
        "host": clock.drift_record(parent_refs),
        "packets_per_unit": workload.packets,
        "py_calls": calls,
        "children": children,
        "slots": [dict(sample, armed=is_armed) for is_armed, sample in slots],
        "reference": {k: reference[k] for k in ("events", "counts") if k in reference},
    }
    return metrics, record


def print_table(title: str, metrics: Dict[str, float], unit_of: Dict[str, str],
                record: Dict[str, Any], checks: Checks) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit_of[name]}")
    for name, summary in record.get("timings", {}).items():
        print(f"  [{name}: n={summary['n']} q25={summary['q25']:.4f} "
              f"p90={summary['p90']:.4f} raw_median={summary['raw_median']:.4f}]")
    if "host" in record:
        host = record["host"]
        kernel = host["ref_kernel_s"]
        print(f"  host.ref_kernel_s min={kernel['min']:.4f} q25={kernel['q25']:.4f} "
              f"max={kernel['max']:.4f} drift_warning={host['drift_warning']}")
    if "budget" in record:
        import layers

        layers.print_budget(record)
    print(f"  units_attempted {checks.attempted}  units_failed {checks.failed}")
    for failure in checks.failures[:20]:
        print(f"  FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=units.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed loop measures (default: the "
                             "run_seconds of BENCHMARK.json; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="3+1 units, 2 children, shortened scenarios")
    parser.add_argument("--no-check", dest="check", action="store_false",
                        help="report failed checks but exit 0")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(DECLARED["run_seconds"])
    scale = SMOKE if args.smoke else FULL

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    checks = Checks()
    workload = units.make_workload(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            import layers

            metrics, record = layers.trace(workload, seconds, args.smoke, workdir, checks)
        else:
            metrics, record = measure(workload, seconds, scale, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = checks.failed == 0
    tag = "trace" if args.trace else "e2e"
    unit_of = units_of("per_layer" if args.trace else "end_to_end")
    print_table(f"ledger {tag}: {args.workload} seed={args.seed} "
                f"seconds={seconds:g}{' smoke' if args.smoke else ''}",
                metrics, unit_of, record, checks)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "trace": args.trace, "metrics": metrics,
        "units_attempted": checks.attempted, "units_failed": checks.failed,
        "failures": checks.failures,
    })
    name = f"{args.workload}-seed{args.seed}-{tag}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=repr) + "\n",
                            encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": unit_of[key]}
                    for key, value in metrics.items()},
    }))
    return 0 if correct or not args.check else 1


if __name__ == "__main__":
    sys.exit(main())
