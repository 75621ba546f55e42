"""What both kinds of run share: paths, the check tally, and the three
ways a unit is executed (in a fresh interpreter, timed, under cProfile)."""

from __future__ import annotations

import cProfile
import gc
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import clock

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SRC = ROOT / "src"
OUT = LEDGER / "out"

#: The one place workloads, metric names, units and bounds are written down.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units_of(section: str) -> Dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


class Checks:
    """Units attempted and the ones that failed their check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.failed = 0

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {problem}" for problem in problems)


def run_child(workload: Any, workdir: str, with_unit: bool) -> Dict[str, Any]:
    """One fresh interpreter: set-up timing, then (*with_unit*) one
    unarmed unit and the peak RSS after it."""
    command = [
        sys.executable, str(LEDGER / "child.py"), str(SRC), workload.name,
        str(workload.seed), "1" if workload.smoke else "0", workdir,
        "1" if with_unit else "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def sample_unit(workload: Any, arm: Sequence[str], checks: Checks, what: str,
                run: Optional[Callable[[Any], Any]] = None) -> Optional[Dict[str, float]]:
    """One timed, drift-bracketed unit with the *arm* observer families
    switched on (through *run*, when the caller wraps ``workload.run``);
    None when it raised."""
    run = run or workload.run
    state = workload.begin(arm)
    result = sample = None
    try:
        result, sample = clock.timed(lambda: run(state))
    except Exception as exc:  # a unit that raises is a failed unit, not a crash
        problems = [f"raised {exc!r}"]
        workload.finish(state, None)
    else:
        problems = workload.finish(state, result)
    checks.record(what, problems)
    return sample


def profile_unit(workload: Any, checks: Checks) -> List[Any]:
    """One extra untimed unarmed unit under cProfile; the profiler's raw
    entries.  Not ``pstats``: it keys entries by (file, line, name), and
    every dataclass ``__init__`` is ("<string>", 2, "__init__"), so which
    one survives depends on allocation addresses and the total call count
    moved by 498 between processes."""
    state = workload.begin(())
    profiler = cProfile.Profile()
    gc.collect()
    profiler.enable()
    try:
        result = workload.run(state)
    finally:
        profiler.disable()
    checks.record("profiled unit", workload.finish(state, result))
    return profiler.getstats()


def total_calls(entries: List[Any]) -> int:
    return sum(entry.callcount for entry in entries)
