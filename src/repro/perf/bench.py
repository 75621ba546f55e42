"""The benchmark registry, the count runner, the ``BENCH_*.json``
document and its exact differ.

A benchmark is a named, deterministic unit of simulator work: the
function builds everything it needs from fixed seeds, runs it, and
returns how much work that was (events processed, packets handled).
The runner adds the third count, the Python calls the run made, and
reads no clock: every number in a BENCH document is the same to the
unit on every run of one tree, so two runs write byte-identical files,
the committed baseline (``BENCH_22.json`` at the repo root) is
re-recorded like a golden, and ``taq-perf compare`` is ``==``.  What a
run *takes* — wall time, rates, resident memory — is
``benchmarks/ledger``'s to measure (docs/performance.md).

A ``scale`` knob multiplies each benchmark's problem size so tests can
run the full suite in milliseconds (``scale=0.02``) while CI and the
committed baseline use the default size; counts are compared at equal
scale only.

Benchmarks register via the :func:`benchmark` decorator and live in
:mod:`repro.perf.suite`; :func:`load_suite` imports that module so the
registry fills on demand (the same lazy pattern as
``repro.build.load_builtins``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Bump when the BENCH document layout changes incompatibly.  Version 1
#: rows also carried wall time, rates and peak RSS and no ``calls``;
#: they still load, and compare on ``events`` and ``packets``.
BENCH_SCHEMA_VERSION = 2
BENCH_SCHEMA = "repro.perf.bench"
#: The committed baseline at the repo root.
DEFAULT_BENCH_NAME = "BENCH_22.json"
#: The counts a row records, in the order ``compare`` reports them.
COUNTS = ("events", "packets", "calls")


@dataclass
class BenchCounts:
    """How much simulated work one benchmark run performed."""

    events: int = 0
    packets: int = 0


#: A benchmark body: ``fn(scale) -> BenchCounts``.  Must be
#: deterministic for a given scale (fixed seeds, no wall-clock reads
#: that influence behaviour).
BenchFn = Callable[[float], BenchCounts]


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark."""

    name: str
    fn: BenchFn
    group: str
    description: str


#: name -> benchmark, filled by :func:`benchmark` at suite import.
BENCHMARKS: Dict[str, Benchmark] = {}


def benchmark(name: str, group: str = "misc", description: str = ""):
    """Register the decorated function as benchmark *name*."""

    def decorate(fn: BenchFn) -> BenchFn:
        if name in BENCHMARKS:
            raise ValueError(f"duplicate benchmark {name!r}")
        doc = description or (fn.__doc__ or "").strip().splitlines()[0:1]
        BENCHMARKS[name] = Benchmark(
            name=name,
            fn=fn,
            group=group,
            description=doc if isinstance(doc, str) else (doc[0] if doc else ""),
        )
        return fn

    return decorate


def load_suite() -> Dict[str, Benchmark]:
    """Import the shipped suite so :data:`BENCHMARKS` is populated."""
    import repro.perf.suite  # noqa: F401  (registration side effect)

    return BENCHMARKS


def get_benchmark(name: str) -> Benchmark:
    registry = load_suite()
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown benchmark {name!r} (known: {known})") from None


def count_calls(fn: Callable[[], Any], only_under: Optional[str] = None) -> Tuple[int, Any]:
    """Calls made while *fn* runs, and *fn*'s result: Python frames plus
    calls into builtins, the way the perf ledger's ``py_calls_per_pkt``
    counts them.  With *only_under*, only frames of files under that
    directory and the builtins they call."""
    calls = [0]

    def profiler(frame, event, arg):
        # For "c_call" the frame is the caller's.
        if (event == "call" or event == "c_call") and (
            only_under is None or frame.f_code.co_filename.startswith(only_under)
        ):
            calls[0] += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls[0], result


@dataclass
class BenchResult:
    """What one benchmark did at one scale, in counts every run agrees on."""

    name: str
    group: str
    scale: float
    events: int
    packets: int
    #: Python calls in this process; ``parallel_sweep``'s points run in
    #: pool workers, so its count is the parent-side dispatch alone.
    calls: int


def run_benchmark(bench: Benchmark, scale: float = 1.0) -> BenchResult:
    """Count *bench* at *scale*.

    One uncounted warm-up call first, at the smallest scale that will
    do: what a process pays once — the numpy / ``repro.fluid`` import
    behind the first fluid build, registry loads, the pool machinery's
    imports — would otherwise land in whichever benchmark ran first, and
    ``calls`` would depend on what ran before.
    """
    bench.fn(0.01)
    calls, counts = count_calls(lambda: bench.fn(scale))
    return BenchResult(name=bench.name, group=bench.group, scale=scale,
                       events=counts.events, packets=counts.packets, calls=calls)


def run_suite(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    log: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run the named benchmarks (default: all) in sorted name order."""
    results: List[BenchResult] = []
    for name in names or sorted(load_suite()):
        result = run_benchmark(get_benchmark(name), scale=scale)
        if log is not None:
            log(f"[bench] {name} (scale={scale:g}): {result.events:,} events, "
                f"{result.packets:,} packets, {result.calls:,} calls")
        results.append(result)
    return results


# ----------------------------------------------------------------------
# BENCH document io
# ----------------------------------------------------------------------
def bench_document(results: Sequence[BenchResult]) -> Dict:
    """Assemble the schema-versioned BENCH document: nothing in it but
    what the tree and the interpreter's minor version determine."""
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "python": "%d.%d" % sys.version_info[:2],
        "benchmarks": {result.name: asdict(result) for result in results},
    }


def write_bench(document: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict:
    """Load and validate a BENCH document written by :func:`write_bench`."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"not a BENCH document: {path}")
    version = document.get("schema_version", 0)
    if version > BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"BENCH schema v{version} is newer than supported v{BENCH_SCHEMA_VERSION}"
        )
    if not isinstance(document.get("benchmarks"), dict):
        raise ValueError(f"BENCH document without a benchmarks table: {path}")
    return document


# ----------------------------------------------------------------------
# The exact differ (``taq-perf compare``)
# ----------------------------------------------------------------------
@dataclass
class BenchDelta:
    """One benchmark's row of a comparison."""

    name: str
    #: The counts held to ``==``: those both rows record, at equal scale.
    compared: List[str]
    #: The compared counts that differ, each as ``calls 500150 -> 500162``.
    moved: List[str]
    #: Why a count was left out: one-sided row, other scale, other python.
    note: str = ""

    @property
    def verdict(self) -> str:
        moved = f"MOVED: {', '.join(self.moved)}" if self.moved else ""
        return "; ".join(filter(None, (moved, self.note))) or "ok"


@dataclass
class Comparison:
    """The diff of two BENCH documents: a row per benchmark either names."""

    deltas: List[BenchDelta]

    @property
    def compared(self) -> List[BenchDelta]:
        return [delta for delta in self.deltas if delta.compared]

    @property
    def moved(self) -> List[BenchDelta]:
        return [delta for delta in self.deltas if delta.moved]

    @property
    def ok(self) -> bool:
        """Every compared count equal — and something compared: an OK
        that held nothing to account is how a gate dies."""
        return bool(self.compared) and not self.moved

    def verdict_line(self) -> str:
        if self.moved:
            names = ", ".join(delta.name for delta in self.moved)
            return (f"FAIL: {len(self.moved)} benchmark(s) moved, up or down "
                    f"(re-record the baseline if intended): {names}")
        if not self.compared:
            return "FAIL: nothing compared: no benchmark on both sides at equal scale"
        return f"OK: {len(self.compared)} benchmark(s), every compared count equal"


def _delta(name: str, base: Optional[Mapping], cand: Optional[Mapping],
           pythons: Tuple) -> BenchDelta:
    if base is None or cand is None:
        side = "candidate" if base is None else "baseline"
        return BenchDelta(name, [], [], f"only in {side} (skipped)")
    if base.get("scale") != cand.get("scale"):
        return BenchDelta(name, [], [], "not compared: scale "
                          f"{base.get('scale')} vs {cand.get('scale')}")
    compared = [count for count in COUNTS if count in base and count in cand]
    note = ""
    if "calls" in compared and pythons[0] != pythons[1]:
        # Whether two interpreter versions make the same calls is not
        # known; one version does, so only that is held to ==.
        compared.remove("calls")
        note = (f"calls {base['calls']} vs {cand['calls']} not gated: "
                f"python {pythons[0]} vs {pythons[1]}")
    moved = [f"{count} {base[count]} -> {cand[count]}"
             for count in compared if base[count] != cand[count]]
    return BenchDelta(name, compared, moved, note)


def compare_documents(baseline: Mapping, candidate: Mapping) -> Comparison:
    """``==`` on every count two loaded BENCH documents both record, per
    benchmark at equal ``scale``; ``calls`` only when both name the same
    ``python``.  A benchmark on one side only is listed, not compared:
    suites are allowed to grow."""
    base_table = baseline["benchmarks"]
    cand_table = candidate["benchmarks"]
    pythons = (baseline.get("python"), candidate.get("python"))
    return Comparison([
        _delta(name, base_table.get(name), cand_table.get(name), pythons)
        for name in sorted(set(base_table) | set(cand_table))])


def render_comparison(comparison: Comparison) -> str:
    """One row per benchmark — what was compared, which count moved —
    plus the verdict line."""
    lines = [f"{'benchmark':<32} {'compared':<21} verdict"]
    lines += [f"{delta.name:<32} {' '.join(delta.compared) or '-':<21} {delta.verdict}"
              for delta in comparison.deltas]
    return "\n".join(lines + [comparison.verdict_line()])
