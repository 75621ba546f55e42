"""Deterministic ScenarioSpec fuzzer with greedy shrinking.

``taq-check fuzz --seed S --count N`` samples ``N`` random-but-valid
scenario documents (every one passes the strict
:class:`~repro.build.ScenarioSpec` validation), runs each with all
monitors armed in collect mode, and — when a run violates an invariant
— shrinks the document to a minimal reproducer that still triggers the
*same* monitor, writing both the spec and the violation record to disk.

Determinism contract: one ``random.Random(seed)`` master stream derives
a per-case seed (``seed * 1_000_003 + index``), and each case is
sampled from its own ``random.Random(case_seed)``.  The same
``--seed/--count`` therefore always produces the same campaign,
case-by-case, independent of which earlier cases violated.

Scenarios stay deliberately small (a few seconds of simulated time,
tens of flows, a ``max_events`` budget as a runaway backstop) so a
25-case smoke finishes in CI time while still crossing the paper's
sub-packet/small-packet/normal regime boundaries.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.build import ScenarioSpec, build_simulation
from repro.check.monitors import Violation
from repro.check.suite import attach_monitors

#: Event budget per fuzz case — far above anything a sampled scenario
#: legitimately needs, so hitting it means a runaway loop (itself a bug
#: worth a repro).
MAX_EVENTS = 2_000_000

QUEUE_KINDS = ("droptail", "red", "sfq", "taq", "taq+ac")

#: Queue kinds the mean-field backend has drop laws for — the fuzzer
#: only pairs ``backend: fluid`` with these (and with bulk-only
#: workloads, the fluid validity domain).
FLUID_QUEUE_KINDS = ("droptail", "red", "taq", "taq+ac")

#: Fraction of fuzz cases routed through the fluid backend, exercising
#: its conservation monitors and the shrinker on fluid repros.
FLUID_CASE_RATE = 0.25

#: One in this many fluid cases also runs an armed twin (telemetry
#: probes on) and asserts bit-identity with the unarmed run — the
#: fuzzer's standing check that observation never perturbs the fluid
#: integrator.  Keyed off the document seed so the choice is
#: deterministic per case, independent of campaign order.
PROBE_PARITY_MODULUS = 4


def sample_document(rng: random.Random, case_seed: int) -> Dict[str, Any]:
    """One random-but-valid scenario document.

    The sampling ranges deliberately straddle the paper's regime
    boundaries: capacities from 64 Kbps to 2 Mbps against 4-60 flows
    put cases on both sides of SPK(3).
    """
    capacity = rng.choice([64_000, 128_000, 250_000, 600_000, 1_000_000, 2_000_000])
    rtt = rng.choice([0.05, 0.1, 0.2, 0.4])
    pkt_size = rng.choice([250, 500, 1000])
    duration = rng.uniform(5.0, 20.0)
    fluid = rng.random() < FLUID_CASE_RATE
    queue_kind = rng.choice(FLUID_QUEUE_KINDS if fluid else QUEUE_KINDS)
    queue: Dict[str, Any] = {
        "kind": queue_kind,
        "buffer_rtts": rng.choice([0.5, 1.0, 2.0]),
    }
    if queue_kind == "taq+ac" and rng.random() < 0.5:
        queue["t_wait"] = rng.choice([1.0, 2.0, 3.0])

    workloads: List[Dict[str, Any]] = [
        {
            "type": "bulk",
            "n_flows": rng.randint(4, 60),
            "start_window": round(rng.uniform(0.5, 4.0), 3),
        }
    ]
    if not fluid and rng.random() < 0.4:
        workloads.append(
            {
                "type": "web",
                "n_users": rng.randint(1, 6),
                "objects_per_user": rng.randint(1, 4),
                "object_bytes": rng.choice([4_000, 12_000, 30_000]),
                "connections": rng.randint(1, 4),
                "start_window": round(rng.uniform(0.5, 4.0), 3),
            }
        )
    if not fluid and rng.random() < 0.3:
        workloads.append(
            {
                "type": "short",
                "lengths": [rng.randint(1, 20) for _ in range(rng.randint(1, 4))],
                "start_time": round(rng.uniform(0.5, 3.0), 3),
                "spacing": round(rng.uniform(0.2, 1.5), 3),
            }
        )
    backend: Dict[str, Any] = {}
    if fluid:
        backend = {"kind": "fluid"}
        if rng.random() < 0.5:
            backend["rtt_buckets"] = rng.choice([1, 2, 4])
        if rng.random() < 0.25:
            backend["wmax"] = rng.choice([6, 12, 24])
    document: Dict[str, Any] = {
        "name": f"fuzz-{case_seed}",
        "seed": case_seed % 100_000,
        "duration": round(duration, 3),
        "topology": {
            "type": "dumbbell",
            "capacity_bps": capacity,
            "rtt": rtt,
            "pkt_size": pkt_size,
        },
        "queue": queue,
        "workloads": workloads,
        "metrics": {"slice_seconds": 5.0},
    }
    if backend:
        document["backend"] = backend
    return document


def run_case(document: Dict[str, Any]) -> List[Violation]:
    """Build + run one document with every monitor armed (collect mode);
    returns the violations (empty on a clean run).

    Packet runs get the external monitor suite; fluid runs carry their
    own conservation monitors (mass, positivity, queue bounds) whose
    violations come back through the same :class:`Violation` type, so
    shrinking works unchanged on fluid repros.
    """
    spec = ScenarioSpec.from_document(document)
    built = build_simulation(spec)
    if getattr(built, "backend", "packet") == "fluid":
        built.run()
        violations = list(built.violations)
        if document.get("seed", 0) % PROBE_PARITY_MODULUS == 0:
            violations.extend(_probe_parity(spec, built))
        return violations
    built.sim.max_events = MAX_EVENTS
    suite = attach_monitors(built, mode="collect")
    built.run()
    suite.finalize()
    return suite.violations


def _probe_parity(spec: ScenarioSpec, unarmed) -> List[Violation]:
    """Re-run *spec* with fluid telemetry probes armed and compare
    bit-for-bit against the finished *unarmed* run."""
    from repro.fluid.probe import FluidProbe, fluid_results_differ
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.observe import subscribe

    armed = build_simulation(spec)
    subscribe(armed.model, FluidProbe(MetricsRegistry()))
    armed.run()
    differing = fluid_results_differ(unarmed.result, armed.result)
    if differing:
        return [
            Violation(
                "fluid-probe-parity",
                "armed fluid run diverged from unarmed on: "
                + ", ".join(differing),
            )
        ]
    return []


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def _candidates(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Strictly-smaller variants of *document*, most aggressive first.

    Greedy passes: drop a whole workload, halve flow counts and sizes,
    halve the duration.  Every candidate is a deep-copied valid
    document; invalid mutations are simply skipped by the shrinker when
    validation rejects them.
    """
    variants: List[Dict[str, Any]] = []

    def clone() -> Dict[str, Any]:
        return json.loads(json.dumps(document))

    workloads = document.get("workloads", [])
    if len(workloads) > 1:
        for index in range(len(workloads)):
            variant = clone()
            del variant["workloads"][index]
            variants.append(variant)
    for index, workload in enumerate(workloads):
        for key in ("n_flows", "n_users", "objects_per_user", "connections"):
            value = workload.get(key)
            if isinstance(value, int) and value > 1:
                variant = clone()
                variant["workloads"][index][key] = value // 2
                variants.append(variant)
        lengths = workload.get("lengths")
        if isinstance(lengths, list) and len(lengths) > 1:
            variant = clone()
            variant["workloads"][index]["lengths"] = lengths[: len(lengths) // 2]
            variants.append(variant)
    if document.get("duration", 0) > 2.0:
        variant = clone()
        variant["duration"] = round(document["duration"] / 2.0, 3)
        variants.append(variant)
    return variants


def _same_failure(violations: List[Violation], monitor: str) -> bool:
    return any(v.monitor == monitor for v in violations)


def shrink(
    document: Dict[str, Any],
    monitor: str,
    max_attempts: int = 200,
    runner=run_case,
) -> Dict[str, Any]:
    """Greedily minimize *document* while *monitor* still fires.

    ``runner`` is injected for tests (it must behave like
    :func:`run_case`).  The loop restarts from the first successful
    shrink each round and stops at a fixed point or after
    ``max_attempts`` candidate runs.
    """
    current = document
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _candidates(current):
            attempts += 1
            if attempts > max_attempts:
                break
            try:
                violations = runner(candidate)
            except Exception:
                continue  # invalid or crashing variant: not a shrink
            if _same_failure(violations, monitor):
                current = candidate
                progress = True
                break
    return current


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------

@dataclass
class CaseResult:
    """Outcome of one fuzz case."""

    index: int
    case_seed: int
    name: str
    violations: List[Violation] = field(default_factory=list)
    repro_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignResult:
    """Outcome of a whole fuzz campaign."""

    seed: int
    count: int
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CaseResult]:
        return [c for c in self.cases if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def write_repro(
    directory: str, case: CaseResult, document: Dict[str, Any]
) -> str:
    """Persist the shrunk document plus a violation sidecar; returns the
    repro path."""
    os.makedirs(directory, exist_ok=True)
    stem = f"repro-case{case.index:03d}"
    repro_path = os.path.join(directory, f"{stem}.json")
    with open(repro_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    sidecar = os.path.join(directory, f"{stem}.violations.json")
    with open(sidecar, "w", encoding="utf-8") as handle:
        json.dump(
            [v.to_document() for v in case.violations],
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    return repro_path


def run_campaign(
    seed: int,
    count: int,
    out_dir: str = "fuzz-repros",
    runner=run_case,
    log=None,
) -> CampaignResult:
    """The ``taq-check fuzz`` engine: sample, run, shrink, persist."""
    campaign = CampaignResult(seed=seed, count=count)
    for index in range(count):
        case_seed = seed * 1_000_003 + index
        rng = random.Random(case_seed)
        document = sample_document(rng, case_seed)
        try:
            violations = runner(document)
        except Exception as exc:  # a crash is a failure with context
            violations = [
                Violation("crash", f"{type(exc).__name__}: {exc}")
            ]
        case = CaseResult(
            index=index,
            case_seed=case_seed,
            name=document["name"],
            violations=violations,
        )
        if violations:
            monitor = violations[0].monitor
            minimal = (
                document if monitor == "crash"
                else shrink(document, monitor, runner=runner)
            )
            case.repro_path = write_repro(out_dir, case, minimal)
        campaign.cases.append(case)
        if log is not None:
            status = "ok" if case.ok else f"VIOLATION ({case.violations[0].monitor})"
            log(f"[{index + 1}/{count}] {document['name']}: {status}")
    return campaign
