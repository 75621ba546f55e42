"""The four workloads: inputs made from the seed, one unit of each, its check.

Nothing here imports ``repro`` at module level: the set-up children time
that import, so every ``repro`` import sits inside the function that
needs it.  The harness calls public functions only (``repro.build``,
``repro.experiments``, ``repro.parallel``, ``repro.obs``, ``repro.perf``,
``repro.check``) and times them from outside.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The observer families an armed unit switches on, by their public arming call.
FAMILIES = ("probe", "spans", "monitors", "telemetry")

SpanFn = Callable[[str], Any]


@contextmanager
def _no_span(name: str) -> Iterator[None]:
    yield


def derived_seed(workload: str, seed: int, index: int = 0) -> int:
    """Scenario seed for (*workload*, ``--seed``, *index*); the program
    only ever sees these."""
    return random.Random(f"{workload}/{seed}/{index}").randrange(1, 2**31 - 1)


# ----------------------------------------------------------------------
# Packet workloads: one ScenarioSpec, unit = run_scenario(spec)
# ----------------------------------------------------------------------
def _bulk_document(name: str, kind: str, seed: int, duration: float,
                   slice_seconds: float) -> Dict[str, Any]:
    # 600 kbps / 100 flows / 200-byte packets / 200 ms RTT: a fair share
    # of 0.75 packets per RTT, the paper's sub-packet regime.
    return {
        "name": name,
        "seed": seed,
        "duration": duration,
        "topology": {"type": "dumbbell", "capacity_bps": 600_000, "rtt": 0.2,
                     "pkt_size": 200},
        "queue": {"kind": kind},
        "workloads": [{"type": "bulk", "n_flows": 100}],
        "metrics": {"slice_seconds": slice_seconds},
    }


def _web_document(name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    # Steady arrivals of small objects that all complete (so the work is
    # the same on every seed) plus a deterministic flash crowd of short
    # probes in mid-arrival that pushes loss over the admission threshold
    # (so SYNs are refused on every seed).
    users, burst, burst_at, window, duration = (
        (50, 40, 3.0, 10.0, 20.0) if smoke else (100, 60, 8.0, 20.0, 32.0))
    return {
        "name": name,
        "seed": seed,
        "duration": duration,
        "topology": {"type": "dumbbell", "capacity_bps": 1_000_000, "rtt": 0.2,
                     "pkt_size": 500},
        "queue": {"kind": "taq+ac", "p_thresh": 0.02, "t_wait": 2.0,
                  "measure_interval": 1.0},
        "workloads": [
            {"type": "web", "n_users": users, "objects_per_user": 5,
             "object_bytes": 2500, "connections": 4,
             "start_window": window},
            {"type": "short", "lengths": [20] * burst, "start_time": burst_at,
             "spacing": 0.02},
        ],
        "metrics": {"slice_seconds": 4.0},
    }


def packet_document(name: str, seed: int, smoke: bool) -> Dict[str, Any]:
    scenario_seed = derived_seed(name, seed)
    if name == "spk_bulk_taq":
        return _bulk_document(name, "taq", scenario_seed,
                              4.0 if smoke else 15.0, 1.0 if smoke else 3.0)
    if name == "spk_bulk_droptail":
        return _bulk_document(name, "droptail", scenario_seed,
                              6.0 if smoke else 40.0, 1.5 if smoke else 5.0)
    if name == "web_churn_taq_ac":
        return _web_document(name, scenario_seed, smoke)
    raise KeyError(name)


def _outcome_key(outcome: Any) -> Tuple:
    return (
        outcome.short_term_jain,
        outcome.long_term_jain,
        outcome.utilization,
        outcome.loss_rate,
        outcome.timeouts,
        outcome.completed_transfers,
        outcome.total_transfers,
    )


class PacketWorkload:
    """``spk_bulk_taq``, ``spk_bulk_droptail`` and ``web_churn_taq_ac``."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.document = packet_document(name, seed, smoke)
        self.spec: Any = None
        #: Set by :meth:`reference`: what every later unit must reproduce.
        self.expected: Optional[Tuple] = None
        #: Events per arming: telemetry's sampler schedules its own.
        self.events: Dict[Tuple[str, ...], int] = {}
        self.packets = 0

    # -- lifecycle -------------------------------------------------------
    def prepare(self, workdir: str) -> None:
        from repro.build import ScenarioSpec

        self.spec = ScenarioSpec.from_document(self.document)

    def ready(self) -> Any:
        """What a set-up child times after its imports: a built scenario."""
        from repro.build import build_simulation

        self.prepare("")
        return build_simulation(self.spec)

    # -- units -----------------------------------------------------------
    def staged(self, arm: Sequence[str] = (), span: SpanFn = _no_span) -> Dict[str, Any]:
        """One unit as build / run / reduce, with *arm* families switched
        on through their public arming calls.  The reduction calls the
        same public metric functions ``run_scenario`` uses."""
        from repro.build import build_simulation
        from repro.build.harness import manifest_payloads

        spec = self.spec
        with ExitStack() as stack:
            probe = suite = telemetry = None
            if "probe" in arm:
                from repro.perf import profiled

                probe = stack.enter_context(profiled())
            if "spans" in arm:
                from repro.obs import recording

                stack.enter_context(recording())
            with span("build"):
                built = build_simulation(spec)
            if "monitors" in arm:
                from repro.check import attach_monitors

                suite = attach_monitors(built, mode="collect")
            if "telemetry" in arm:
                from repro.obs import (Telemetry, instrument_flows,
                                       instrument_link, instrument_queue)

                telemetry = Telemetry(None, sample_interval=1.0)
                telemetry.attach(built.sim)
                instrument_queue(telemetry, built.queue)
                instrument_link(telemetry, built.topology.forward, name="bottleneck")
                instrument_flows(telemetry, built.all_flows())
            with span("run"):
                built.run()
            with span("reduce"):
                if suite is not None:
                    suite.finalize()
                if telemetry is not None:
                    telemetry.finalize(built.sim, run_id=spec.name, seed=spec.seed,
                                       duration=spec.duration,
                                       **manifest_payloads(spec))
                flows = built.all_flows()
                ids = [flow.flow_id for flow in flows]
                sized = [flow for flow in flows if flow.size_segments is not None]
                key = (
                    built.collector.mean_short_term_jain(ids),
                    built.collector.long_term_jain(ids),
                    built.topology.forward.stats.utilization(
                        spec.topology.capacity_bps, spec.duration),
                    built.queue.loss_rate(),
                    sum(flow.sender.stats.timeouts for flow in flows),
                    sum(1 for flow in sized if flow.done),
                    len(sized),
                )
        link = built.topology.forward.stats
        return {
            "key": key,
            "arm": tuple(arm),
            "events": built.sim.processed,
            "packets": link.arrived,
            "violations": len(suite.violations) if suite is not None else 0,
            "counts": {
                "dropped": link.dropped,
                "flows_started": len(flows),
                "transfers_completed": key[5],
                "timeouts": key[4],
                "retransmits": sum(flow.sender.stats.retransmits for flow in flows),
                "data_sent": sum(flow.sender.stats.data_sent for flow in flows),
                "admission_refusals": getattr(built.queue, "admission_refusals", 0),
                "probe": probe.counter_summary() if probe is not None else {},
            },
        }

    def reference(self) -> Dict[str, Any]:
        """The untimed warm-up unit; fixes what every other unit must equal."""
        result = self.staged()
        self.expected = result["key"]
        self.packets = result["packets"]
        return result

    @property
    def short_jain(self) -> float:
        return self.expected[0]

    def begin(self, arm: Sequence[str] = ()) -> Sequence[str]:
        return arm

    def run(self, arm: Sequence[str], span: SpanFn = _no_span) -> Dict[str, Any]:
        """The unit: ``run_scenario(spec)``.  Armed or traced units need
        the built scenario in hand, so they go through :meth:`staged`."""
        if arm or span is not _no_span:
            return self.staged(arm, span)
        from repro.experiments.scenario import run_scenario

        return {"key": _outcome_key(run_scenario(self.spec))}

    def finish(self, arm: Sequence[str], result: Optional[Dict[str, Any]]) -> List[str]:
        return self.verify(result) if result is not None else []

    def verify(self, result: Dict[str, Any]) -> List[str]:
        failures = []
        if result["key"] != self.expected:
            failures.append(f"outcome {result['key']} != reference {self.expected}")
        if "events" in result:
            events = self.events.setdefault(result["arm"], result["events"])
            if result["events"] != events:
                failures.append(f"events {result['events']} != {events} of the first "
                                f"unit armed {result['arm']}")
        if result.get("packets", self.packets) != self.packets:
            failures.append(f"packets {result['packets']} != reference {self.packets}")
        if result.get("violations"):
            failures.append(f"{result['violations']} monitor violation(s)")
        if self.name == "web_churn_taq_ac" and "counts" in result:
            counts = result["counts"]
            if counts["admission_refusals"] < 1:
                failures.append("no admission refusal")
            if not self.smoke and counts["transfers_completed"] < 300:
                failures.append(f"only {counts['transfers_completed']} transfers completed")
        return failures


# ----------------------------------------------------------------------
# sweep_resume: a mostly cached sweep resumed through the job store
# ----------------------------------------------------------------------
SWEEP_FN = "repro.experiments.sweeps:run_sweep_point"
_SWEEP_CAPACITIES = (100_000.0, 200_000.0)
_SWEEP_SHARES = (20_000.0, 25_000.0, 50_000.0)
_SWEEP_PKT_BITS = 500 * 8


def sweep_points(seed: int, smoke: bool) -> List[Dict[str, Any]]:
    """900 fig02-style points (90 at smoke scale); the last ninth is cold."""
    total = 90 if smoke else 900
    points = []
    for index in range(total):
        points.append({
            "fn": SWEEP_FN,
            "kwargs": {
                "kind": "droptail",
                "capacity_bps": _SWEEP_CAPACITIES[index % 2],
                "fair_share_bps": _SWEEP_SHARES[index // 2 % 3],
                "duration": 2.0,
                "slice_seconds": 0.5,
                "seed": derived_seed("sweep_resume", seed, index),
            },
            "label": f"p{index:03d}",
            "cold": index >= total - total // 9,
        })
    return points


class SweepWorkload:
    """``sweep_resume``: what ``taq-experiments --resume DIR --bus-dir DIR``
    runs on a mostly cached sweep (``experiments/cli.py`` hands the store
    to every runner through ``$TAQ_JOB_STORE``): open the result cache and
    the job store, then one ``ParallelRunner.run`` of all the points on
    the calling thread, with a progress callback as the CLI passes one.

    Every unit runs in the one root of the run, reset between units to
    "800 results cached, no job logged": the cold entries and the job
    log are removed, the bus files stay (a resumed sweep appends to the
    ones it finds).  Copying and deleting a whole root per unit was
    tried first; on this host's ext4 the deletions slowed the next
    unit's file creation by 2x for tens of seconds.
    """

    name = "sweep_resume"

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.points = sweep_points(seed, smoke)
        self.cold = [p for p in self.points if p["cold"]]
        self.root = ""
        self.expected: Optional[Tuple] = None
        self.packets = 0
        self.short_jain = 0.0

    def specs(self, points: Sequence[Dict[str, Any]],
              telemetry_dir: Optional[str] = None) -> List[Any]:
        """*points* as PointSpecs; *telemetry_dir* arms the cold ones."""
        from repro.parallel import PointSpec

        out = []
        for point in points:
            kwargs = point["kwargs"]
            if telemetry_dir is not None and point["cold"]:
                kwargs = dict(kwargs, telemetry_dir=telemetry_dir, sample_interval=0.5)
            out.append(PointSpec(point["fn"], kwargs, point["label"]))
        return out

    # -- lifecycle -------------------------------------------------------
    def prepare(self, workdir: str, populated: bool = False) -> None:
        """Compute the cached points once into the root (or adopt the
        root a parent process already populated)."""
        self.root = os.path.join(workdir, "resume")
        if populated:
            return
        cache = self.cache()
        for spec in self.specs([p for p in self.points if not p["cold"]]):
            start = time.perf_counter()
            value = spec.resolve()(**spec.kwargs)
            cache.put(spec, value, time.perf_counter() - start)

    def cache(self) -> Any:
        from repro.parallel import ResultCache

        return ResultCache(os.path.join(self.root, "cache"))

    def open(self, progress: Any = None, perf: Any = None) -> Tuple[Any, Any]:
        """Job store and runner on the root's cache."""
        from repro.parallel import JobStore, ParallelRunner

        cache = self.cache()
        store = JobStore(os.path.join(self.root, "jobs"), version=cache.version)
        runner = ParallelRunner(jobs=1, cache=cache, store=store, keep_going=True,
                                progress=progress, perf=perf,
                                bus_dir=os.path.join(self.root, "bus"))
        return store, runner

    def ready(self) -> Any:
        """What a set-up child times after its imports: the opened root."""
        return self.open()

    # -- units -----------------------------------------------------------
    def begin(self, arm: Sequence[str] = ()) -> Dict[str, Any]:
        """Monitors have no public arming call that reaches a sweep
        point, so an armed sweep unit has three families."""
        state: Dict[str, Any] = {"arm": tuple(arm), "telemetry_dir": None}
        if "telemetry" in arm:
            state["telemetry_dir"] = os.path.join(self.root, "telemetry")
        return state

    def run(self, state: Dict[str, Any], span: SpanFn = _no_span) -> Dict[str, Any]:
        hits = len(self.points) - len(self.cold)
        specs = self.specs(self.points, state["telemetry_dir"])
        with ExitStack() as stack:
            # Ambient, so probe and recorder arm every cold point's simulation.
            probe = None
            if "probe" in state["arm"]:
                from repro.perf import profiled

                probe = stack.enter_context(profiled())
            if "spans" in state["arm"]:
                from repro.obs import recording

                stack.enter_context(recording())
            phase = ExitStack()

            def progress(done: int, total: int, result: Any) -> None:
                # The runner serves every hit before it computes a point.
                if done == hits:
                    phase.close()
                    phase.enter_context(span("cold"))

            with span("open"):
                store, runner = self.open(progress, probe)
            with phase:
                phase.enter_context(span("cached"))
                results = runner.run(specs)
        return {"results": results, "counts": store.counts()}

    def finish(self, state: Dict[str, Any], result: Optional[Dict[str, Any]]
               ) -> List[str]:
        cache = self.cache()
        try:
            return self.verify(state, cache, result) if result is not None else []
        finally:
            # Armed cold points are cached under their own keys.
            for spec in self.specs(self.cold, state["telemetry_dir"]):
                cache.delete_blob(cache.key(spec))
            shutil.rmtree(os.path.join(self.root, "jobs"), ignore_errors=True)

    def verify(self, state: Dict[str, Any], cache: Any, result: Dict[str, Any]
               ) -> List[str]:
        total, cold = len(self.points), len(self.cold)
        failures = []
        counts = result["counts"]
        if counts.get("done") != total or counts.get("failed"):
            failures.append(f"job states {counts}, want {total} done and 0 failed")
        cached = sum(1 for r in result["results"] if r.cached)
        if cached != total - cold:
            failures.append(f"{cached} results served from cache, want {total - cold}")
        # Every cold value reads back through ``cache.get``, telemetry
        # payload stripped so armed and unarmed values compare equal.
        values = []
        for spec in self.specs(self.cold, state["telemetry_dir"]):
            hit = cache.get(spec)
            if hit is None:
                return failures + ["a cold value is missing from the cache"]
            values.append(dataclasses.replace(hit[0], telemetry=None))
        if self.expected is None:
            self.expected = tuple(values)
        elif tuple(values) != self.expected:
            failures.append("cold values differ from the reference unit's")
        result["cold_compute_s"] = sum(
            r.wall_time for r in result["results"] if not r.cached)
        return failures

    def reference(self) -> Dict[str, Any]:
        """The untimed warm-up unit.  Packets and Jain index are totalled
        over all 900 results, because the 100 cold points alone move by
        8-11% with the seed."""
        state = self.begin()
        result = self.run(state)
        failures = self.finish(state, result)
        values = [r.value for r in result["results"]]
        if failures or len(values) != len(self.points):
            raise RuntimeError("; ".join(failures) or "a result is missing")
        self.short_jain = sum(v.short_term_jain for v in values) / len(values)
        # SweepPoint carries no packet count; delivered packets follow
        # from utilization x capacity x duration.
        self.packets = sum(
            round(v.utilization * v.capacity_bps * p["kwargs"]["duration"]
                  / _SWEEP_PKT_BITS)
            for v, p in zip(values, self.points))
        return result


PACKET_WORKLOADS = ("spk_bulk_taq", "spk_bulk_droptail", "web_churn_taq_ac")
WORKLOADS = PACKET_WORKLOADS + ("sweep_resume",)


def make_workload(name: str, seed: int, smoke: bool) -> Any:
    if name in PACKET_WORKLOADS:
        return PacketWorkload(name, seed, smoke)
    if name == "sweep_resume":
        return SweepWorkload(name, seed, smoke)
    raise KeyError(name)
