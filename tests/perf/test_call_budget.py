"""Clock-free cost bounds: Python calls per packet, counted not timed.

This host's clock drifts by ±20% between runs (docs/performance.md), so
the two bounds ROADMAP item 2 states for TAQ are pinned as call counts,
which repeat exactly:

- per-packet cost in ``repro.core`` is flat in the number of tracked
  flows (10^4 flows within 1.2x of 10^2): met, and pinned here;
- a saturated TAQ queue costs at most 3x a saturated DropTail queue:
  **not met**.  DropTail is 3.3 calls per packet, so 3x is 10 calls
  for flow lookup, epoch roll-over, RTT sampling, classification and
  the five-class scheduler together.  The running counters took TAQ
  from 66 calls (19.8x) to 19.5 (5.9x); a 6x bound pins that, and the
  3x target stands next to it as a strict xfail, so closing it (ROADMAP
  item 2) shows up in the suite.

The same counter pins what a packet costs end to end, unarmed and
armed (ROADMAP items 2(a) and 3(b)), on the ledger's bulk workload cut
to ten simulated seconds: 100 flows at 0.75 packets per RTT.

- unarmed, at most 46 calls per packet behind DropTail and 82 behind
  TAQ (78.4 and 114.9 before the sender, clock, link and collector hops
  each became one frame per step);
- with all four observer families on, at most 50 and 62 calls per
  packet more than unarmed (120 and 171 before the per-event checks
  shared one frame and the span recorder became a flat log).  Counted
  as a difference, not a ratio: a ratio would punish every call the
  unarmed path sheds;
- a spans-armed run keeps no object the cyclic collector tracks per
  packet (about three per span before);
- recording *and* writing ``spans.jsonl`` costs no more calls than it
  did when every span was an object — the flat log removed work, it
  did not move it to the reader.

And what the sweep plane costs per point it does *not* compute (ROADMAP
item 4): a resumed, fully cached sweep through the dir store, the job
store and the progress bus — the ledger's ``sweep_resume`` without its
cold ninth.

- at most 200 calls per cached point (492 while every job record
  embedded a ``RunManifest`` nothing read, ``get`` / ``put`` were
  written per backend and hits were tallied three times);
- ``fig02``'s own job records average at most 800 bytes (1 518 with the
  manifest, half of which repeated the scenario document the record's
  ``spec`` already holds).

Calls are counted by the counter every BENCH row is recorded with
(``repro.perf.bench.count_calls``), the way the perf ledger's
``py_calls_per_pkt`` counts them: Python frames plus calls into builtins.
"""

from __future__ import annotations

import functools
import gc
import io
import os

import pytest

import repro
import repro.core
from repro.build import ScenarioSpec, build_simulation
from repro.obs import save_spans
from repro.parallel import JobStore, ParallelRunner, PointSpec, ResultCache
from repro.parallel.jobs import JOBS_FILE
from repro.perf.bench import count_calls, get_benchmark
from repro.perf.suite import TaqFlowDrive
from tests.test_bit_identity import ALL_FOUR, armed

CORE_DIR = os.path.dirname(repro.core.__file__) + os.sep
REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def core_calls_per_packet(flows: int) -> float:
    drive = TaqFlowDrive(flows)
    # Three rounds take every flow past its new-flow epochs, so the
    # counted packets all go through the Below/Above fair-share split.
    drive.run(3 * flows + flows // 2 * 3)
    assert drive.queue.tracker.active_flows(drive.rounds * drive.ROUND_S) == flows
    calls, packets = count_calls(lambda: drive.run(6_000), only_under=CORE_DIR)
    stats = drive.queue.scheduler.stats
    assert sum(s.dropped for s in stats.values()) == 0
    return calls / packets


def test_core_calls_per_packet_are_flat_in_the_flow_count():
    few, many = core_calls_per_packet(100), core_calls_per_packet(10_000)
    assert many <= 1.2 * few, (few, many)
    # And cheap in absolute terms: a scan of the flow table paid two
    # calls per *tracked flow* here (20 000 at 10^4 flows).
    assert many < 60, many


def saturation_calls_per_packet(name: str) -> float:
    bench = get_benchmark(name)
    calls, counts = count_calls(lambda: bench.fn(0.1))
    return calls / counts.packets


@pytest.fixture(scope="module")
def saturation_ratio():
    """TAQ's calls per packet over DropTail's, both queues saturated."""
    droptail = saturation_calls_per_packet("queue_droptail_saturation")
    return saturation_calls_per_packet("queue_taq_saturation") / droptail


def test_taq_saturation_calls_against_droptail(saturation_ratio):
    assert saturation_ratio <= 6.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: 5.9x today, 3x is the open target")
def test_taq_saturation_calls_within_3x_of_droptail(saturation_ratio):
    assert saturation_ratio <= 3.0


# ----------------------------------------------------------------------
# Armed: what the observers cost, in calls
# ----------------------------------------------------------------------
def bulk_spec(kind: str) -> ScenarioSpec:
    """The perf ledger's ``spk_bulk_*`` document, ten seconds of it."""
    return ScenarioSpec.from_document({
        "name": f"armed-{kind}", "seed": 1, "duration": 10.0,
        "topology": {"type": "dumbbell", "capacity_bps": 600_000, "rtt": 0.2,
                     "pkt_size": 200},
        "queue": {"kind": kind},
        "workloads": [{"type": "bulk", "n_flows": 100}],
    })


def unit(spec: ScenarioSpec, arm=()):
    """Build, arm, run and finalize, the way the ledger's armed unit
    does (each family through its public arming call, in its order);
    returns the built scenario and the span recorder."""
    with armed(arm) as arms:
        built = build_simulation(spec)
        built.run()
        for suite in arms.suites:
            suite.finalize()
            assert suite.violations == []
        for telemetry, sim in arms.telemetries:
            telemetry.finalize(sim)
    return built, arms.recorder


@functools.lru_cache(maxsize=None)
def calls_per_packet(kind: str):
    """(unarmed, armed minus unarmed) calls per packet on the forward
    link."""
    spec = bulk_spec(kind)
    unit(spec, ALL_FOUR)  # first use imports the observer families
    unarmed, _ = count_calls(lambda: unit(spec))
    armed, _ = count_calls(lambda: unit(spec, ALL_FOUR))
    packets = unit(spec)[0].topology.forward.stats.arrived
    return unarmed / packets, (armed - unarmed) / packets


@pytest.mark.parametrize("kind, bound", [("droptail", 46), ("taq", 82)])
def test_unarmed_calls_per_packet(kind, bound):
    assert calls_per_packet(kind)[0] <= bound


@pytest.mark.parametrize("kind, bound", [("droptail", 50), ("taq", 62)])
def test_all_four_armed_observer_calls_per_packet(kind, bound):
    assert calls_per_packet(kind)[1] <= bound


def tracked_growth(spec: ScenarioSpec, arm):
    """GC-tracked objects the unit leaves alive, everything it built
    still referenced."""
    gc.collect()
    before = len(gc.get_objects())
    kept = unit(spec, arm)
    gc.collect()
    return len(gc.get_objects()) - before, kept


def test_a_spans_armed_run_keeps_no_tracked_object_per_packet():
    spec = bulk_spec("droptail")
    unit(spec, ("spans",))
    plain, _ = tracked_growth(spec, ())
    armed, (_, recorder) = tracked_growth(spec, ("spans",))
    assert len(recorder) > 5_000
    assert armed - plain <= 0.05 * len(recorder), (armed, plain, len(recorder))


#: What ``record_and_save`` cost at the last commit whose recorder
#: built one ``Span`` object per span (counted there with this file's
#: function, frames under src/repro and the builtins they call).
OBJECT_PER_SPAN_CALLS = 200_251


def record_and_save(spec: ScenarioSpec) -> int:
    _, recorder = unit(spec, ("spans",))
    return save_spans(recorder.spans, io.StringIO())


def test_recording_and_saving_costs_no_more_than_an_object_per_span_did():
    spec = bulk_spec("droptail")
    record_and_save(spec)
    unarmed, _ = count_calls(lambda: unit(spec), only_under=REPRO_DIR)
    calls, written = count_calls(lambda: record_and_save(spec), only_under=REPRO_DIR)
    assert written > 5_000
    assert calls - unarmed <= OBJECT_PER_SPAN_CALLS, (calls - unarmed) / written


# ----------------------------------------------------------------------
# The sweep plane: what a point that is not computed costs
# ----------------------------------------------------------------------
def calls_per_cached_point(root: str, points: int = 200) -> float:
    """A resumed sweep whose every point is a cache hit, driven as
    ``taq-experiments --resume DIR --bus-dir DIR`` drives one: dir store,
    durable job store, progress bus, a progress callback."""
    specs = [PointSpec("repro.experiments.sweeps:run_sweep_point",
                       dict(kind="droptail", capacity_bps=200_000.0,
                            fair_share_bps=20_000.0, duration=2.0, seed=seed),
                       label=f"p{seed:03d}") for seed in range(points)]
    cache = ResultCache(os.path.join(root, "cache"), version="budget")
    for spec in specs:
        cache.put(spec, {"short_term_jain": 0.5, "seed": spec.kwargs["seed"]}, 0.25)
    store = JobStore(os.path.join(root, "jobs"), version="budget")
    served = []
    runner = ParallelRunner(jobs=1, cache=cache, store=store,
                            bus_dir=os.path.join(root, "bus"),
                            progress=lambda done, total, result: served.append(done))
    calls, results = count_calls(lambda: runner.run(specs))
    assert len(results) == served[-1] == points and all(r.cached for r in results)
    assert store.counts()["done"] == points
    return calls / points


def test_a_cached_point_costs_at_most_200_calls(tmp_path):
    assert calls_per_cached_point(str(tmp_path)) <= 200


def fig02_job_record_bytes(root: str) -> float:
    """Mean size of the ``job`` records of fig02's own 15-point sweep."""
    from repro.experiments import fig02_fairness_droptail as fig02
    from repro.experiments.sweeps import sweep_specs

    config = fig02.Config()
    JobStore(root).submit(sweep_specs(
        config.queue_kind, config.capacities_bps, config.fair_shares_bps,
        duration=config.duration, rtt=config.rtt,
        slice_seconds=config.slice_seconds, seed=config.seed))
    with open(os.path.join(root, JOBS_FILE), "rb") as handle:
        records = [line for line in handle if b'"kind":"job"' in line]
    assert len(records) == 15
    return sum(map(len, records)) / len(records)


def test_fig02_job_records_average_at_most_800_bytes(tmp_path):
    assert fig02_job_record_bytes(str(tmp_path)) <= 800
