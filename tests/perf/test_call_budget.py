"""Clock-free cost relations: counts compared with counts, never timed.

What a packet or a sweep point costs is a row of ``BENCH_22.json``
(docs/performance.md, *Current numbers*), held to ``==`` by
``taq-perf compare`` and by ``tests/perf/test_bench.py``.  What stays
here are the claims no single row states, each bound in its test:

- TAQ's per-packet cost in ``repro.core`` is flat in the number of
  tracked flows, and small;
- a saturated TAQ queue costs a small multiple of a saturated DropTail
  queue's calls per packet;
- a spans-armed run keeps no object the cyclic collector tracks per
  packet;
- recording *and* writing ``spans.jsonl`` costs no more calls than it
  did when every span was an object — the flat log removed work, it
  did not move it to the reader;
- ``fig02``'s own job records stay small.

Calls are counted by the counter every BENCH row is recorded with
(``repro.perf.bench.count_calls``), the way the perf ledger's
``py_calls_per_pkt`` counts them: Python frames plus calls into builtins.
"""

from __future__ import annotations

import gc
import io
import os

import pytest

import repro
import repro.core
from repro.obs import save_spans
from repro.parallel import JobStore
from repro.parallel.jobs import JOBS_FILE
from repro.perf.bench import count_calls, get_benchmark
from repro.perf.suite import TaqFlowDrive, bulk_unit_spec, run_unit

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
    assert many < 16, many


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
    assert saturation_ratio <= 3.0


def tracked_growth(spec, families):
    """GC-tracked objects the unit leaves alive, everything it built
    still referenced."""
    gc.collect()
    before = len(gc.get_objects())
    kept = run_unit(spec, families)
    gc.collect()
    return len(gc.get_objects()) - before, kept


def test_a_spans_armed_run_keeps_no_tracked_object_per_packet():
    spec = bulk_unit_spec("droptail")
    run_unit(spec, ("spans",))
    plain, _ = tracked_growth(spec, ())
    armed, (_, arms) = tracked_growth(spec, ("spans",))
    assert len(arms.recorder) > 5_000
    assert armed - plain <= 0.05 * len(arms.recorder), (armed, plain, len(arms.recorder))


def record_and_save(spec) -> int:
    _, arms = run_unit(spec, ("spans",))
    return save_spans(arms.recorder.spans, io.StringIO())


def test_recording_and_saving_costs_no_more_than_an_object_per_span_did():
    # What record_and_save cost at the last commit whose recorder built
    # one ``Span`` object per span, counted there the same way.
    object_per_span_calls = 200_251
    spec = bulk_unit_spec("droptail")
    record_and_save(spec)
    unarmed, _ = count_calls(lambda: run_unit(spec), only_under=REPRO_DIR)
    calls, written = count_calls(lambda: record_and_save(spec), only_under=REPRO_DIR)
    assert written > 5_000
    assert calls - unarmed <= object_per_span_calls, (calls - unarmed) / written


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


def test_fig02_job_records_stay_small(tmp_path):
    # A record holds kind, id, spec and t, and nothing else.
    assert fig02_job_record_bytes(str(tmp_path)) <= 400
