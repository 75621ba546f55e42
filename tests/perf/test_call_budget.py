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

Calls are counted the way the perf ledger's ``py_calls_per_pkt`` counts
them: Python frames plus calls into builtins.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro.core
from repro.perf.bench import get_benchmark
from repro.perf.suite import TaqFlowDrive

CORE_DIR = os.path.dirname(repro.core.__file__) + os.sep


def count_calls(fn, only_under=None):
    """Calls made while *fn* runs, and *fn*'s result.  With
    *only_under*, only frames of files under that directory and the
    builtins they call."""
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
