"""Cross-module integration tests: full simulations at small scale.

These check the *system-level* claims the unit tests cannot: TCP over
the dumbbell behaves like TCP, the regime pathology appears under
DropTail, TAQ's machinery improves it, and the baselines behave as the
paper describes (RED/SFQ ~ DropTail in small packet regimes).
"""

import pytest

from repro.build import build_simulation
from repro.core import TAQQueue
from repro.experiments.runner import dumbbell_spec
from repro.workloads import spawn_bulk_flows

CAPACITY = 400_000.0
RTT = 0.2
DURATION = 60.0


def run_population(kind, n_flows, duration=DURATION, seed=3, **flow_kwargs):
    bench = build_simulation(dumbbell_spec(kind, CAPACITY, rtt=RTT, seed=seed,
                                           slice_seconds=10.0))
    flows = spawn_bulk_flows(bench.topology, n_flows, start_window=3.0,
                             extra_rtt_max=0.05, **flow_kwargs)
    bench.sim.run(until=duration)
    return bench, flows


def jain_of(bench, flows):
    return bench.collector.mean_short_term_jain([f.flow_id for f in flows])


def test_uncongested_short_transfers_see_no_losses():
    # Two 20-segment transfers never grow a window big enough to stress
    # the one-RTT buffer (long-running flows, by contrast, always probe
    # into loss — that is TCP working as designed).
    bench, flows = run_population("droptail", 2, size_segments=20)
    assert bench.queue.dropped == 0
    assert sum(f.sender.stats.timeouts for f in flows) == 0
    assert all(f.done for f in flows)


def test_congestion_produces_losses_and_timeouts():
    bench, flows = run_population("droptail", 80)
    assert bench.queue.loss_rate() > 0.05
    assert sum(f.sender.stats.timeouts for f in flows) > 50
    # and the regime classifier agrees this is pathological
    assert bench.topology.regime(80) == "sub-packet"


def test_utilization_high_under_contention():
    bench, _ = run_population("droptail", 80)
    assert bench.topology.forward.stats.utilization(CAPACITY, DURATION) > 0.9


def test_taq_beats_droptail_on_short_term_fairness():
    dt_bench, dt_flows = run_population("droptail", 80)
    taq_bench, taq_flows = run_population("taq", 80)
    assert jain_of(taq_bench, taq_flows) > jain_of(dt_bench, dt_flows)


def test_red_and_sfq_do_not_fix_the_regime():
    # §2.4: RED and SFQ offer similar aggregate behaviour to DropTail in
    # small packet regimes (no TAQ-like rescue).
    dt, dt_flows = run_population("droptail", 80)
    red, red_flows = run_population("red", 80)
    sfq, sfq_flows = run_population("sfq", 80)
    taq, taq_flows = run_population("taq", 80)
    taq_jfi = jain_of(taq, taq_flows)
    for bench, flows in ((red, red_flows), (sfq, sfq_flows)):
        assert jain_of(bench, flows) < taq_jfi
        assert bench.topology.forward.stats.utilization(CAPACITY, DURATION) > 0.85


def test_sack_population_also_breaks_down():
    bench, flows = run_population("droptail", 80, sack=True)
    assert sum(f.sender.stats.timeouts for f in flows) > 50


def test_taq_tracker_sees_all_flows():
    bench, flows = run_population("taq", 40)
    assert isinstance(bench.queue, TAQQueue)
    assert len(bench.queue.tracker.flows) == 40


def test_taq_epoch_estimates_converge_near_real_rtt():
    bench, flows = run_population("taq", 20)
    records = bench.queue.tracker.flows.values()
    estimates = [r.epoch_length for r in records if r.estimator.samples > 3]
    assert estimates, "no flow collected epoch samples"
    # Loaded RTT is base (0.2-0.25) plus queueing; the passive estimator
    # may overestimate when matched packets waited in low-priority
    # queues, but must stay within a small factor of reality.
    for estimate in estimates:
        assert 0.1 < estimate < 2.0


def test_deterministic_replay_same_seed():
    a_bench, a_flows = run_population("taq", 40, seed=5)
    b_bench, b_flows = run_population("taq", 40, seed=5)
    assert jain_of(a_bench, a_flows) == jain_of(b_bench, b_flows)
    assert a_bench.queue.dropped == b_bench.queue.dropped
    a_to = [f.sender.stats.timeouts for f in a_flows]
    b_to = [f.sender.stats.timeouts for f in b_flows]
    assert a_to == b_to


def test_different_seeds_differ():
    a_bench, a_flows = run_population("droptail", 40, seed=5)
    b_bench, b_flows = run_population("droptail", 40, seed=6)
    assert [f.sender.stats.timeouts for f in a_flows] != [
        f.sender.stats.timeouts for f in b_flows
    ]


def test_sized_flows_complete_and_report_download_time():
    bench, flows = run_population("droptail", 20, size_segments=30, duration=90.0)
    finished = [f for f in flows if f.done]
    assert len(finished) == 20
    for flow in finished:
        assert flow.download_time is not None and flow.download_time > 0


def test_goodput_conservation():
    # Bytes delivered at the bottleneck equal the collector's accounting.
    bench, flows = run_population("droptail", 30)
    collected = 0
    for index in bench.collector.slice_indices():
        goodputs = bench.collector.slice_goodputs(index, [f.flow_id for f in flows])
        collected += sum(goodputs) * bench.collector.slice_seconds / 8.0
    data_bytes = sum(
        per_flow_bytes
        for per_flow in bench.collector._slices.values()
        for per_flow_bytes in per_flow.values()
    )
    assert collected == pytest.approx(data_bytes)
    assert data_bytes <= bench.topology.forward.stats.bytes_delivered


def test_round_log_counts_match_sender_stats():
    bench, flows = run_population("droptail", 30, round_log=True)
    for flow in flows:
        stats = flow.sender.stats
        logged = sum(sent for _, _, sent in flow.sender.round_log.rounds)
        total_sent = stats.data_sent + stats.retransmits
        # Every transmission is in some round; the currently-open round
        # may not be closed yet.
        assert logged <= total_sent
        assert logged >= total_sent - flow.sender._round_sent - 1
