"""Claims that need a fresh simulation: no golden holds their numbers.

The ablations of TAQ's design choices (DESIGN.md §5), the Fig 6 model
agreement under RED and SFQ, and the headline comparison across seeds.
Every other claim EXPERIMENTS.md makes is a verdict on a committed
golden (``test_verdicts.py``).  All are ``slow``:
``pytest tests/experiments/test_claims.py --run-slow``.
"""

import pytest

from repro.build import build_simulation
from repro.core.scheduler import PacketClass
from repro.experiments import fig06_model_validation as fig6
from repro.experiments.runner import dumbbell_spec
from repro.experiments.sweeps import run_sweep_point
from repro.workloads import spawn_bulk_flows

pytestmark = pytest.mark.slow

CAPACITY = 600_000.0
N_FLOWS = 120
DURATION = 100.0


def run_taq(delayed_ack=False, **taq_kwargs):
    bench = build_simulation(
        dumbbell_spec("taq", CAPACITY, rtt=0.2, seed=1, **taq_kwargs))
    flows = spawn_bulk_flows(bench.topology, N_FLOWS, start_window=5.0, extra_rtt_max=0.1)
    if delayed_ack:
        for flow in flows:
            flow.receiver.delayed_ack = True
    bench.sim.run(until=DURATION)
    flow_ids = [f.flow_id for f in flows]
    return {
        "jfi": bench.collector.mean_short_term_jain(flow_ids),
        "timeouts": sum(f.sender.stats.timeouts for f in flows),
        "recovery_served": bench.queue.scheduler.stats[PacketClass.RECOVERY].served,
        "total_served": sum(s.served for s in bench.queue.scheduler.stats.values()),
        "utilization": bench.topology.forward.stats.utilization(CAPACITY, DURATION),
    }


@pytest.fixture(scope="module")
def full_taq():
    """Every mechanism on: the baseline each ablation is compared with."""
    return run_taq()


def test_ablation_fair_share_split(full_taq):
    ablated = run_taq(classify_fair_share=False)
    # The Below/Above split is the fairness engine.
    assert full_taq["jfi"] > ablated["jfi"]


def test_ablation_recovery_cap(full_taq):
    uncapped = run_taq(recovery_service_share=1.0)
    capped_share = full_taq["recovery_served"] / full_taq["total_served"]
    uncapped_share = uncapped["recovery_served"] / uncapped["total_served"]
    # Without the cap, recovery consumes a visibly larger service share
    # (the cap is work-conserving, so its effective share sits above the
    # nominal 0.3 whenever the other queues run dry — but well below the
    # uncapped free-for-all).
    assert uncapped_share > capped_share + 0.05
    # Both configurations keep the link busy.
    assert full_taq["utilization"] > 0.9
    assert uncapped["utilization"] > 0.9


def test_ablation_silence_priority(full_taq):
    fifo = run_taq(silence_priority=False)
    # At this scale the recovery queue is almost always short, so
    # ordering it by silence length is behaviour-preserving rather than
    # a win: fairness and timeouts stay within noise of FIFO.
    assert abs(full_taq["jfi"] - fifo["jfi"]) < 0.1
    assert full_taq["timeouts"] < fifo["timeouts"] * 1.3
    assert fifo["timeouts"] < full_taq["timeouts"] * 1.3


def test_ablation_new_flow_cap_bounds_syn_burst():
    # With a tiny NewFlow cap, a SYN flood of new connections cannot
    # occupy the whole buffer.
    result = run_taq(new_flow_capacity=4)
    assert result["utilization"] > 0.9
    assert result["jfi"] > 0.5


def test_ablation_one_way_mode_still_works(full_taq):
    """§3.3: without ACK visibility TAQ falls back to SYN-gap + burst
    epoch estimation.  One-way mode must retain most of the fairness win
    (it is the deployment reality for asymmetric-routing middleboxes)."""
    one_way = run_taq(reverse_tap=False)
    assert one_way["utilization"] > 0.9
    assert one_way["jfi"] > full_taq["jfi"] - 0.15
    assert one_way["jfi"] > 0.5


def test_ablation_delayed_acks_do_not_break_taq():
    """§2.3 disables delayed ACKs to expose congestion dynamics; real
    receivers delay.  TAQ's tracking must survive delayed-ack receivers
    (fewer ACKs -> fewer two-way epoch samples)."""
    delayed = run_taq(delayed_ack=True)
    assert delayed["utilization"] > 0.85
    assert delayed["jfi"] > 0.45


def test_fig06_agreement_holds_under_red_and_sfq():
    """§3.1.2: "We also ran simulations under RED and SFQ AQM schemes,
    and obtained similar agreement with the model."

    RED agrees as tightly as DropTail (L1 ~ 0.1).  SFQ agrees only
    loosely: its round-robin service stretches each flow's ack-clock
    rounds across the service rotation, which the round-census
    methodology reads as extra silence — the trends hold (silence
    dominates, retransmit states populated) but the L1 distance is
    larger.
    """
    red, sfq = (
        fig6.run(fig6.Config(capacities_bps=(750_000.0,), flow_counts=(150,),
                             duration=100.0, queue_kind=queue_kind)).points[0]
        for queue_kind in ("red", "sfq"))
    assert red.loss_rate > 0.05 and sfq.loss_rate > 0.05
    assert red.l1_distance("partial") < 0.4
    assert sfq.l1_distance("partial") < 1.0
    assert sfq.sim_census[0] > 0.3  # silence dominates, as the model says
    assert sfq.sim_census[1] > 0.05  # retransmit states populated


def test_taq_beats_droptail_across_seeds():
    """The two load-bearing comparisons — TAQ beats DropTail on fairness
    and shuts out no more flows — at one point across three seeds."""
    for seed in (1, 2, 3):
        droptail, taq = (run_sweep_point(kind, CAPACITY, 5_000.0, duration=100.0, seed=seed)
                         for kind in ("droptail", "taq"))
        assert taq.short_term_jain > droptail.short_term_jain + 0.05, seed
        assert taq.shut_out_fraction <= droptail.shut_out_fraction, seed
        assert taq.utilization > 0.9 and droptail.utilization > 0.9, seed
