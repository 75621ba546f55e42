"""RTO exponential backoff vs the Markov model's timeout ladder.

The estimator-level tests pin the ladder geometry in isolation: the
exponent climbs by exactly 1 per timeout, is capped at ``max_backoff``,
and collapses on a fresh sample.  The scenario-level tests then run two
competing flows through a timeout-heavy small-packet bottleneck and
check the *simulated* timeout-state transitions against what the
paper's Markov models (:mod:`repro.model.partial` / ``full``) encode:

- stage ``k`` means a ``2^k``-scaled timer (doubling per repetitive
  timeout, the ``W2 -> W3 -> ...`` ladder of the full model);
- a repetitive timeout moves exactly one stage up;
- forward progress (a fresh RTT sample) collapses to stage 0, so the
  only way back into the ladder is through stage 1 — there are no
  skips in either direction;
- the inter-timeout silence is at least the backed-off timer, which is
  the "expected idle epochs" the ``b*`` aggregate charges.
"""

import pytest

from repro.build import ScenarioSpec, build_simulation
from repro.sim.observe import Observer, subscribe
from repro.tcp.rto import RtoEstimator


# ---------------------------------------------------------------------------
# Estimator-level ladder geometry


def test_backoff_exponent_caps_at_max_backoff():
    est = RtoEstimator(min_rto=0.5, max_rto=1e9, max_backoff=5)
    est.sample(1.0)
    base = est.rto
    for _ in range(40):
        est.backoff()
    assert est.backoff_exponent == 5
    assert est.rto == base * 2**5


def test_backoff_ladder_doubles_stage_by_stage():
    est = RtoEstimator(min_rto=0.1, max_rto=1e9, max_backoff=16)
    est.sample(1.0)
    ladder = []
    for _ in range(8):
        ladder.append(est.rto)
        est.backoff()
    for lower, upper in zip(ladder, ladder[1:]):
        assert upper == pytest.approx(2.0 * lower)


def test_backoff_resets_on_new_sample_then_reclimbs_from_one():
    est = RtoEstimator(min_rto=0.1, max_rto=1e9)
    est.sample(1.0)
    for _ in range(4):
        est.backoff()
    assert est.backoff_exponent == 4
    est.sample(1.0)  # forward progress: fresh RTT measurement
    assert est.backoff_exponent == 0
    est.backoff()
    assert est.backoff_exponent == 1  # re-enters the ladder at stage 1


def test_rto_stays_clamped_throughout_the_ladder():
    est = RtoEstimator(min_rto=1.0, max_rto=8.0)
    est.sample(0.01)  # base well below min_rto
    for _ in range(20):
        assert 1.0 <= est.rto <= 8.0
        est.backoff()
    assert est.rto == 8.0


# ---------------------------------------------------------------------------
# Scenario-level agreement on a 2-flow bottleneck


class RecordingProbe(Observer):
    """Minimal seam subscriber keeping the senders' rto events."""

    def __init__(self):
        self.events = []

    def rto(self, sender, now):
        self.events.append(
            (sender.flow_id, now, sender.rto.backoff_exponent, sender.rto.rto)
        )


@pytest.fixture(scope="module")
def rto_trace():
    # Two bulk flows through a bottleneck deep in the small packet
    # regime (≈1 packet per RTT per flow): § 3's repetitive-timeout
    # territory, where the b* ladder actually gets exercised.
    spec = ScenarioSpec.from_document({
        "name": "rto-ladder",
        "seed": 11,
        "duration": 120.0,
        "topology": {"type": "dumbbell", "capacity_bps": 40_000, "rtt": 0.2},
        "queue": {"kind": "droptail"},
        "workloads": [{"type": "bulk", "n_flows": 2}],
        "metrics": {"slice_seconds": 30.0},
    })
    built = build_simulation(spec)
    probe = RecordingProbe()
    flows = built.all_flows()
    assert len(flows) == 2
    for flow in flows:
        subscribe(flow.sender, probe)
    built.run()
    return built, probe.events


def per_flow(events):
    by_flow = {}
    for flow_id, time, backoff, rto in events:
        by_flow.setdefault(flow_id, []).append((time, backoff, rto))
    return by_flow


def test_scenario_produces_repetitive_timeouts(rto_trace):
    built, events = rto_trace
    assert len(events) >= 10  # the bottleneck really is timeout-heavy
    assert any(backoff >= 2 for _, _, backoff, _ in events)
    for flow in built.all_flows():
        assert flow.sender.stats.timeouts == sum(
            1 for fid, _, _, _ in events if fid == flow.flow_id
        )


def test_stage_transitions_match_the_model_alphabet(rto_trace):
    built, events = rto_trace
    # The probe fires after backoff() is applied, so event k at stage
    # b_k means the flow just moved INTO stage b_k.  The model's legal
    # moves: one stage up (repetitive timeout, W_k -> W_{k+1}) or a
    # collapse to stage 1 through fresh-sample reset (b* exit -> later
    # re-entry).  Anything else — skipping stages, partial collapse —
    # is not in the chain.
    for trace in per_flow(events).values():
        assert trace[0][1] == 1  # first timeout enters the ladder at stage 1
        for (_, prev, _), (_, cur, _) in zip(trace, trace[1:]):
            assert cur == prev + 1 or cur == 1, (prev, cur)


def test_backoff_capped_in_scenario(rto_trace):
    built, events = rto_trace
    for flow in built.all_flows():
        cap = flow.sender.rto.max_backoff
        assert all(
            backoff <= cap for fid, _, backoff, _ in events if fid == flow.flow_id
        )
        assert flow.sender.stats.max_backoff_seen <= cap


def test_timer_doubles_between_repetitive_timeouts(rto_trace):
    built, events = rto_trace
    senders = {flow.flow_id: flow.sender for flow in built.all_flows()}
    for flow_id, trace in per_flow(events).items():
        est = senders[flow_id].rto
        for (_, prev_b, prev_rto), (_, cur_b, cur_rto) in zip(trace, trace[1:]):
            if cur_b != prev_b + 1:
                continue  # ladder re-entry: base was resampled
            # Stage k+1's timer is double stage k's, except where the
            # clamps flatten the ladder (exactly the T0·2^k geometry of
            # the model's backoff stages).
            if prev_rto > est.min_rto and cur_rto < est.max_rto:
                assert cur_rto == pytest.approx(2.0 * prev_rto)
            assert est.min_rto <= cur_rto <= est.max_rto


def test_inter_timeout_silence_at_least_the_backed_off_timer(rto_trace):
    built, events = rto_trace
    # Between consecutive *repetitive* timeouts of one flow, at least
    # the timer armed at the first of them must elapse (ACK activity
    # without a fresh sample restarts the same timer, only pushing the
    # second timeout later; a fresh sample instead collapses the ladder
    # and shows up as a stage-1 re-entry, excluded here).  This is the
    # idle time the b* state charges: T0 * 2^k per stage occupied.
    for trace in per_flow(events).values():
        for (t0, prev_b, rto0), (t1, cur_b, _) in zip(trace, trace[1:]):
            if cur_b == prev_b + 1:
                assert t1 - t0 >= rto0 - 1e-9
