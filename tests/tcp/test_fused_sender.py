"""Differential tests for the sender's fused per-packet frames.

``TCPSender._try_send`` computes the data limit, the effective window
and (without SACK) the pipe inline instead of through ``_data_limit``,
``_effective_cwnd`` and ``_pipe``; ``_on_new_ack`` grows cwnd and
``RtoEstimator.rto`` clamps the timeout without ``min`` / ``max``.  Each
is compared here with the helper-based form it replaced, from random
states that include ``max_cwnd`` below cwnd, exact ties, windows under
one packet and the SACK path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import Simulator
from repro.tcp.rto import RtoEstimator
from repro.tcp.sender import TCPSender


def reference_try_send(sender):
    """``_try_send`` as it read before its helpers were inlined."""
    if sender.state != "established":
        return
    limit = sender._data_limit()
    cwnd = sender._effective_cwnd()
    while sender._pipe() < cwnd and sender.snd_next < limit:
        seq = sender.snd_next
        if sender.sack_enabled and seq in sender._scoreboard:
            sender.snd_next += 1
            continue
        retransmit = seq < sender.high_water
        sender.snd_next += 1
        sender.high_water = max(sender.high_water, sender.snd_next)
        sender._send_segment(seq, retransmit)
        cwnd = sender._effective_cwnd()
    if sender.sack_enabled and sender.in_recovery:
        sender._sack_retransmit_holes()


_windows = st.one_of(
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(min_value=0.0, max_value=40.0),
)
_caps = st.one_of(
    st.none(),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.5, max_value=20.0),
)

_states = st.fixed_dictionaries({
    "cwnd": _windows,
    "max_cwnd": _caps,
    "snd_una": st.integers(min_value=0, max_value=20),
    "outstanding": st.integers(min_value=0, max_value=15),
    "above_high_water": st.integers(min_value=0, max_value=10),
    "total_segments": st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    "sack": st.booleans(),
    "sacked": st.sets(st.integers(min_value=0, max_value=40), max_size=12),
    "in_recovery": st.booleans(),
    "state": st.sampled_from(["established", "established", "syn_sent"]),
})


def make_sender(state):
    sim = Simulator()
    sent = []
    sender = TCPSender(sim, 1, transmit=sent.append,
                       total_segments=state["total_segments"],
                       max_cwnd=state["max_cwnd"], sack=state["sack"])
    sender.state = state["state"]
    sender.cwnd = state["cwnd"]
    sender.snd_una = state["snd_una"]
    sender.snd_next = state["snd_una"] + state["outstanding"]
    sender.high_water = sender.snd_next + state["above_high_water"]
    sender._scoreboard = {sender.snd_una + offset for offset in state["sacked"]}
    sender.in_recovery = state["in_recovery"]
    sender.recover = sender.high_water - 1
    return sim, sender, sent


@settings(max_examples=300, deadline=None)
@given(_states)
def test_try_send_matches_the_helper_loop(state):
    fused_sim, fused, fused_sent = make_sender(state)
    ref_sim, ref, ref_sent = make_sender(state)
    fused._try_send()
    reference_try_send(ref)
    assert ([(p.seq, p.is_retransmit) for p in fused_sent]
            == [(p.seq, p.is_retransmit) for p in ref_sent])
    assert (fused.snd_next, fused.high_water, fused.stats.data_sent,
            fused.stats.retransmits) == (ref.snd_next, ref.high_water,
                                         ref.stats.data_sent, ref.stats.retransmits)
    assert len(fused_sim.events) == len(ref_sim.events)
    assert fused_sim.events.peek_time() == ref_sim.events.peek_time()


@settings(max_examples=300, deadline=None)
@given(_windows, _windows, _caps)
def test_new_ack_growth_matches_min_max(cwnd, ssthresh, max_cwnd):
    _, sender, _ = make_sender({
        "cwnd": cwnd, "max_cwnd": max_cwnd, "snd_una": 0, "outstanding": 5,
        "above_high_water": 0, "total_segments": None, "sack": False,
        "sacked": set(), "in_recovery": False, "state": "established",
    })
    sender.ssthresh = ssthresh
    sender._on_new_ack(1, 0.0)
    grown = cwnd + 1.0 if cwnd < ssthresh else cwnd + 1.0 / max(1.0, cwnd)
    if max_cwnd is not None:
        grown = min(grown, max_cwnd)
    assert sender.cwnd == grown
    assert type(sender.cwnd) is type(grown)


_timeouts = st.floats(min_value=0.01, max_value=5.0)


@settings(max_examples=300, deadline=None)
@given(_timeouts, st.floats(min_value=0.0, max_value=100.0),
       st.sampled_from(["free", "min", "max"]), st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=0, max_value=16))
def test_rto_clamp_matches_min_max(min_rto, span, tie, base, exponent):
    estimator = RtoEstimator(min_rto=min_rto, max_rto=min_rto + span)
    # Ties with either clamp are where min / max pick by argument order.
    estimator._base_rto = {"free": base, "min": estimator.min_rto,
                           "max": estimator.max_rto}[tie]
    estimator.backoff_exponent = 0 if tie != "free" else exponent
    value = estimator._base_rto * (2 ** estimator.backoff_exponent)
    expected = min(estimator.max_rto, max(estimator.min_rto, value))
    assert estimator.rto == expected
