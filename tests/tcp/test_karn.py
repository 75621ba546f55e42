"""Karn's rule at the sender, for every variant: an ACK covering a
segment that was retransmitted feeds the RTO estimator nothing.

Each case drives one sender by hand — its packets into a list, ACKs
built and delivered at chosen instants — so the timed segment, the way
it is retransmitted and the ACK that covers it are all fixed:

- the handshake samples 0.1 s, and ACK 1 at 0.2 s samples seq 0;
- the next fresh segment, seq 2, goes out timed at 0.2 s, and ACK 2
  at 0.3 s opens the window to seqs 2-5;
- seq 2 is then retransmitted, by fast retransmit (three dupACKs at
  0.4 s) or by the RTO, or not at all (the control);
- ACK 6, 0.1 s later, covers seqs 2-5.  Sampled, it would be an RTT of
  at least 0.3 s against an SRTT of 0.1 s.
"""

import pytest

from repro.net.packet import ACK, DATA, SYNACK, Packet
from repro.sim.simulator import Simulator
from repro.tcp.rto import RtoEstimator
from repro.tcp.variants import VARIANTS


def deliver(sim, sender, at, kind=ACK, ack_seq=0, sack=None):
    sim.run(until=at)
    sender.receive(Packet(1, kind, ack_seq=ack_seq, sack=sack), sim.now)


def timed_window(variant):
    """A *variant* sender with seqs 2-5 outstanding and seq 2 timed."""
    sim = Simulator()
    sent = []
    sender = VARIANTS[variant](sim, 1, transmit=sent.append, initial_cwnd=2.0,
                               rto=RtoEstimator(min_rto=0.2, max_rto=2.0))
    sender.open()
    deliver(sim, sender, 0.1, SYNACK)
    deliver(sim, sender, 0.2, ack_seq=1)
    deliver(sim, sender, 0.3, ack_seq=2)
    assert [p.seq for p in sent if p.kind == DATA] == [0, 1, 2, 3, 4, 5]
    assert sender._timed_seq == 2
    return sim, sender, sent


def retransmitted_seqs(sent):
    return [p.seq for p in sent if p.kind == DATA and p.is_retransmit]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("how", ["fast retransmit", "rto"])
def test_the_ack_covering_a_retransmitted_timed_segment_is_not_sampled(variant, how):
    sim, sender, sent = timed_window(variant)
    if how == "fast retransmit":
        for above in (4, 5, 6):  # seqs 3, 4 and 5 arrive, 2 does not
            deliver(sim, sender, 0.4, ack_seq=2, sack=[(3, above)])
        assert sender.stats.fast_retransmits == 1
    else:
        sim.run(until=sender._timer.time)
        assert sender.stats.timeouts == 1
    assert retransmitted_seqs(sent)[0] == 2
    rto = sender.rto
    srtt, rttvar = rto.srtt, rto.rttvar
    deliver(sim, sender, sim.now + 0.1, ack_seq=6)
    assert sender.snd_una == 6
    assert (rto.srtt, rto.rttvar) == (srtt, rttvar)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_the_ack_covering_the_timed_segment_is_sampled(variant):
    # The control: without the retransmission the same ACK moves both.
    sim, sender, sent = timed_window(variant)
    rto = sender.rto
    srtt, rttvar = rto.srtt, rto.rttvar
    deliver(sim, sender, sim.now + 0.1, ack_seq=6)
    assert retransmitted_seqs(sent) == []
    assert rto.srtt > srtt and rto.rttvar > rttvar
