"""``TCPSender``, NewReno or SACK, against :mod:`tests.tcp.spec_tcp`, the RFCs' rules: after
every step (open, a lost SYN, the SYNACK, a cumulative ACK, dupACKs, SACK blocks, an RTO; a clock
passing a deadline fires it) both hold the same windows, sequence points, estimator and timer,
and have sent the same segments and logged the same rounds."""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.experiments.fig06_model_validation import census_from_rounds
from repro.net.packet import ACK, DATA, SYNACK, Packet
from repro.sim.simulator import Simulator
from repro.tcp.rto import RtoEstimator
from repro.tcp.sender import TCPSender
from tests.tcp.helpers import Loopback
from tests.tcp.spec_tcp import CLOSED, FR, OPEN, SYN_SENT, SpecTCP

SAME = ("cwnd", "ssthresh", "recover", "dupacks", "snd_una", "snd_next", "high_water")
#: RFC 6298's bounds; tests/tcp/helpers.py's; a backoff cap the machine reaches.
TIMERS = (dict(min_rto=1.0, max_rto=60.0, max_backoff=16),
          dict(min_rto=0.2, max_rto=2.0, max_backoff=16),
          dict(min_rto=0.05, max_rto=60.0, max_backoff=2))
GAPS = st.sampled_from([0.0, 0.002, 0.02, 0.1, 0.4])
OFFSETS = st.integers(min_value=0, max_value=60)


def pending(event):
    return None if event is None or event.cancelled or event.fired else event.time


class SpecMachine(RuleBasedStateMachine):
    @initialize(sack=st.booleans(), round_log=st.booleans(), timers=st.sampled_from(TIMERS),
                config=st.fixed_dictionaries(dict(
                    total_segments=st.sampled_from([None, 0, 1, 5, 12, 40]),
                    initial_cwnd=st.sampled_from([1, 2, 4, 10]),
                    initial_ssthresh=st.sampled_from([2.0, 5.0, 64.0]),
                    max_cwnd=st.sampled_from([None, None, 1, 3, 4.5, 8]))))
    def build(self, sack, round_log, timers, config):
        self.sim, self.sent = Simulator(), []
        self.sender = TCPSender(self.sim, 1, self.sent.append, sack=sack, round_log=round_log,
                                rto=RtoEstimator(**timers), **config)
        self.spec = SpecTCP(sack=sack, **timers, **config)

    def at(self, time):
        self.sim.run(until=time)
        self.spec.advance(time)

    def arrive(self, gap, kind, ack_seq=-1, blocks=None):
        self.at(self.sim.now + gap)
        self.sender.receive(Packet(1, kind, ack_seq=ack_seq, sack=blocks), self.sim.now)
        self.spec.receive(kind, ack_seq, blocks or ())

    @precondition(lambda self: self.spec.state == CLOSED)
    @rule()
    def open(self):
        self.sender.open()
        self.spec.open()

    @precondition(lambda self: self.spec.state == SYN_SENT)
    @rule()
    def syn_timer_fires(self):
        self.at(self.sender._syn_timer.time)

    @precondition(lambda self: self.spec.state == SYN_SENT)
    @rule(gap=GAPS)
    def synack(self, gap):
        self.arrive(gap, SYNACK)

    @precondition(lambda self: self.spec.state in OPEN and self.spec.high_water > self.spec.snd_una)
    @rule(gap=GAPS, offset=OFFSETS)
    def cumulative_ack(self, gap, offset):
        una, top = self.spec.snd_una, self.spec.high_water
        self.arrive(gap, ACK, una + 1 + offset % (top - una))

    @rule(gap=GAPS, count=st.integers(min_value=1, max_value=3))
    def dupacks(self, gap, count):  # ignored before the handshake and after the FIN
        for _ in range(count):
            self.arrive(gap, ACK, self.spec.snd_una)

    @precondition(lambda m: m.spec.state in OPEN and m.spec.high_water > m.spec.snd_una + 1)
    @rule(gap=GAPS, acked=st.integers(min_value=0, max_value=3), blocks=st.lists(
        st.tuples(OFFSETS, st.sampled_from([1, 2, 3, 60])), min_size=1, max_size=3))
    def sack_blocks(self, gap, acked, blocks):
        """A dupACK (acked = 0) or a new ACK, SACKing blocks above it within what was sent."""
        una, top = self.spec.snd_una, self.spec.high_water
        ack_seq = una + acked % (top - una - 1)
        starts = [(ack_seq + 1 + low % (top - ack_seq - 1), span) for low, span in blocks]
        self.arrive(gap, ACK, ack_seq, [(lo, min(top, lo + span)) for lo, span in starts])

    @precondition(lambda self: self.spec.state in OPEN and self.spec.deadline is not None)
    @rule()
    def rto_fires(self):
        self.at(self.sender._timer.time)

    @invariant()
    def agree(self):
        sender, spec, est = self.sender, self.spec, self.sender.rto
        assert [getattr(sender, name) for name in SAME] == [getattr(spec, name) for name in SAME]
        assert (sender.state, sender.in_recovery) == (
            "established" if spec.state in OPEN else spec.state, spec.state == FR)
        assert (est.srtt, est.rttvar, est.rto, est.backoff_exponent) == (
            spec.srtt or 0.0, spec.rttvar or 0.0, spec.rto, spec.backoff)
        timer = sender._syn_timer if spec.state == SYN_SENT else sender._timer
        assert pending(timer) == spec.deadline
        assert [(p.kind, p.seq, p.is_retransmit) for p in self.sent] == spec.sent
        del self.sent[:], spec.sent[:]
        assert sender.round_log is None or sender.round_log.rounds == spec.rounds


TestSpecTcp = SpecMachine.TestCase


def test_the_census_from_the_specs_round_log_is_the_senders():
    """Fig 6's census from one lossy transfer's ACK trace, replayed into the spec: the losses
    at a small window time out, the one at a large window is fast-retransmitted."""
    sim, arrivals = Simulator(), []
    pipe = Loopback(sim, total_segments=80, round_log=True, drop_data=lambda p: (
        p.kind == DATA and not p.is_retransmit and p.seq in (1, 2, 40)))
    receive = pipe.sender.receive
    pipe.sender.receive = lambda ack, now: arrivals.append((now, ack)) or receive(ack, now)
    pipe.run()
    stats, spec = pipe.sender.stats, SpecTCP(total_segments=80, min_rto=0.2, max_rto=2.0)
    assert pipe.sender.done and stats.fast_retransmits == 1 and stats.timeouts >= 1
    spec.open()
    for now, ack in arrivals:
        spec.advance(now)
        spec.receive(ack.kind, ack.ack_seq, ack.sack or ())
    census = [census_from_rounds({1: rounds}, {1: 0.1}, 0.0, sim.now)
              for rounds in (spec.rounds, pipe.sender.round_log.rounds)]
    assert spec.rounds == pipe.sender.round_log.rounds and census[0] == census[1]
    assert census[0][0] > 0 and census[0][1] > 0


def test_sack_recovery_resends_each_lost_hole_once_the_data_runs_out():
    """RFC 6675 NextSeg rule 1, seldom reached by the machine: 0-6 out, 2 and 4-5 SACKed, three
    dupACKs resend 0, then 1 (3 SACKed above), not 3 (2); ACK 3 with 6 SACKed loses 3."""
    machine = SpecMachine()
    machine.build(sack=True, round_log=True, timers=TIMERS[1], config=dict(
        total_segments=7, initial_cwnd=10, initial_ssthresh=64.0, max_cwnd=None))
    machine.open()
    machine.synack(0.1)
    for step, resent in ((lambda: machine.arrive(0.1, ACK, 0, [(2, 3), (4, 6)]), []),
                         (lambda: machine.dupacks(0.0, 2), [0, 1]),
                         (lambda: machine.dupacks(0.0, 1), []),
                         (lambda: machine.arrive(0.1, ACK, 3, [(6, 7)]), [3])):
        machine.agree()
        step()
        assert [seq for _, seq, again in machine.spec.sent if again] == resent
    machine.agree()
