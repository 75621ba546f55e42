"""Stateful property tests of the flow tracker's invariants, fed
through a TAQ queue.

Random sequences of arrivals (fresh and repeated sequence numbers),
drops, ACK observations and time advances must never violate:

- retransmission inference: a packet is flagged iff its sequence number
  does not exceed the highest previously seen;
- counters are non-negative and epoch rollovers conserve them;
- the state is always a legal FlowState and silent flows eventually
  leave NORMAL/SLOW_START;
- epoch estimates stay within the estimator's clamps.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.states import FlowState
from repro.net.packet import ACK, DATA, Packet
from tests.core.middlebox import Middlebox


class TrackerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tracker = Middlebox(default_epoch=0.5)
        self.now = 0.0
        self.highest = {}  # flow -> highest seq seen so far (shadow)
        self.next_fresh = {}

    def _packet(self, flow, seq):
        return Packet(flow, DATA, seq=seq, size=500)

    @rule(flow=st.integers(min_value=1, max_value=3))
    def fresh_arrival(self, flow):
        seq = self.next_fresh.get(flow, 0)
        self.next_fresh[flow] = seq + 1
        flagged = self.tracker.observe_arrival(self._packet(flow, seq), self.now)
        expected = seq <= self.highest.get(flow, -1)
        assert flagged == expected
        self.highest[flow] = max(self.highest.get(flow, -1), seq)

    @rule(flow=st.integers(min_value=1, max_value=3),
          back=st.integers(min_value=0, max_value=5))
    def repeated_arrival(self, flow, back):
        highest = self.highest.get(flow)
        if highest is None:
            return
        seq = max(0, highest - back)
        flagged = self.tracker.observe_arrival(self._packet(flow, seq), self.now)
        assert flagged  # seq <= highest: must be inferred as retransmission

    @rule(flow=st.integers(min_value=1, max_value=3))
    def drop(self, flow):
        record = self.tracker.lookup(flow)
        before = record.cumulative_drops if record else 0
        self.tracker.observe_drop(self._packet(flow, 0), self.now)
        after = self.tracker.lookup(flow).cumulative_drops
        assert after == before + 1

    @rule(flow=st.integers(min_value=1, max_value=3))
    def ack(self, flow):
        record = self.tracker.lookup(flow)
        self.tracker.observe_ack(Packet(flow, ACK, ack_seq=5), self.now)
        if record is not None:
            assert record.epoch_length > 0

    @rule(dt=st.floats(min_value=0.01, max_value=5.0))
    def advance(self, dt):
        self.now += dt

    @rule(flow=st.integers(min_value=1, max_value=3))
    def query_state(self, flow):
        state = self.tracker.state_of(flow, self.now)
        assert isinstance(state, FlowState)

    # -------------------------------------------------------- invariants
    @invariant()
    def counters_nonnegative(self):
        for record in self.tracker.flows.values():
            assert record.new_packets >= 0
            assert record.retransmissions >= 0
            assert record.drops >= 0
            assert record.outstanding_drops >= 0
            assert record.bytes_forwarded >= 0
            assert record.silent_epochs >= 0

    @invariant()
    def epoch_estimates_clamped(self):
        for record in self.tracker.flows.values():
            estimator = record.estimator
            assert estimator.min_epoch <= record.epoch_length <= estimator.max_epoch

    @invariant()
    def epoch_window_tracks_time(self):
        for record in self.tracker.flows.values():
            assert record.epoch_start <= self.now + 1e-9


TrackerMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
TestTrackerStateful = TrackerMachine.TestCase


def test_long_silence_always_leaves_active_states():
    tracker = Middlebox(default_epoch=0.1)
    tracker.observe_arrival(Packet(1, DATA, seq=0, size=500), 0.0)
    tracker.observe_drop(Packet(1, DATA, seq=1, size=500), 0.05)
    state = tracker.state_of(1, 10.0)
    assert state in (FlowState.TIMEOUT_SILENCE, FlowState.EXTENDED_SILENCE)
