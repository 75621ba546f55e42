"""Differential test of the tracker's incremental activity census.

The tracker answers "how many flows are active, and how many per pool"
from running counts and an expiry heap (``repro.core.tracker``).  This
file keeps the definition it must agree with — one walk over the flow
table applying ``now - last_seen <= 10 * epoch_length`` — and nowhere
else does: the walk is the *reference*, the tracker is the subject.

A Hypothesis state machine interleaves everything that can move a
flow's membership:

- arrivals (SYN, fresh data, retransmissions), which move ``last_seen``
  and may feed the epoch estimator through the SYN gap or a burst gap;
- reverse ACKs timed to *grow* and to *shrink* the epoch estimate (a
  shrinking estimate expires a flow without touching ``last_seen``, a
  growing one can bring an expired flow back);
- drops, including drops of flows the tracker has never seen or has
  already collected (``observe_drop`` creates the record);
- idle gaps longer than ``idle_timeout`` followed by an arrival, so the
  table is garbage-collected under the census;
- queries at knife-edge times: the float where a flow's horizon ends
  and the two neighbouring floats on either side of it.

After every step the flow count, the per-pool census, each record's
``active`` flag and ``fair_share_bps`` under all three
model/granularity combinations must equal the reference, exactly.  The
clock only moves forward, as the simulator's does.
"""

from __future__ import annotations

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.fairshare import FairShareEstimator
from repro.core.tracker import ACTIVITY_HORIZON_EPOCHS, FlowTracker
from repro.net.packet import ACK, DATA, SYN, Packet

CAPACITY_BPS = 1_000_000.0
FLOWS = st.integers(min_value=1, max_value=8)
#: Flows 1-3 share pool 7, 4-5 share pool 9, the rest are unpooled.
POOL_OF = {1: 7, 2: 7, 3: 7, 4: 9, 5: 9}


# ----------------------------------------------------------------------
# The reference: a full scan, kept here only.
# ----------------------------------------------------------------------
def scan_active(tracker, now):
    return [
        record for record in tracker.flows.values()
        if now - record.last_seen <= 10.0 * record.epoch_length
    ]


def scan_key(record):
    return record.pool_id if record.pool_id != -1 else -(record.flow_id + 2)


def scan_per_pool(tracker, now):
    census = {}
    for record in scan_active(tracker, now):
        census[scan_key(record)] = census.get(scan_key(record), 0) + 1
    return census


def scan_fair_share(tracker, record, now, model, granularity):
    if granularity == "pool":
        census = scan_per_pool(tracker, now)
        return (CAPACITY_BPS / max(1, len(census))
                / max(1, census.get(scan_key(record), 1)))
    active = scan_active(tracker, now)
    equal_share = CAPACITY_BPS / max(1, len(active))
    if model == "fair-queuing":
        return equal_share
    inverse_rtt_sum = 0.0
    for other in active:  # table order: a float sum is order-sensitive
        inverse_rtt_sum += 1.0 / max(1e-3, other.epoch_length)
    if inverse_rtt_sum <= 0:
        return equal_share
    return CAPACITY_BPS * ((1.0 / max(1e-3, record.epoch_length)) / inverse_rtt_sum)


COMBINATIONS = (
    ("fair-queuing", "flow"),
    ("proportional", "flow"),
    ("fair-queuing", "pool"),
)


class CensusMachine(RuleBasedStateMachine):
    @initialize(
        default_epoch=st.sampled_from([0.02, 0.1, 0.5]),
        idle_timeout=st.sampled_from([0.5, 3.0, 60.0]),
    )
    def build(self, default_epoch, idle_timeout):
        # idle_timeout 0.5 collects flows still inside their horizon,
        # 60 only flows long past it.
        self.tracker = FlowTracker(default_epoch=default_epoch,
                                   idle_timeout=idle_timeout)
        self.estimators = [
            FairShareEstimator(self.tracker, capacity_bps=CAPACITY_BPS,
                               model=model, granularity=granularity)
            for model, granularity in COMBINATIONS
        ]
        self.now = 0.0
        self.next_seq = {}
        self.last_data = {}  # flow -> (seq, time) of its latest fresh packet

    def _packet(self, flow, kind, seq=-1, ack_seq=-1):
        return Packet(flow, kind, seq=seq, ack_seq=ack_seq, size=500,
                      pool_id=POOL_OF.get(flow, -1))

    # ------------------------------------------------------------- rules
    @rule(flow=FLOWS)
    def syn(self, flow):
        self.tracker.observe_arrival(self._packet(flow, SYN), self.now)

    @rule(flow=FLOWS)
    def fresh_data(self, flow):
        seq = self.next_seq.get(flow, 0)
        self.next_seq[flow] = seq + 1
        self.last_data[flow] = (seq, self.now)
        self.tracker.observe_arrival(self._packet(flow, DATA, seq=seq), self.now)

    @rule(flow=FLOWS)
    def retransmission(self, flow):
        if flow not in self.last_data:
            return
        seq = self.last_data[flow][0]
        self.tracker.observe_arrival(self._packet(flow, DATA, seq=seq), self.now)

    @rule(flow=FLOWS)
    def drop(self, flow):
        self.tracker.observe_drop(self._packet(flow, DATA, seq=0), self.now)

    @rule(flow=FLOWS, rtt=st.sampled_from([0.0, 0.011, 0.07, 0.9, 4.0]))
    def ack_after(self, flow, rtt):
        """Cover the flow's latest data *rtt* seconds after it went by:
        a short one pulls the estimate (and the horizon) in, a long one
        pushes it out."""
        if flow not in self.last_data:
            return
        seq, sent = self.last_data[flow]
        self.now = max(self.now, sent + rtt)
        self.tracker.observe_ack(self._packet(flow, ACK, ack_seq=seq + 1), self.now)

    @rule(dt=st.one_of(
        st.floats(min_value=0.0, max_value=0.3),
        st.floats(min_value=0.3, max_value=8.0),
        st.sampled_from([61.0, 130.0]),
    ))
    def advance(self, dt):
        self.now += dt

    @rule(data=st.data(), steps=st.lists(st.integers(-2, 2), min_size=1,
                                         max_size=5, unique=True))
    def knife_edge(self, data, steps):
        """Query on and around the float where one flow's horizon ends."""
        if not self.tracker.flows:
            return
        record = data.draw(st.sampled_from(list(self.tracker.flows.values())))
        edge = record.last_seen + ACTIVITY_HORIZON_EPOCHS * record.epoch_length
        for step in sorted(steps):
            when = edge
            for _ in range(abs(step)):
                when = math.nextafter(when, math.inf if step > 0 else -math.inf)
            if when >= self.now:
                self.now = when
                self.agrees_with_scan()

    # -------------------------------------------------------- invariants
    @invariant()
    def agrees_with_scan(self):
        tracker, now = self.tracker, self.now
        active = scan_active(tracker, now)
        assert tracker.active_flows(now) == max(1, len(active))
        assert tracker.active_per_pool(now) == scan_per_pool(tracker, now)
        assert [r for r in tracker.flows.values() if r.active] == active
        for estimator in self.estimators:
            for record in tracker.flows.values():
                assert estimator.fair_share_bps(record, now) == scan_fair_share(
                    tracker, record, now, estimator.model, estimator.granularity)


CensusMachine.TestCase.settings = settings(stateful_step_count=60, deadline=None)
TestCensusDifferential = CensusMachine.TestCase


def test_knife_edge_is_decided_by_the_predicate_not_the_heap_key():
    """0.1 + 10 * 0.07 is a float whose sum and difference disagree in
    the last place; walk the clock across it one float at a time."""
    tracker = FlowTracker(default_epoch=0.07)
    tracker.observe_arrival(Packet(1, DATA, seq=0, size=500), 0.1)
    tracker.observe_arrival(Packet(2, DATA, seq=0, size=500), 0.1)
    when = math.nextafter(0.1 + 10.0 * 0.07, -math.inf)
    for _ in range(4):
        when = math.nextafter(when, -math.inf)
    seen = set()
    for _ in range(10):
        expected = len(scan_active(tracker, when))
        assert tracker.active_flows(when) == max(1, expected)
        seen.add(expected)
        when = math.nextafter(when, math.inf)
    assert seen == {0, 2}  # the walk did cross the edge


def test_shrinking_estimate_expires_a_flow_without_an_arrival():
    tracker = FlowTracker(default_epoch=1.0)
    tracker.observe_arrival(Packet(1, DATA, seq=0, size=500), 5.0)
    tracker.observe_arrival(Packet(2, DATA, seq=0, size=500), 5.0)
    # Both are keyed to expire at t=15.  An ACK 20 ms behind flow 1's
    # data makes its epoch 20 ms: its horizon now ends at t=5.2.
    tracker.observe_ack(Packet(1, ACK, ack_seq=1), 5.02)
    assert tracker.lookup(1).epoch_length < 0.021
    assert tracker.active_flows(5.1) == 2
    assert tracker.active_flows(6.0) == 1 == len(scan_active(tracker, 6.0))


def test_growing_estimate_brings_an_expired_flow_back():
    tracker = FlowTracker(default_epoch=0.1)
    tracker.observe_arrival(Packet(1, DATA, seq=0, size=500), 0.0)
    tracker.observe_arrival(Packet(2, DATA, seq=0, size=500), 1.9)
    assert tracker.active_flows(2.0) == 1          # flow 1 expired at t=1
    tracker.observe_ack(Packet(1, ACK, ack_seq=1), 2.0)  # a 2 s round trip
    assert tracker.lookup(1).epoch_length == 2.0
    assert tracker.active_flows(2.0) == 2 == len(scan_active(tracker, 2.0))


def test_collected_flow_leaves_the_census_even_inside_its_horizon():
    tracker = FlowTracker(default_epoch=1.0, idle_timeout=2.0)
    tracker.observe_arrival(Packet(1, DATA, seq=0, size=500, pool_id=3), 0.0)
    tracker.observe_arrival(Packet(2, DATA, seq=0, size=500, pool_id=3), 2.5)
    assert tracker.lookup(1) is None               # collected at 2.5 s ...
    assert tracker.active_flows(2.5) == 1          # ... 7.5 s before its horizon
    assert tracker.active_per_pool(2.5) == {3: 1}
