"""Differential fence for TAQ's fused per-packet frames.

``TAQQueue.enqueue`` observes the arrival, samples the estimator,
classifies and hands the packet to the scheduler in one frame;
``TAQQueue.observe_reverse`` matches an ACK, samples the epoch and
re-keys the census in one; ``TAQScheduler.enqueue`` / ``dequeue`` push
out and serve in one each.  :mod:`tests.core.reference_taq` keeps the
helper calls they replaced.  A Hypothesis state machine drives one
queue of each side by side through everything that takes a branch:

- SYNs (and the NewFlow SYN cap), fresh data, retransmissions, and
  reverse ACKs timed to grow and to shrink the epoch estimate, plus
  reverse packets the tap must ignore;
- bursts into a full buffer at every protection rank, including
  retransmissions that can only get in by pushing out a recovery
  packet of shorter silence;
- admission refusals (``taq+ac`` with a low tipping point);
- idle gaps past ``idle_timeout`` (the table is collected under the
  census) and gaps of more than 256 epochs (the rollover jumps);
- census queries at the float where a flow's horizon ends and its
  neighbours.

It runs under every fairness model/granularity combination and with
``classify_fair_share`` and ``silence_priority`` on and off.  After
every step the two sides must agree exactly: every return value, every
``FlowRecord`` slot, the estimators, the census, the scheduler's
containers, stats and counters, the admission controller, and the
queue's ``enqueued``, ``dropped`` and ``admission_refusals``.
"""

from __future__ import annotations

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.admission import AdmissionController
from repro.core.scheduler import PacketClass
from repro.core.states import FlowState
from repro.core.taq import TAQQueue
from repro.core.tracker import ACTIVITY_HORIZON_EPOCHS, FlowRecord
from repro.net.packet import ACK, DATA, SYN, SYNACK, Packet
from repro.sim.observe import Observer
from tests.core.reference_taq import ReferenceTAQQueue

FLOWS = st.integers(min_value=1, max_value=8)
#: Flows 1-3 share pool 7, 4-5 share pool 9, 6 and 7 have a pool each
#: and flow 8 carries no pool identity.
POOL_OF = {1: 7, 2: 7, 3: 7, 4: 9, 5: 9, 6: 11, 7: 13}
COMBINATIONS = (
    ("fair-queuing", "flow"),
    ("proportional", "flow"),
    ("fair-queuing", "pool"),
)
RECORD_SLOTS = [s for s in FlowRecord.__slots__ if s not in ("estimator", "obs")]


def packet_key(packet):
    return (packet.flow_id, packet.kind, packet.seq, packet.ack_seq, packet.size,
            packet.pool_id)


def estimator_state(estimator):
    state = dict(vars(estimator))
    state["_pending"] = list(state["_pending"].items())  # order matters
    return state


def tracker_state(tracker):
    return {
        "flows": [
            (flow_id, [getattr(record, slot) for slot in RECORD_SLOTS],
             estimator_state(record.estimator))
            for flow_id, record in tracker.flows.items()
        ],
        "active": tracker._active,
        "per_pool": list(tracker._active_per_pool.items()),
        "expiry": [(key, order, record.flow_id) for key, order, record in tracker._expiry],
        "pushes": tracker._pushes,
        "last_gc": tracker._last_gc,
    }


def scheduler_state(scheduler):
    return {
        "recovery": [(p, t, packet_key(packet)) for p, t, packet in scheduler._recovery],
        "fifos": [(klass, [packet_key(p) for p in fifo])
                  for klass, fifo in scheduler._fifos.items()],
        "window": list(scheduler._recent_services),
        "counters": (scheduler._recent_recovery, scheduler.buffered, scheduler._tiebreak,
                     scheduler._level2_rotation, scheduler._buffered_syns),
        "stats": [(klass, s.enqueued, s.dropped, s.served)
                  for klass, s in scheduler.stats.items()],
    }


class Log(Observer):
    """Every event the queue and its flow records emit, as plain data."""

    def __init__(self):
        self.events = []

    def refused(self, queue, packet, now):
        self.events.append(("refused", packet_key(packet), now))

    def penalized(self, queue, packet, now):
        self.events.append(("penalized", packet_key(packet), now))

    def evicted(self, queue, victim, packet, now):
        self.events.append(("evicted", packet_key(victim), packet_key(packet), now))

    def dropped(self, queue, packet, now):
        self.events.append(("dropped", packet_key(packet), now, queue.enqueued))

    def flow_state(self, record, prev_state, when):
        self.events.append(("flow_state", record.flow_id, prev_state, record.state, when))


def queue_state(queue):
    return {
        "events": queue.obs.events,
        "tracker": tracker_state(queue.tracker),
        "scheduler": scheduler_state(queue.scheduler),
        "admission": None if queue.admission is None else vars(queue.admission),
        "counts": (queue.enqueued, queue.dropped, queue.admission_refusals, len(queue)),
    }


class FusedMachine(RuleBasedStateMachine):
    @initialize(
        fairness=st.sampled_from(COMBINATIONS),
        classify_fair_share=st.booleans(),
        silence_priority=st.booleans(),
        admission=st.booleans(),
        capacity_pkts=st.integers(min_value=2, max_value=8),
        default_epoch=st.sampled_from([0.02, 0.1, 0.5]),
        idle_timeout=st.sampled_from([0.5, 3.0, 60.0]),
        capacity_bps=st.sampled_from([0.0, 2_000.0, 20_000.0, 1_000_000.0]),
    )
    def build(self, fairness, classify_fair_share, silence_priority, admission,
              capacity_pkts, default_epoch, idle_timeout, capacity_bps):
        model, granularity = fairness

        def make(cls):
            queue = cls(
                capacity_pkts, default_epoch=default_epoch, fairness_model=model,
                fairness_granularity=granularity,
                admission=AdmissionController(p_thresh=0.05, measure_interval=0.2,
                                              pool_idle_timeout=1.0, t_wait=0.5)
                if admission else None,
                new_flow_capacity=2, classify_fair_share=classify_fair_share,
                silence_priority=silence_priority,
            )
            queue.tracker.idle_timeout = idle_timeout
            queue.fairshare.capacity_bps = capacity_bps
            # Short, so services do fall out of the recovery-share window,
            # and 3 of 10 is exactly the default 0.3 share.
            queue.scheduler.service_window = 10
            queue.obs = queue.tracker.obs = Log()
            return queue

        self.fused, self.reference = make(TAQQueue), make(ReferenceTAQQueue)
        self.now = 0.0
        self.next_seq = {}
        self.last_data = {}  # flow -> (seq, time) of its latest fresh packet

    def _both(self, method, *args):
        fused = getattr(self.fused, method)(*args)
        reference = getattr(self.reference, method)(*args)
        return fused, reference

    def _both_census(self, now):
        return [queue.tracker.active_flows(now) for queue in (self.fused, self.reference)]

    def _arrive(self, flow, kind, seq=-1):
        def packet():
            return Packet(flow, kind, seq=seq, size=200 + 100 * (flow % 3),
                          pool_id=POOL_OF.get(flow, -1))

        fused = self.fused.enqueue(packet(), self.now)
        reference = self.reference.enqueue(packet(), self.now)
        assert fused == reference

    def _reverse(self, flow, kind, ack_seq):
        for queue in (self.fused, self.reference):
            queue.observe_reverse(Packet(flow, kind, ack_seq=ack_seq, size=40), self.now)

    # ------------------------------------------------------------- rules
    @rule(flow=FLOWS)
    def syn(self, flow):
        self._arrive(flow, SYN)

    @rule(flow=FLOWS)
    def fresh_data(self, flow):
        seq = self.next_seq.get(flow, 0)
        self.next_seq[flow] = seq + 1
        self.last_data[flow] = (seq, self.now)
        self._arrive(flow, DATA, seq)

    @rule(flow=FLOWS, back=st.integers(min_value=0, max_value=3))
    def retransmission(self, flow, back):
        if flow in self.next_seq:
            self._arrive(flow, DATA, max(0, self.next_seq[flow] - 1 - back))

    @rule(flows=st.lists(FLOWS, min_size=4, max_size=12),
          kinds=st.lists(st.sampled_from(["fresh", "retx", "syn"]), min_size=4,
                         max_size=12),
          dt=st.sampled_from([0.0, 0.001, 0.05]))
    def burst(self, flows, kinds, dt):
        """Arrivals with no service in between: the buffer fills, and
        later arrivals get in only by pushing something out."""
        for flow, kind in zip(flows, kinds):
            self.now += dt
            if kind == "syn":
                self.syn(flow)
            elif kind == "retx":
                self.retransmission(flow, 0)
            else:
                self.fresh_data(flow)

    @rule(flow=FLOWS, rtt=st.sampled_from([0.0, 0.011, 0.07, 0.9, 4.0]),
          kind=st.sampled_from([ACK, ACK, SYNACK, DATA]),
          behind=st.sampled_from([0, 0, 1, 2]))
    def ack_after(self, flow, rtt, kind, behind):
        """Cover the flow's latest data, or stop *behind* segments short
        of it, *rtt* seconds after it went by: a short round trip pulls
        the estimate (and the horizon) in, a long one pushes it out.  A
        DATA packet on the reverse path is not the tap's business."""
        if flow not in self.last_data:
            self._reverse(flow, kind, 1)
            return
        seq, sent = self.last_data[flow]
        self.now = max(self.now, sent + rtt)
        self._reverse(flow, kind, seq + 1 - behind)

    @rule(count=st.integers(min_value=1, max_value=4))
    def dequeue(self, count):
        for _ in range(count):
            fused, reference = self._both("dequeue", self.now)
            assert (fused is None) == (reference is None)
            if fused is not None:
                assert packet_key(fused) == packet_key(reference)

    @rule(dt=st.one_of(
        st.floats(min_value=0.0, max_value=0.3),
        st.floats(min_value=0.3, max_value=8.0),
        st.sampled_from([0.25, 0.5, 3.0, 61.0, 130.0]),
    ))
    def advance(self, dt):
        # 0.02 s epochs: 8 s is 400 of them, past the 256-epoch jump.
        # The exact steps land on a burst-gap threshold (0.5 x 0.5 s)
        # and on an idle timeout.
        self.now += dt
        # Bring the census to the new time, so that expired flows are
        # out of it when an ACK with a longer round trip brings them back.
        fused, reference = self._both_census(self.now)
        assert fused == reference

    @rule(data=st.data(), steps=st.lists(st.integers(-2, 2), min_size=1,
                                         max_size=5, unique=True))
    def knife_edge(self, data, steps):
        """Arrive and query on and around the float where one flow's
        horizon ends."""
        flows = self.fused.tracker.flows
        if not flows:
            return
        flow_id = data.draw(st.sampled_from(sorted(flows)))
        record = flows[flow_id]
        edge = record.last_seen + ACTIVITY_HORIZON_EPOCHS * record.epoch_length
        for step in sorted(steps):
            when = edge
            for _ in range(abs(step)):
                when = math.nextafter(when, math.inf if step > 0 else -math.inf)
            if when >= self.now:
                self.now = when
                fused, reference = self._both_census(when)
                assert fused == reference
                self.agree()
                self.fresh_data(data.draw(FLOWS))

    # -------------------------------------------------------- invariants
    @invariant()
    def agree(self):
        if hasattr(self, "fused"):
            assert queue_state(self.fused) == queue_state(self.reference)


FusedMachine.TestCase.settings = settings(stateful_step_count=50, deadline=None)
TestFusedTaq = FusedMachine.TestCase


def test_the_fence_reaches_every_branch_it_names():
    """One scripted run through the branches the machine is meant to
    find: push-out at each rank, recovery over recovery, the SYN cap,
    a refusal, GC under the census and a 256-epoch jump."""
    queues = []
    for cls in (TAQQueue, ReferenceTAQQueue):
        queue = cls(3, default_epoch=0.02, new_flow_capacity=1,
                    admission=AdmissionController(p_thresh=0.05, measure_interval=0.1))
        queue.fairshare.capacity_bps = 20_000.0
        queue.obs = queue.tracker.obs = Log()
        queues.append(queue)

    def arrive(flow, kind, seq, now, pool=-1):
        results = [q.enqueue(Packet(flow, kind, seq=seq, size=500, pool_id=pool), now)
                   for q in queues]
        assert results[0] == results[1]
        assert queue_state(queues[0]) == queue_state(queues[1])
        return results[0]

    assert arrive(1, SYN, -1, 0.0)
    assert not arrive(2, SYN, -1, 0.0)              # the SYN cap
    for seq in range(4):
        arrive(3, DATA, seq, 0.01)                   # fills, then pushes out
    for seq in range(3):
        arrive(3, DATA, seq, 0.5 + seq)              # retransmissions, longer silences
    for flow in (4, 5):
        arrive(flow, DATA, 0, 4.0)
    assert not arrive(6, SYN, -1, 4.2, pool=9)      # refused: losses were high
    arrive(3, DATA, 9, 200.0)                        # GC and a 256-epoch jump
    fused = queues[0]
    stats = fused.scheduler.stats.values()
    assert fused.admission_refusals == 1
    assert sum(s.dropped for s in stats) >= 3
    assert list(fused.tracker.flows) == [3]


def test_a_flow_above_its_share_waits_for_level_3():
    queues = []
    for cls in (TAQQueue, ReferenceTAQQueue):
        queue = cls(8, default_epoch=0.02)
        queue.fairshare.capacity_bps = 2_000.0
        queue.obs = queue.tracker.obs = Log()
        queues.append(queue)
    served = []
    for seq in range(12):
        for queue in queues:
            queue.enqueue(Packet(1, DATA, seq=seq, size=500), 0.02 * seq)
        served.append([queue.dequeue(0.02 * seq) for queue in queues])
        assert queue_state(queues[0]) == queue_state(queues[1])
    assert all(packet_key(a) == packet_key(b) for a, b in served)
    assert queues[0].scheduler.stats[PacketClass.ABOVE_FAIR_SHARE].served > 0


def test_a_flow_in_slow_start_is_new_for_four_epochs():
    """Bursts that grow by more than half each epoch keep the flow in
    slow start; it is NEW_FLOW through its fourth epoch and not after."""
    queues = []
    for cls in (TAQQueue, ReferenceTAQQueue):
        queue = cls(200, default_epoch=0.1)
        queue.obs = queue.tracker.obs = Log()
        queues.append(queue)
    seq, classes = 0, []
    for epoch, burst in enumerate((2, 4, 7, 11, 17, 26)):
        for i in range(burst):
            for queue in queues:
                queue.enqueue(Packet(1, DATA, seq=seq, size=200), 0.1 * epoch + 0.001 * i)
            seq += 1
            assert queue_state(queues[0]) == queue_state(queues[1])
        record = queues[0].tracker.flows[1]
        classes.append((record.epochs, record.state is FlowState.SLOW_START))
    new_flow = queues[0].scheduler.stats[PacketClass.NEW_FLOW].enqueued
    assert (4, True) in classes and 0 < new_flow < seq


def side_by_side(capacity_pkts=200, capacity_bps=0.0, **kwargs):
    queues = []
    for cls in (TAQQueue, ReferenceTAQQueue):
        queue = cls(capacity_pkts, **kwargs)
        queue.fairshare.capacity_bps = capacity_bps
        queue.obs = queue.tracker.obs = Log()
        queues.append(queue)
    return queues


def test_the_fair_share_sweeps_across_every_rate_and_its_headroom():
    """Eight flows at 1..8 packets per epoch, and a capacity that climbs
    in 2.5% steps: each flow's rate passes the share and the share x 1.1
    headroom, so an Above/Below split off by a hair shows."""
    queues = side_by_side(default_epoch=0.1)
    seq = dict.fromkeys(range(1, 9), 0)
    for epoch in range(60):
        for queue in queues:
            queue.fairshare.capacity_bps = 8 * 16_000 * (1.0 + 0.025 * epoch) ** 2
        for flow in range(1, 9):
            for i in range(flow):
                now = 0.1 * epoch + 0.001 * (8 * i + flow)
                for queue in queues:
                    queue.enqueue(Packet(flow, DATA, seq=seq[flow], size=200), now)
                    queue.dequeue(now)
                seq[flow] += 1
        assert queue_state(queues[0]) == queue_state(queues[1])
    stats = queues[0].scheduler.stats
    assert stats[PacketClass.ABOVE_FAIR_SHARE].enqueued > 0
    assert stats[PacketClass.BELOW_FAIR_SHARE].enqueued > 0


def test_exact_float_edges_of_the_burst_gap_and_the_idle_timeout():
    """A data gap of exactly burst_gap_factor x estimate (0.25 s against
    a 0.5 s prior) does not open a burst; an arrival exactly
    idle_timeout after the last collection does collect."""
    queues = side_by_side(default_epoch=0.5)
    for queue in queues:
        queue.tracker.idle_timeout = 3.0
    samples = []
    for seq, now in enumerate((1.0, 1.25, 1.5, 3.0)):
        for queue in queues:
            queue.enqueue(Packet(1, DATA, seq=seq, size=200), now)
        assert queue_state(queues[0]) == queue_state(queues[1])
        samples.append(queues[0].tracker.flows[1].estimator.samples)
    assert samples == [0, 0, 0, 1]
    assert queues[0].tracker._last_gc == 3.0


def test_an_ack_brings_a_flow_back_exactly_at_its_new_horizon():
    """Retired at 1 s, acked at 50 s: the 50 s round trip clamps to the
    5 s maximum epoch, whose ten-epoch horizon ends at 50 s exactly."""
    queues = side_by_side(default_epoch=0.02)
    for queue in queues:
        queue.enqueue(Packet(1, DATA, seq=0, size=200), 0.0)
        assert queue.tracker.active_flows(1.0) == 1 and not queue.tracker.flows[1].active
        queue.observe_reverse(Packet(1, ACK, ack_seq=1, size=40), 50.0)
    assert queue_state(queues[0]) == queue_state(queues[1])
    assert queues[0].tracker.flows[1].active
