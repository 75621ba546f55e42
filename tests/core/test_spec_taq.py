"""Differential fence: ``TAQQueue`` against the executable spec, :mod:`tests.core.spec_taq`.

A Hypothesis machine drives both on the same packets through every branch: SYNs (and the SYN
cap), fresh data, retransmissions, reverse ACKs that grow and shrink the epoch, reverse packets
the tap ignores; bursts into a full buffer at every rank, recovery pushing out recovery;
admission refusals; gaps past ``idle_timeout`` and past 256 epochs; census queries around the
float where a horizon ends — under all three fairness combinations and both ablation switches.
Both must make the same decisions (accept or refuse, the victim, the class, the service order,
every observer event), ``TAQQueue``'s counters must add up to them, and the census must agree."""

import math
from collections import Counter
from functools import partial
from inspect import signature

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.admission import AdmissionController
from repro.core.scheduler import PacketClass
from repro.core.taq import TAQQueue
from repro.core.tracker import ACTIVITY_HORIZON_EPOCHS
from repro.net.packet import ACK, DATA, SYN, SYNACK, Packet
from repro.sim.observe import Observer
from tests.core.spec_taq import SpecTAQ, scan_active, scan_per_pool

FLOWS = st.integers(min_value=1, max_value=8)
#: Flows 1-3 share pool 7, 4-5 pool 9, 6 and 7 have one each, 8 none.
POOL_OF = {1: 7, 2: 7, 3: 7, 4: 9, 5: 9, 6: 11, 7: 13}
COMBINATIONS = (("fair-queuing", "flow"), ("proportional", "flow"), ("fair-queuing", "pool"))


class Log(Observer):
    """The events a queue and its flow records emit (packets by identity),
    how many of each, and the class of every arrival that got one."""

    def __init__(self):
        self.events, self.classes, self.counts = [], [], Counter()

    def note(self, *event):
        self.events.append(event)
        self.counts[event[0]] += 1

    def flow_state(self, record, prev_state, when):
        self.note("flow_state", record.flow_id, prev_state, record.state, when)

    def classified(self, queue, packet, klass):  # the spec's; TAQQueue's is read off its stats
        self.classes.append((packet, klass))


for _event in ("refused", "penalized", "evicted", "dropped"):  # (queue, packet(s), now)
    setattr(Log, _event, lambda self, queue, *args, _event=_event: self.note(_event, *args))


def pair(capacity_pkts, capacity_bps=0.0, idle_timeout=60.0, service_window=64,
         admission=None, **params):
    """A ``TAQQueue`` and the spec, configured alike.  *admission* is a
    factory: each side gets a controller of its own."""
    queue = TAQQueue(capacity_pkts, admission=admission and admission(), **params)
    queue.fairshare.capacity_bps = capacity_bps
    queue.tracker.idle_timeout = idle_timeout
    queue.scheduler.service_window = service_window
    queue.obs = queue.tracker.obs = Log()
    config = {name: p.default for name, p in signature(TAQQueue).parameters.items()
              if name != "capacity_pkts"}
    config.update(params, admission=admission and admission(), capacity_bps=capacity_bps,
                  idle_timeout=idle_timeout, service_window=service_window,
                  new_flow_capacity=queue.scheduler.new_flow_capacity)
    return queue, SpecTAQ(capacity_pkts, Log(), **config)


def enqueue(queue, spec, packet, now):
    """Enqueue on both sides.  TAQQueue's class is the one whose counter moved; of equally
    short silence, the spec pushes out the recovery packet TAQQueue did (DEVIATIONS)."""
    stats, seen = queue.scheduler.stats, len(queue.obs.events)
    before = {klass: (s.enqueued, s.dropped) for klass, s in stats.items()}
    accepted = queue.enqueue(packet, now)
    moved = [k for k, s in stats.items() if s.enqueued > before[k][0]] or [
        k for k, s in stats.items() if s.dropped > before[k][1]]
    queue.obs.classes += [(packet, klass) for klass in moved]
    victims = [e[1] for e in queue.obs.events[seen:] if e[0] == "evicted"]
    recovery = spec.queues[PacketClass.RECOVERY]
    spec.victim_index = next((i for i, (_, p) in enumerate(recovery) if p in victims), -1)
    assert spec.victim_index == -1 or recovery[spec.victim_index][0] == recovery[-1][0]
    assert accepted is spec.enqueue(packet, now)
    agree(queue, spec)
    return accepted


def agree(queue, spec):
    """The same decisions so far (the logs are consumed), and TAQQueue's
    counters add up to them."""
    assert (queue.obs.events, queue.obs.classes) == (spec.obs.events, spec.obs.classes)
    for log in (queue.obs, spec.obs):
        log.events.clear()
        log.classes.clear()
    stats, counts = queue.scheduler.stats.values(), queue.obs.counts
    for klass in PacketClass:
        assert queue.scheduler.occupancy(klass) == len(spec.queues[klass])
    served = sum(s.served for s in stats)
    assert queue.enqueued == served + len(queue)  # the QueueDiscipline contract
    assert sum(s.enqueued for s in stats) == queue.enqueued + counts["evicted"]
    assert sum(s.dropped for s in stats) == queue.dropped - counts["refused"]
    assert (queue.dropped, queue.admission_refusals) == (counts["dropped"], counts["refused"])


def census_agrees(queue, spec, now):
    flows = spec.flows.values()
    assert queue.tracker.active_flows(now) == max(1, len(scan_active(flows, now)))
    assert queue.tracker.active_per_pool(now) == scan_per_pool(flows, now)


def both(queue, spec, method, *args):
    """Call *method* on both sides: the same result, the same decisions."""
    assert getattr(queue, method)(*args) is getattr(spec, method)(*args)
    agree(queue, spec)


class SpecMachine(RuleBasedStateMachine):
    @initialize(fairness=st.sampled_from(COMBINATIONS), admission=st.booleans(),
                config=st.fixed_dictionaries(dict(
                    capacity_pkts=st.integers(min_value=2, max_value=8),
                    classify_fair_share=st.booleans(), silence_priority=st.booleans(),
                    default_epoch=st.sampled_from([0.02, 0.1, 0.5]),
                    idle_timeout=st.sampled_from([0.5, 3.0, 60.0]),
                    capacity_bps=st.sampled_from([0.0, 2_000.0, 20_000.0, 1_000_000.0]))))
    def build(self, fairness, admission, config):
        # A short service window, so services do fall out of it, and 3
        # of 10 is exactly the default 0.3 recovery share.
        self.queue, self.spec = pair(
            fairness_model=fairness[0], fairness_granularity=fairness[1], new_flow_capacity=2,
            service_window=10, admission=partial(
                AdmissionController, p_thresh=0.05, measure_interval=0.2,
                pool_idle_timeout=1.0, t_wait=0.5) if admission else None, **config)
        self.now, self.next_seq = 0.0, {}
        self.last_data = {}  # flow -> (seq, time) of its latest fresh packet

    def _arrive(self, flow, kind, seq=-1):
        packet = Packet(flow, kind, seq=seq, size=200 + 100 * (flow % 3),
                        pool_id=POOL_OF.get(flow, -1))
        enqueue(self.queue, self.spec, packet, self.now)

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
        """No service in between: later arrivals get in only by pushing out."""
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
        """ACK the flow's latest data (or *behind* it) *rtt* s after it went by: the
        estimate and horizon move in or out.  Reverse DATA is not the tap's business."""
        ack_seq = 1
        if flow in self.last_data:
            seq, sent = self.last_data[flow]
            self.now = max(self.now, sent + rtt)
            ack_seq = seq + 1 - behind
        packet = Packet(flow, kind, ack_seq=ack_seq, size=40)
        self.queue.observe_reverse(packet, self.now)
        self.spec.observe_reverse(packet, self.now)

    @rule(count=st.integers(min_value=1, max_value=4))
    def dequeue(self, count):
        for _ in range(count):
            assert self.queue.dequeue(self.now) is self.spec.dequeue(self.now)

    @rule(dt=st.one_of(
        st.floats(min_value=0.0, max_value=0.3),
        st.floats(min_value=0.3, max_value=8.0),
        st.sampled_from([0.25, 0.5, 3.0, 61.0, 130.0]),
    ))
    def advance(self, dt):
        # 8 s is 400 epochs of 0.02 s, past the 256-epoch jump; the exact steps land on a
        # burst-gap threshold (0.5 x 0.5 s) and an idle timeout.  The census comes to the
        # new time, so a longer round trip's ACK later brings expired flows back.
        self.now += dt
        census_agrees(self.queue, self.spec, self.now)

    @rule(data=st.data(), steps=st.lists(st.integers(-2, 2), min_size=1,
                                         max_size=5, unique=True))
    def knife_edge(self, data, steps):
        """Arrive and query on and around the float where a flow's horizon ends."""
        flows = self.spec.flows
        if not flows:
            return
        flow = flows[data.draw(st.sampled_from(sorted(flows)))]
        edge = flow.last_seen + ACTIVITY_HORIZON_EPOCHS * flow.epoch_length
        for step in sorted(steps):
            when = edge
            for _ in range(abs(step)):
                when = math.nextafter(when, math.inf if step > 0 else -math.inf)
            if when >= self.now:
                self.now = when
                census_agrees(self.queue, self.spec, self.now)
                self.fresh_data(data.draw(FLOWS))

    # -------------------------------------------------------- invariants
    @invariant()
    def agree(self):
        if hasattr(self, "queue"):
            agree(self.queue, self.spec)


SpecMachine.TestCase.settings = settings(stateful_step_count=50, deadline=None)
TestSpecTaq = SpecMachine.TestCase


def arrive(sides, flow, kind, seq, now, pool=-1, size=500):
    return enqueue(*sides, Packet(flow, kind, seq=seq, size=size, pool_id=pool), now)


def test_the_fence_reaches_every_branch_it_names():
    """The branches the machine is meant to find, scripted: push-out at each rank, recovery
    over recovery, the SYN cap, a refusal, GC under the census and a 256-epoch jump."""
    sides = pair(3, default_epoch=0.02, new_flow_capacity=1, capacity_bps=20_000.0,
                 admission=partial(AdmissionController, p_thresh=0.05, measure_interval=0.1))
    assert arrive(sides, 1, SYN, -1, 0.0)
    assert not arrive(sides, 2, SYN, -1, 0.0)             # the SYN cap
    for seq in range(4):
        arrive(sides, 3, DATA, seq, 0.01)                  # fills, then pushes out
    for seq in range(4):
        arrive(sides, 3, DATA, seq % 3, 0.5 + seq)         # retransmissions, longer silences
    for flow in (4, 5):
        arrive(sides, flow, DATA, 0, 4.0)
    assert not arrive(sides, 6, SYN, -1, 4.2, pool=9)     # refused: losses were high
    arrive(sides, 3, DATA, 9, 200.0)                       # GC and a 256-epoch jump
    queue, spec = sides
    stats = queue.scheduler.stats
    assert queue.admission_refusals == 1 and stats[PacketClass.RECOVERY].dropped >= 1
    assert sum(s.dropped for s in stats.values()) >= 3
    assert list(queue.tracker.flows) == list(spec.flows) == [3]


def test_a_flow_above_its_share_waits_for_level_3():
    sides = pair(8, default_epoch=0.02, capacity_bps=2_000.0)
    for seq in range(12):
        arrive(sides, 1, DATA, seq, 0.02 * seq)
        both(*sides, "dequeue", 0.02 * seq)
    assert sides[0].scheduler.stats[PacketClass.ABOVE_FAIR_SHARE].served > 0


def test_a_flow_in_slow_start_is_new_for_four_epochs():
    """Bursts that grow by more than half each epoch keep the flow in
    slow start; it is NEW_FLOW through its fourth epoch and not after."""
    sides = pair(200, default_epoch=0.1)
    seq, classes = 0, []
    for epoch, burst in enumerate((2, 4, 7, 11, 17, 26)):
        for i in range(burst):
            arrive(sides, 1, DATA, seq, 0.1 * epoch + 0.001 * i, size=200)
            seq += 1
        flow = sides[1].flows[1]
        classes.append((flow.epochs, flow.state.value))
    new_flow = sides[0].scheduler.stats[PacketClass.NEW_FLOW].enqueued
    assert (4, "slow_start") in classes and 0 < new_flow < seq


def test_the_fair_share_sweeps_across_every_rate_and_its_headroom():
    """Eight flows at 1..8 packets per epoch, and a capacity that climbs
    in 2.5% steps: each flow's rate passes the share and the share x 1.1
    headroom, so an Above/Below split off by a hair shows."""
    queue, spec = sides = pair(200, default_epoch=0.1)
    seq = dict.fromkeys(range(1, 9), 0)
    for epoch in range(60):
        queue.fairshare.capacity_bps = spec.capacity_bps = (
            8 * 16_000 * (1.0 + 0.025 * epoch) ** 2)
        for flow in range(1, 9):
            for i in range(flow):
                now = 0.1 * epoch + 0.001 * (8 * i + flow)
                arrive(sides, flow, DATA, seq[flow], now, size=200)
                both(*sides, "dequeue", now)
                seq[flow] += 1
    stats = queue.scheduler.stats
    assert stats[PacketClass.ABOVE_FAIR_SHARE].enqueued > 0
    assert stats[PacketClass.BELOW_FAIR_SHARE].enqueued > 0


def test_exact_float_edges_of_the_burst_gap_and_the_idle_timeout():
    """A data gap of exactly burst_gap_factor x estimate (0.25 s against
    a 0.5 s prior) does not open a burst; an arrival exactly
    idle_timeout after the last collection does collect: flow 2 is
    still in the table at 5.6 s, because the collection ran at 3 s."""
    queue, spec = sides = pair(200, default_epoch=0.5, idle_timeout=3.0)
    samples = []
    for seq, now in enumerate((1.0, 1.25, 1.5, 2.5, 3.0, 5.6)):
        arrive(sides, 2 if now == 2.5 else 1, DATA, seq, now, size=200)
        samples.append(spec.flows[1].samples)
    assert samples == [0, 0, 0, 0, 1, 2] and spec.last_gc == 3.0
    assert list(queue.tracker.flows) == list(spec.flows) == [1, 2]
    census_agrees(queue, spec, 5.6)
    census_agrees(queue, spec, 20.0)  # inside flow 1's horizon only at these samples


def test_an_ack_brings_a_flow_back_exactly_at_its_new_horizon():
    """Retired at 1 s, acked at 50 s: the 50 s round trip clamps to the
    5 s maximum epoch, whose ten-epoch horizon ends at 50 s exactly."""
    queue, spec = sides = pair(200, default_epoch=0.02)
    arrive(sides, 1, DATA, 0, 0.0, size=200)
    assert queue.tracker.active_per_pool(1.0) == {}
    both(queue, spec, "observe_reverse", Packet(1, ACK, ack_seq=1, size=40), 50.0)
    census_agrees(queue, spec, 50.0)
    assert scan_per_pool(spec.flows.values(), 50.0) == {-3: 1}


def test_an_ack_samples_the_newest_segment_it_covers_and_keeps_the_rest():
    """Flow 1 sends 66 segments; the match table held the first 64, so
    the ACK of all of them samples segment 63.  Flow 2's partial ACK
    leaves segment 1 for the next one to sample.  The census at each
    flow's new horizon tells the estimates apart."""
    queue, spec = sides = pair(200, default_epoch=0.5)
    for seq in range(66):
        arrive(sides, 1, DATA, seq, 0.001 * seq, size=200)
    arrive(sides, 2, DATA, 0, 0.0661, size=200)
    arrive(sides, 2, DATA, 1, 0.1, size=200)
    for flow, ack_seq, now in ((1, 65, 1.0), (2, 1, 1.0), (2, 2, 1.2)):
        both(*sides, "observe_reverse", Packet(flow, ACK, ack_seq=ack_seq, size=40), now)
    for flow in sorted(spec.flows.values(), key=lambda f: f.last_seen + 10 * f.epoch_length):
        edge = flow.last_seen + ACTIVITY_HORIZON_EPOCHS * flow.epoch_length
        census_agrees(queue, spec, edge)
        census_agrees(queue, spec, math.nextafter(edge, math.inf))
    assert [f.samples for f in spec.flows.values()] == [1, 2]
