"""Differential fence: DropTail, RED, SFQ and FavorQueue against their executable
specs, :mod:`tests.queues.spec_baselines`.

A Hypothesis machine builds one shipped discipline and its spec alike (capacity 1-12;
SFQ with 1, 2, 4 or 16 buckets; RED with equal thresholds and weights 0 and 1 among
its draws, both sides on one seeded random sequence) and feeds both the same packets:
arrivals one at a time and in bursts, dequeues, clock advances across RED's idle
decay, SFQ re-salts.  After every step both must have made the same decisions —
accept or drop, the packet dropped or pushed out, the packet served, all by identity —
and the queue's occupancy and counters must add up to them."""

import random
from collections import Counter
from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.net.packet import DATA, Packet
from repro.queues.droptail import DropTailQueue
from repro.queues.favorqueue import FavorQueue
from repro.queues.red import REDQueue
from repro.queues.sfq import SFQQueue
from tests.queues.helpers import DropLog
from tests.queues.spec_baselines import SpecDropTail, SpecFavorQueue, SpecRED, SpecSFQ

FLOWS = st.integers(min_value=1, max_value=9)


def red_pair(capacity, data):
    """REDQueue behind a link, so idle periods decay its average, and its spec."""
    min_th = data.draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]), label="min_th")
    max_th = None if min_th is None else min_th + data.draw(
        st.sampled_from([0.0, 0.5, 1.0, 3.0, float(capacity)]), label="ramp")
    seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
    queue = REDQueue(capacity, random.Random(seed), min_th, max_th,
                     max_p=data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="max_p"),
                     weight=data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
                                      label="weight"))
    queue.attach(SimpleNamespace(
        capacity_bps=data.draw(st.sampled_from([100_000.0, 1_000_000.0]), label="bps")))
    tx_time = queue.mean_pkt_size * 8.0 / queue.link.capacity_bps
    return queue, SpecRED(capacity, random.Random(seed), queue.min_th, queue.max_th,
                          queue.max_p, queue.weight, tx_time)


def sfq_pair(capacity, data):
    buckets = data.draw(st.sampled_from([1, 2, 4, 16]), label="buckets")
    salt = data.draw(st.integers(min_value=0, max_value=3), label="salt")
    return SFQQueue(capacity, buckets, perturbation=salt), SpecSFQ(capacity, buckets, salt)


PAIRS = {
    "droptail": lambda capacity, data: (DropTailQueue(capacity), SpecDropTail(capacity)),
    "red": red_pair,
    "sfq": sfq_pair,
    "favorqueue": lambda capacity, data: (FavorQueue(capacity), SpecFavorQueue(capacity)),
}


class BaselineMachine(RuleBasedStateMachine):
    """All four pairs at once, each with a capacity of its own: every arrival is offered
    to every discipline, every dequeue and clock step applies to all of them."""

    @initialize(data=st.data())
    def build(self, data):
        self.pairs = {kind: pair(data.draw(st.integers(min_value=1, max_value=12),
                                           label=f"{kind} capacity"), data)
                      for kind, pair in PAIRS.items()}
        self.logs = {kind: DropLog(queue) for kind, (queue, _) in self.pairs.items()}
        self.dequeued = dict.fromkeys(PAIRS, 0)
        self.now, self.seq = 0.0, 0

    # ------------------------------------------------------------- rules
    @rule(flow=FLOWS)
    def arrive(self, flow):
        packet = Packet(flow, DATA, seq=self.seq, size=500)
        self.seq += 1
        for queue, spec in self.pairs.values():
            assert queue.enqueue(packet, self.now) is spec.enqueue(packet, self.now)
        self.agree()

    @rule(flows=st.lists(FLOWS, min_size=2, max_size=16))
    def burst(self, flows):
        """No service in between: the buffer fills, then every arrival is a decision."""
        for flow in flows:
            self.arrive(flow)

    @rule(count=st.integers(min_value=1, max_value=8),
          gap=st.sampled_from([0.0, 0.004, 0.04]))
    def dequeue(self, count, gap):
        """A link's services, *gap* apart: when RED's queue empties matters to its decay."""
        for _ in range(count):
            for kind, (queue, spec) in self.pairs.items():
                packet = queue.dequeue(self.now)
                assert packet is spec.dequeue(self.now)
                self.dequeued[kind] += packet is not None
            self.now += gap

    @rule(dt=st.one_of(st.sampled_from([0.0, 0.0005, 0.004, 0.04, 1.0]),
                       st.floats(min_value=0.0, max_value=0.1)))
    def advance(self, dt):
        """At 100 kb/s and 1 Mb/s a 500-byte packet takes 40 ms and 4 ms."""
        self.now += dt

    @rule(salt=st.integers(min_value=0, max_value=7))
    def perturb(self, salt):
        for side in self.pairs["sfq"]:
            side.perturb(salt)

    # -------------------------------------------------------- invariants
    @invariant()
    def agree(self):
        for kind, (queue, spec) in getattr(self, "pairs", {}).items():
            assert list(map(id, self.logs[kind].packets)) == list(map(id, spec.drops))
            assert len(queue) == len(spec)
            assert (queue.enqueued, queue.dropped) == (spec.enqueued, len(spec.drops))
            assert queue.enqueued == self.dequeued[kind] + len(queue)  # base.py's contract
        if hasattr(self, "pairs"):
            (red, spec_red), (favor, spec_favor) = self.pairs["red"], self.pairs["favorqueue"]
            assert (red.avg, red.count) == (spec_red.avg, spec_red.count)  # Fig. 2's variables
            assert red.early_drops + red.forced_drops == red.dropped
            # FavorQueue counts the flows with a packet queued, and no others.
            held = spec_favor.favored + spec_favor.normal
            assert favor._queued == dict(Counter(p.flow_id for p in held))


BaselineMachine.TestCase.settings = settings(stateful_step_count=30, deadline=None)
TestSpecBaselines = BaselineMachine.TestCase
