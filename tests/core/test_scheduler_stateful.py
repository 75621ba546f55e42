"""Stateful property tests of the TAQ scheduler's invariants.

Hypothesis drives random interleavings of enqueues (all classes,
arbitrary priorities) and dequeues, checking after every step:

- total occupancy never exceeds the configured capacity;
- accounting identity: enqueued == served + dropped-after-acceptance +
  still-buffered (per class and in total);
- every accepted packet is eventually either served or evicted, never
  duplicated or lost;
- the recovery queue always pops its highest-priority entry;
- the running counters equal a recount: ``len(scheduler)`` against the
  five container lengths, and the RECOVERY count of the service window
  against the window itself — after every path out of the buffer,
  recovery-over-recovery eviction included.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.scheduler import PacketClass, TAQScheduler
from repro.net.packet import DATA, SYN, Packet

CAPACITY = 8

CLASSES = st.sampled_from(list(PacketClass))
PRIORITIES = st.floats(min_value=0.0, max_value=100.0)


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # A window shorter than a run, so entries do fall out of it.
        self.scheduler = TAQScheduler(
            CAPACITY, new_flow_capacity=3, recovery_service_share=0.3,
            service_window=5,
        )
        self.next_id = 0
        self.buffered = {}          # id(packet) -> packet
        self.outcomes = {"accepted": 0, "served": 0, "evicted": 0, "rejected": 0}

    # ------------------------------------------------------------- rules
    @rule(klass=CLASSES, priority=PRIORITIES, syn=st.booleans())
    def enqueue(self, klass, priority, syn):
        kind = SYN if syn else DATA
        packet = Packet(self.next_id, kind, seq=self.next_id, size=500)
        self.next_id += 1
        accepted, evicted = self.scheduler.enqueue(
            packet, klass, priority=priority, connection_attempt=syn
        )
        if evicted is not None:
            assert id(evicted) in self.buffered, "evicted something not buffered"
            del self.buffered[id(evicted)]
            self.outcomes["evicted"] += 1
        if accepted:
            assert id(packet) not in self.buffered
            self.buffered[id(packet)] = packet
            self.outcomes["accepted"] += 1
        else:
            self.outcomes["rejected"] += 1
            assert evicted is None, "rejected arrival must not evict"

    @rule(priorities=st.lists(PRIORITIES, min_size=CAPACITY, max_size=2 * CAPACITY))
    def recovery_burst(self, priorities):
        """Fill the buffer with retransmissions, so that later ones can
        only get in by pushing an earlier, lower-priority one out."""
        for priority in priorities:
            self.enqueue(PacketClass.RECOVERY, priority, syn=False)

    @rule()
    def dequeue(self):
        packet = self.scheduler.dequeue()
        if packet is None:
            assert len(self.scheduler) == 0
            return
        assert id(packet) in self.buffered, "served a phantom packet"
        del self.buffered[id(packet)]
        self.outcomes["served"] += 1

    # -------------------------------------------------------- invariants
    @invariant()
    def occupancy_bounded(self):
        assert 0 <= len(self.scheduler) <= CAPACITY

    @invariant()
    def occupancy_matches_shadow(self):
        assert len(self.scheduler) == len(self.buffered)

    @invariant()
    def accounting_identity(self):
        assert (
            self.outcomes["accepted"]
            == self.outcomes["served"] + self.outcomes["evicted"] + len(self.buffered)
        )

    @invariant()
    def running_counts_match_a_recount(self):
        scheduler = self.scheduler
        assert len(scheduler) == len(scheduler._recovery) + sum(
            len(fifo) for fifo in scheduler._fifos.values())
        window = scheduler._recent_services
        assert scheduler._recent_count == len(window) <= scheduler.service_window
        assert scheduler._recent_recovery == sum(
            1 for klass in window if klass is PacketClass.RECOVERY)

    @invariant()
    def per_class_occupancy_sums(self):
        total = sum(self.scheduler.occupancy(c) for c in PacketClass)
        assert total == len(self.scheduler)


SchedulerMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
TestSchedulerStateful = SchedulerMachine.TestCase


def test_recovery_heap_pops_in_priority_order_randomized():
    import random

    rng = random.Random(9)
    scheduler = TAQScheduler(1000)
    priorities = [rng.uniform(0, 50) for _ in range(100)]
    for i, priority in enumerate(priorities):
        scheduler.enqueue(
            Packet(i, DATA, seq=i, size=500), PacketClass.RECOVERY, priority=priority
        )
    served_priorities = []
    while (packet := scheduler.dequeue()) is not None:
        served_priorities.append(priorities[packet.flow_id])
    assert served_priorities == sorted(priorities, reverse=True)


def test_recovery_over_recovery_eviction_keeps_the_running_count():
    scheduler = TAQScheduler(2)
    for i, priority in enumerate((1.0, 2.0)):
        scheduler.enqueue(Packet(i, DATA, seq=0, size=500), PacketClass.RECOVERY,
                          priority=priority)
    accepted, evicted = scheduler.enqueue(
        Packet(9, DATA, seq=0, size=500), PacketClass.RECOVERY, priority=3.0)
    assert accepted and evicted.flow_id == 0
    assert len(scheduler) == 2 == scheduler.occupancy(PacketClass.RECOVERY)
    served = [scheduler.dequeue().flow_id for _ in range(2)]
    assert served == [9, 1] and len(scheduler) == 0
    assert scheduler.dequeue() is None


def test_packet_class_order_and_values_are_what_telemetry_prints():
    # taq.occupancy.<value> gauges, taq_report rows and spans.jsonl all
    # print these strings, in this order (dict order of ``stats``).
    expected = ["recovery", "new_flow", "over_penalized",
                "below_fair_share", "above_fair_share"]
    assert [klass.value for klass in PacketClass] == expected
    assert [klass.value for klass in TAQScheduler(4).stats] == expected
    assert [klass.name for klass in PacketClass] == [v.upper() for v in expected]
    assert PacketClass("recovery") is PacketClass.RECOVERY
