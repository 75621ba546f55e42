"""Differential test: the fused per-event checks against the monitors.

``MonitorSuite.event`` restates every per-event predicate of the clock,
conservation, occupancy and TAQ monitors in one frame and calls their
``on_event`` only when the conjunction fails; ``TcpLegalityMonitor``'s
receive wrapper does the same with ``check_sender``.  A restatement can
drift, so this file keeps what both must agree with — the loop the
suite used to run, ``for monitor in event_monitors:
monitor.on_event(event, now)``, and a bare ``check_sender`` call — and
nowhere else does: the loop is the *reference*, the fused frame the
subject.

Two suites are armed on one built scenario, so both read the same
component state and keep equal ledgers, and both are detached from the
simulator: the machine steps real traffic through the links itself and
then hands each suite the same event boundary, the subject through
``suite.event`` and the reference through the loop.  Between
boundaries it breaks things, one or several at once (what decides who
speaks first in ``raise`` mode): each counter of the conservation
ledger +-1, ``queue.enqueued``, a queue over its capacity, a lossy
link's loss count, events in the past and same-time events out of
order, every clause of the TAQ ledgers, and the three injected faults
of ``repro.check.faults`` as the queue under test.  After every step
the two suites must hold identical violation documents — monitor,
message, time, context, order — and identical monitor state, in both
modes.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.build import build_simulation  # noqa: E402
from repro.check.monitors import (  # noqa: E402
    InvariantViolation,
    Monitor,
    TcpLegalityMonitor,
)
from repro.check.suite import attach_monitors  # noqa: E402
from repro.net.packet import ACK, Packet  # noqa: E402

from tests.check.conftest import make_spec  # noqa: E402
from tests.check.test_monitor_branches import (  # noqa: E402
    FakeFlow,
    FakeRto,
    FakeSender,
)

QUEUES = (
    {"kind": "droptail"},
    {"kind": "taq"},
    {"kind": "taq+ac", "p_thresh": 0.02, "t_wait": 1.0, "measure_interval": 0.5},
    {"kind": "droptail-blackhole", "every": 5},
    {"kind": "droptail-miscounting", "every": 5},
    {"kind": "droptail-overstuffed", "overshoot": 4},
)
MODES = st.sampled_from(["raise", "collect"])
DELTA = st.sampled_from([-1, 1])
LINK = st.integers(0, 1)  # a dumbbell: forward and reverse


# ----------------------------------------------------------------------
# The reference: the per-monitor loop, kept here only.
# ----------------------------------------------------------------------
def reference_event(suite, event, now):
    for monitor in suite.monitors:
        if type(monitor).on_event is not Monitor.on_event:
            monitor.on_event(event, now)


def outcome_of(call):
    """What a dispatch did besides recording: the exception it raised
    (a violation in ``raise`` mode; ``len()`` itself refuses a queue
    whose running count went negative)."""
    try:
        call()
    except (InvariantViolation, ValueError) as error:
        return repr(error)
    return None


# ----------------------------------------------------------------------
# What can be broken in the components both suites read.  Each skew
# returns its own undo: a shared component stays broken for one
# boundary only, or the next real packet would trip over it.
# ----------------------------------------------------------------------
def _bump(target, name, delta):
    before = getattr(target, name)
    setattr(target, name, before + delta)
    return lambda: setattr(target, name, before)


def _put(target, name, value):
    before = getattr(target, name)
    setattr(target, name, value)
    return lambda: setattr(target, name, before)


def skew_enqueued(built, link, delta, _):
    return _bump(built.links()[link].queue, "enqueued", delta)


def skew_capacity(built, link, delta, _):
    queue = built.links()[link].queue
    # ``__len__()``, not ``len()``: a skew_buffered in the same step may
    # have taken the running count to -1, which ``len()`` refuses here,
    # outside the dispatch the test is about.
    return _put(queue, "capacity_pkts", max(0, queue.__len__() + delta))


def skew_losses(built, link, delta, _):
    return _bump(built.links()[link], "cross_traffic_losses", delta)


def skew_taq_queue(built, _, delta, pick):
    name = ("dropped", "admission_refusals", "enqueued")[pick % 3]
    return _bump(built.queue, name, delta)


def skew_class_stats(built, _, delta, pick):
    stats = list(built.queue.scheduler.stats.values())[pick % 5]
    return _bump(stats, ("dropped", "served")[pick // 5 % 2], delta)


def skew_buffered(built, _, delta, __):
    return _bump(built.queue.scheduler, "buffered", delta)


def skew_syns(built, _, delta, __):
    scheduler = built.queue.scheduler
    value = -1 if delta < 0 else scheduler.new_flow_capacity + 1
    return _put(scheduler, "_buffered_syns", value)


def skew_container(built, _, delta, pick):
    """A packet in a class container the running count never saw."""
    scheduler = built.queue.scheduler
    container = (scheduler._recovery, *scheduler._fifos.values())[pick % 5]
    container.append(container[0] if container else (0.0, 0, None))
    return container.pop


def skew_pools(built, _, delta, pick):
    admission = built.queue.admission
    pool = 900 + pick
    undo = [_put(admission, "admitted", {**admission.admitted, pool: 0.0})]
    if delta > 0:  # in both tables; else admitted only, which is legal
        undo.append(_put(admission, "waiting", {**admission.waiting, pool: 0.0}))
    return lambda: [step() for step in undo]


def skew_loss_rate(built, _, delta, __):
    return _put(built.queue.admission, "_loss_rate", -0.25 if delta < 0 else 1.5)


ANY_QUEUE = (skew_enqueued, skew_capacity, skew_losses)
TAQ_ONLY = (skew_taq_queue, skew_class_stats, skew_buffered, skew_syns,
            skew_container)
AC_ONLY = (skew_pools, skew_loss_rate)
SKEW = st.tuples(st.integers(0, 99), LINK, DELTA, st.integers(0, 9))


class FusedMachine(RuleBasedStateMachine):
    @initialize(queue=st.sampled_from(QUEUES), mode=MODES,
                warmup=st.integers(0, 600))
    def build(self, queue, mode, warmup):
        self.built = built = build_simulation(
            make_spec(queue=queue, plugins=["repro.check.faults"]))
        for link in built.links():
            link.cross_traffic_losses = 0  # what repro.overlay's lossy links carry
        self.subject = attach_monitors(built, mode=mode)
        self.reference = attach_monitors(built, mode=mode)
        self.subject.detach()
        self.reference.detach()
        self.skews = ANY_QUEUE
        if self.subject._taq is not None:
            self.skews += TAQ_ONLY
            if built.queue.admission is not None:
                self.skews += AC_ONLY
        self.seq = 0
        self.last = (0.0, 0)
        self.steps(warmup)

    # ------------------------------------------------------------- rules
    @rule(count=st.integers(1, 200))
    def steps(self, count):
        """Real traffic: ledgers move through the taps and the seam."""
        for _ in range(count):
            if not self.built.sim.step():
                break

    @rule(link=LINK, delta=DELTA,
          counter=st.sampled_from(["arrived", "drops", "transmitted", "deliveries"]))
    def skew_ledger(self, link, counter, delta):
        """A monitor's own books, which nothing else reads: stays."""
        for suite in (self.subject, self.reference):
            books = suite._links[link][2]
            setattr(books, counter, getattr(books, counter) + delta)

    @rule(link=LINK)
    def forget_high_water(self, link):
        for suite in (self.subject, self.reference):
            suite._links[link][3].max_seen = 0

    @rule(skews=st.lists(SKEW, max_size=3),
          shape=st.sampled_from(["next", "next", "next", "past", "tie",
                                 "tie-reversed", "tie-repeated"]),
          dt=st.floats(min_value=0.0, max_value=0.05))
    def boundary(self, skews, shape, dt):
        now = self.built.sim.now
        last_time, last_seq = self.last
        self.seq += 1
        time, seq = {
            "next": (max(now, last_time) + dt, self.seq),
            "past": (now - dt - 1e-9, self.seq),
            "tie": (last_time, self.seq),
            "tie-reversed": (last_time, last_seq - 1),
            "tie-repeated": (last_time, last_seq),
        }[shape]
        event = SimpleNamespace(time=time, seq=seq)
        self.last = (time, seq)
        undo = [self.skews[which % len(self.skews)](self.built, link, delta, pick)
                for which, link, delta, pick in skews]
        try:
            said = outcome_of(lambda: self.subject.event(self.built.sim, event, now))
            expected = outcome_of(lambda: reference_event(self.reference, event, now))
        finally:
            for step in reversed(undo):
                step()
        assert said == expected

    # -------------------------------------------------------- invariants
    @invariant()
    def same_documents_and_state(self):
        assert (self.subject.violation_documents()
                == self.reference.violation_documents())
        for mine, theirs in zip(self.subject.monitors, self.reference.monitors):
            assert vars(mine).keys() == vars(theirs).keys()
            for name in ("_last_time", "_last_seq", "max_seen", "arrived",
                         "drops", "transmitted", "deliveries"):
                assert getattr(mine, name, None) == getattr(theirs, name, None)


FusedMachine.TestCase.settings = settings(stateful_step_count=40, deadline=None)
TestFusedDifferential = FusedMachine.TestCase


def test_negative_running_count_with_a_capacity_skew_in_one_step():
    """The falsifying example Hypothesis found at 45da55a: behind an
    empty TAQ queue ``skew_buffered`` takes the count to -1 and
    ``skew_capacity``, applied in the same step, read it with ``len()``
    in this file's own helper."""
    machine = FusedMachine()
    machine.build({"kind": "taq"}, "raise", 0)
    machine.same_documents_and_state()
    assert machine.skews[5] is skew_buffered and machine.skews[1] is skew_capacity
    machine.boundary(dt=0.0, shape="next",
                     skews=[(5, 0, -1, 0), (1, 0, -1, 0)])
    machine.same_documents_and_state()


#: (skew, delta) pairs that leave every predicate true.
LEGAL = {
    (skew_capacity, 1),     # room for one more packet
    (skew_losses, -1),      # fewer losses than packets on the wire
    (skew_pools, -1),       # admitted only
    (skew_loss_rate, 1),    # the EWMA may overshoot 1
}


def test_every_skew_fires_in_both():
    """The machine is not vacuous: each skew, alone, makes subject and
    reference record the same violation, non-empty unless LEGAL."""
    for queue, skews in ((QUEUES[0], ANY_QUEUE), (QUEUES[1], TAQ_ONLY),
                         (QUEUES[2], AC_ONLY)):
        for skew in skews:
            for delta in (-1, 1):
                machine = FusedMachine()
                machine.build(queue, "collect", 300)
                assert machine.subject.violations == []
                while not len(machine.built.queue):  # something to be over
                    machine.steps(1)
                if skew is skew_losses and delta > 0:
                    delta = 10**6  # more than can be on the wire
                index = machine.skews.index(skew)
                machine.boundary([(index, 0, delta, 3)], "next", 0.01)
                machine.same_documents_and_state()
                fired = bool(machine.subject.violations)
                assert fired != ((skew, delta) in LEGAL), (skew.__name__, delta)


# ----------------------------------------------------------------------
# TcpLegalityMonitor: the wrapper's restated clauses vs check_sender.
# ----------------------------------------------------------------------
SENDER_FIELDS = st.fixed_dictionaries({}, optional={
    "state": st.sampled_from(["closed", "syn_sent", "established", "done"]),
    "cwnd": st.sampled_from([0.25, 1.0, 2.5, float("nan")]),
    "ssthresh": st.sampled_from([0.5, 1.0, 64.0]),
    "snd_una": st.integers(0, 12),
    "snd_next": st.integers(0, 12),
    "high_water": st.integers(0, 12),
})
RTO_FIELDS = st.fixed_dictionaries({}, optional={
    "rto": st.sampled_from([0.05, 0.2, 1.0, 60.0, 61.0]),
    "backoff_exponent": st.sampled_from([0, 16, 17]),
})
MOVES = st.lists(
    st.tuples(SENDER_FIELDS, RTO_FIELDS, st.sampled_from(["ack", "check", "final"])),
    min_size=1, max_size=25)


@given(mode=MODES, moves=MOVES)
@settings(deadline=None)
def test_wrapped_receive_equals_receive_then_check_sender(mode, moves):
    subject, reference = TcpLegalityMonitor(mode), TcpLegalityMonitor(mode)
    wrapped, bare = FakeSender(rto=FakeRto()), FakeSender(rto=FakeRto())
    subject.attach_flow(FakeFlow(wrapped))
    sim = SimpleNamespace(now=0.0)
    for fields, rto_fields, move in moves:
        sim.now += 0.5
        for sender in (wrapped, bare):
            vars(sender).update(fields)
            vars(sender.rto).update(rto_fields)
        # Never past high_water: the wrapper's ACK-of-unsent-data check
        # comes before the sender runs and is not a restatement.
        ack = Packet(1, ACK, size=40)
        ack.ack_seq = min(wrapped.snd_una, wrapped.high_water)

        def on_subject():
            if move == "ack":
                wrapped.receive(ack, sim.now)
            elif move == "check":
                subject.check_sender(wrapped, sim.now)
            else:
                subject.finalize(sim)

        def on_reference():
            if move == "ack":
                bare.receive(ack, sim.now)
            reference.check_sender(bare, sim.now)

        assert outcome_of(on_subject) == outcome_of(on_reference)
        documents = [v.to_document() for v in subject.violations]
        assert documents == [v.to_document() for v in reference.violations]
