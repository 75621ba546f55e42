"""Differential property tests: the event store vs a reference heap.

The sorted list in :mod:`repro.sim.events` cancels physically (a bisect
and a delete) and pops from the front; a ``heapq`` with lazy tombstones
shares none of that.  These tests drive both through identical random
schedule/cancel/pop interleavings (including same-timestamp FIFO ties)
and require, after every operation, the same live count and the same
earliest time, bit-identical ``(time, seq)`` pop sequences, and a
``discards`` counter equal to the cancels accepted.

Complements ``tests/sim/test_properties.py``: those tests check the
queue against the *specification* (sorted order, FIFO ties); these
check it against an independent *implementation*, so a bug must appear
in two unrelated structures at once to slip through.

``Simulator.schedule`` / ``schedule_at`` repeat ``EventQueue.push``'s
body and ``Simulator.run`` pops the sorted list itself, so the last two
tests put the same reference behind the simulator's own entry points;
the last one adds ``Simulator.rearm``, which the reference spells as
what it must equal: a cancel (when the handle is pending) and a push.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator


class ReferenceHeap:
    """The old event store: a binary heap with lazy tombstones.

    Deliberately minimal — its correctness is obvious by inspection,
    which is the whole point of a differential oracle.
    """

    def __init__(self):
        self._heap = []
        self._cancelled = set()
        self._next_seq = 0

    def push(self, time):
        key = (time, self._next_seq)
        self._next_seq += 1
        heapq.heappush(self._heap, key)
        return key

    def cancel(self, key):
        self._cancelled.add(key)

    def _reap(self):
        # Tombstones leave both containers together, so _cancelled is
        # always exactly the cancelled keys still in the heap.
        while self._heap and self._heap[0] in self._cancelled:
            self._cancelled.remove(heapq.heappop(self._heap))

    def pop(self):
        self._reap()
        return heapq.heappop(self._heap) if self._heap else None

    def peek_time(self):
        self._reap()
        return self._heap[0][0] if self._heap else None

    def __len__(self):
        return len(self._heap) - len(self._cancelled)


def _noop():
    pass


# One operation: push at a time drawn from a tie-heavy mix, cancel a
# previously pushed event (by index), or pop.  Times mix a few discrete
# values (forcing FIFO ties) with arbitrary non-negative floats
# (wildly different magnitudes, so inserts land all over the list).
_times = st.one_of(
    st.integers(min_value=0, max_value=3).map(float),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


def _pop(queue):
    """Pop as the run loop does — it is the caller that marks ``fired``,
    which is what makes a later ``cancel`` of the handle a no-op."""
    event = queue.pop()
    if event is None:
        return None
    event.fired = True
    return (event.time, event.seq)


def _assert_same_state(queue, reference):
    assert len(queue) == len(reference)
    assert bool(queue) == (len(reference) > 0)
    assert queue.peek_time() == reference.peek_time()


def _drain(queue, reference):
    while True:
        expected = reference.pop()
        assert _pop(queue) == expected
        _assert_same_state(queue, reference)
        if expected is None:
            break


def _run_differential(script, extra_pushes=0):
    """Apply *script* to both structures, then drain both, comparing
    live count, earliest time and popped ``(time, seq)`` at every step."""
    queue = EventQueue()
    reference = ReferenceHeap()
    handles = []  # (queue Event, reference key), in push order
    cancels = 0

    def push(time):
        handles.append((queue.push(time, _noop), reference.push(time)))
        _assert_same_state(queue, reference)

    for op, value in script:
        if op == "push":
            push(value)
        elif op == "cancel":
            if not handles:
                continue
            event, key = handles[value % len(handles)]
            if event.pending:
                event.cancel()
                reference.cancel(key)
                cancels += 1
        else:  # pop
            assert _pop(queue) == reference.pop()
        _assert_same_state(queue, reference)
    for i in range(extra_pushes):
        # A deterministic spread on top of whatever the script left
        # behind: well past the population any shipped scenario holds.
        push(0.001 * i)
    _drain(queue, reference)
    assert len(queue) == 0
    assert queue.discards == cancels


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_differential_pop_sequence_matches_reference(script):
    _run_differential(script)


@settings(max_examples=25, deadline=None)
@given(_ops)
def test_differential_at_large_population(script):
    # 700 extra pushes: every insert, cancel and front delete of the
    # drain moves a list longer than anything a shipped run holds.
    _run_differential(script, extra_pushes=700)


def test_differential_with_infinite_times():
    # inf orders after every finite time by plain tuple comparison; such
    # events must pop last, in FIFO order, from a large population with
    # cancellations scattered through it.
    queue = EventQueue()
    reference = ReferenceHeap()
    pairs = []
    for i in range(600):
        time = float("inf") if i % 200 == 7 else 0.01 * i
        pairs.append((queue.push(time, _noop), reference.push(time)))
    for event, key in pairs[::5]:
        event.cancel()
        reference.cancel(key)
        _assert_same_state(queue, reference)
    _drain(queue, reference)
    assert queue.discards == len(pairs[::5])


_delays = st.one_of(
    st.integers(min_value=0, max_value=3).map(float),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays),
        st.tuples(st.just("schedule_at"), _delays),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("run"), _delays),
    ),
    min_size=1,
    max_size=80,
))
def test_simulator_scheduling_and_run_loop_match_reference(script):
    # Every fired event must be the reference's head at that moment, and
    # schedules one child (alternating the two methods), so pushes also
    # land mid-run, between pops of the same timestamp.
    sim = Simulator()
    reference = ReferenceHeap()
    handles = []  # (Event, reference key), in push order
    cancels = 0

    def schedule(delay, at):
        index = len(handles)
        if at:
            time = sim.now + delay
            event = sim.schedule_at(time, fire, (index,))
        else:
            event = sim.schedule(delay, fire, (index,))
            time = sim.now + delay
        handles.append((event, reference.push(time)))

    def fire(index):
        event, key = handles[index]
        assert reference.pop() == key == (sim.now, event.seq)
        if len(handles) < 300:
            schedule(float(index % 3), at=index % 2 == 0)

    for op, value in script:
        if op in ("schedule", "schedule_at"):
            schedule(value, at=op == "schedule_at")
        elif op == "cancel":
            if handles:
                event, key = handles[value % len(handles)]
                if event.pending:
                    event.cancel()
                    reference.cancel(key)
                    cancels += 1
        else:
            until = sim.now + value
            sim.run(until=until)
            assert sim.now == until
            head = reference.peek_time()
            assert head is None or head > until
        assert len(sim.events) == len(reference)
        assert sim.events.peek_time() == reference.peek_time()
    assert sim.events.discards == cancels


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("rearm"),
                  st.tuples(st.integers(min_value=0, max_value=1000), _delays)),
        st.tuples(st.just("run"), _delays),
    ),
    min_size=1,
    max_size=80,
))
def test_simulator_rearm_pops_and_discards_as_cancel_and_schedule(script):
    # rearm on a pending handle, on a cancelled one and on a fired one
    # (the script's rearms hit all three; every third firing also
    # re-arms itself from inside its own callback), and cancel after a
    # rearm: the reference cancels the handle's live key, if any, and
    # pushes a new one, and every pop and the discard count must agree.
    sim = Simulator()
    reference = ReferenceHeap()
    handles = []  # [Event, its live or last reference key], in schedule order
    state = {"cancels": 0, "fired": 0, "from_callback": 0}

    def rearm(index, delay):
        handle = handles[index]
        event, key = handle
        if event.pending:
            reference.cancel(key)
            state["cancels"] += 1
        sim.rearm(event, delay)
        handle[1] = reference.push(sim.now + delay)

    def fire(index):
        event, key = handles[index]
        assert reference.pop() == key == (sim.now, event.seq)
        state["fired"] += 1
        if state["fired"] < 300:
            if index % 3 == 0:
                state["from_callback"] += 1
                rearm(index, float(index % 2))
            else:
                handles.append([sim.schedule(float(index % 3), fire, (len(handles),)),
                                reference.push(sim.now + float(index % 3))])

    for op, value in script:
        if op == "schedule":
            handles.append([sim.schedule(value, fire, (len(handles),)),
                            reference.push(sim.now + value)])
        elif op == "cancel":
            if handles:
                event, key = handles[value % len(handles)]
                if event.pending:
                    event.cancel()
                    reference.cancel(key)
                    state["cancels"] += 1
        elif op == "rearm":
            index, delay = value
            if handles:
                rearm(index % len(handles), delay)
        else:
            until = sim.now + value
            sim.run(until=until)
            head = reference.peek_time()
            assert head is None or head > until
        assert len(sim.events) == len(reference)
        assert sim.events.peek_time() == reference.peek_time()
    sim.run()
    assert reference.pop() is None
    assert sim.events.discards == state["cancels"]


def test_rearm_on_each_kind_of_handle():
    # The three handle states by hand, beside the cancel + schedule
    # they stand for, and a cancel after each rearm.
    sim = Simulator()
    fired = []
    pending = sim.schedule(5.0, fired.append, ("pending",))
    cancelled = sim.schedule(1.0, fired.append, ("cancelled",))
    cancelled.cancel()
    assert sim.events.discards == 1

    def again():
        fired.append("fired")
        if fired.count("fired") == 1:
            sim.rearm(timer, 2.0)  # from inside its own callback

    timer = sim.schedule(1.0, again)
    sim.rearm(pending, 3.0)  # pending: one more discard
    sim.rearm(cancelled, 0.5)  # cancelled: none
    assert sim.events.discards == 2
    assert (pending.seq, cancelled.seq) == (3, 4) and pending.pending and cancelled.pending
    sim.run()
    assert fired == ["cancelled", "fired", "pending", "fired"]
    assert sim.now == 3.0 and sim.events.discards == 2
    assert timer.fired and not timer.pending

    sim.rearm(timer, 1.0)  # fired: none
    timer.cancel()
    assert sim.events.discards == 3 and len(sim.events) == 0 and not timer.pending
    sim.rearm(timer, 1.0)  # cancelled after a rearm: rearmed again
    assert timer.pending and sim.events.peek_time() == 4.0
