"""Every violate() branch fires: white-box tests with minimal fakes.

The scenario-level tests prove clean runs stay silent and injected
faults are caught; these prove each individual conservation equation
and legality clause actually *can* fire, so a future refactor cannot
silently turn a monitor into a no-op.
"""

import pytest

from repro.check.monitors import (
    InvariantViolation,
    LinkConservationMonitor,
    TaqAccountingMonitor,
    TcpLegalityMonitor,
)
from repro.net.link import Link
from repro.net.packet import ACK, DATA, Packet
from repro.queues import DropTailQueue
from repro.sim.simulator import Simulator


class FakeQueue:
    obs = None

    def __init__(self, resident=0, enqueued=0):
        self._resident = resident
        self.enqueued = enqueued
        self.dropped = 0

    def __len__(self):
        return self._resident


class FakeLink:
    name = "fake"
    obs = None

    def __init__(self):
        self.queue = FakeQueue()
        self.arrival_taps = []

    def add_tap(self, fn):
        self.arrival_taps.append(fn)


class FakeEvents:
    def __init__(self, drained=True):
        self._drained = drained

    def peek_time(self):
        return None if self._drained else 1.0


class FakeSim:
    def __init__(self, now=9.0, drained=True):
        self.now = now
        self.events = FakeEvents(drained)


# ---------------------------------------------------------------------------
# LinkConservationMonitor branches


def test_conservation_catches_delivery_exceeding_transmit():
    monitor = LinkConservationMonitor(FakeLink())
    monitor.arrived = 2
    monitor.transmitted = 2
    monitor.deliveries = 3  # one packet materialized out of thin air
    monitor.link.queue.enqueued = 2
    with pytest.raises(InvariantViolation, match="exceeds transmitted"):
        monitor.on_event(None, 1.0)


def test_conservation_counts_lossy_link_losses_as_departures():
    link = FakeLink()
    link.cross_traffic_losses = 2
    monitor = LinkConservationMonitor(link)
    monitor.arrived = monitor.transmitted = 5
    monitor.deliveries = 3  # + 2 lost on the wire: balanced
    link.queue.enqueued = 5
    monitor.on_event(None, 1.0)
    assert monitor.violations == []


def test_conservation_full_drain_mismatch_is_caught():
    monitor = LinkConservationMonitor(FakeLink())
    monitor.arrived = monitor.transmitted = 4
    monitor.link.queue.enqueued = 4
    monitor.deliveries = 3  # event queue empty, yet a packet is missing
    with pytest.raises(InvariantViolation, match="after drain"):
        monitor.finalize(FakeSim(drained=True))


def test_conservation_no_drain_check_while_events_pending():
    monitor = LinkConservationMonitor(FakeLink(), mode="collect")
    monitor.arrived = monitor.transmitted = 4
    monitor.link.queue.enqueued = 4
    monitor.deliveries = 3  # still on the wire: legal while events remain
    monitor.finalize(FakeSim(drained=False))
    assert monitor.violations == []


def test_conservation_taps_feed_the_ledger():
    # A real link: the arrival tap and the seam's tx / delivered /
    # dropped events are what keep the books.
    sim = Simulator()
    link = Link(sim, 1_000_000, 0.01, DropTailQueue(1))
    monitor = LinkConservationMonitor(link)
    for seq in range(3):  # one on the wire, one buffered, one dropped
        link.send(Packet(1, DATA, seq=seq, size=500))
    sim.run()
    assert (monitor.arrived, monitor.transmitted,
            monitor.deliveries, monitor.drops) == (3, 2, 2, 1)


# ---------------------------------------------------------------------------
# TcpLegalityMonitor branches


class FakeRto:
    def __init__(self, rto=1.0, min_rto=0.2, max_rto=60.0,
                 backoff_exponent=0, max_backoff=16):
        self.rto = rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.backoff_exponent = backoff_exponent
        self.max_backoff = max_backoff


class FakeSender:
    def __init__(self, **overrides):
        self.flow_id = 1
        self.state = "established"
        self.cwnd = 2.0
        self.ssthresh = 4.0
        self.snd_una = 5
        self.snd_next = 7
        self.high_water = 9
        self.rto = FakeRto()
        for key, value in overrides.items():
            setattr(self, key, value)

    def receive(self, packet, now):
        self.last_received = packet


class FakeFlow:
    def __init__(self, sender):
        self.sender = sender


def test_ack_of_unsent_data_is_caught():
    monitor = TcpLegalityMonitor()
    sender = FakeSender()
    monitor.attach_flow(FakeFlow(sender))
    rogue = Packet(1, ACK, size=40)
    rogue.ack_seq = sender.high_water + 3
    with pytest.raises(InvariantViolation, match="unsent data"):
        sender.receive(rogue, 1.0)


def test_legal_ack_passes_through_to_the_sender():
    monitor = TcpLegalityMonitor()
    sender = FakeSender()
    monitor.attach_flow(FakeFlow(sender))
    fine = Packet(1, ACK, size=40)
    fine.ack_seq = sender.snd_una + 1
    sender.receive(fine, 1.0)
    assert sender.last_received is fine
    assert monitor.violations == []


def test_tfrc_like_sender_without_snd_una_is_skipped():
    monitor = TcpLegalityMonitor()

    class TfrcSender:
        flow_id = 2

        def receive(self, packet, now):
            pass

    sender = TfrcSender()
    monitor.attach_flow(FakeFlow(sender))
    # Not wrapped: no instance attribute shadows the class method.
    assert "receive" not in vars(sender)
    assert monitor._senders == []


def test_ssthresh_below_one_mss_is_caught():
    monitor = TcpLegalityMonitor()
    with pytest.raises(InvariantViolation, match="ssthresh"):
        monitor.check_sender(FakeSender(ssthresh=0.5), 1.0)


def test_snd_una_retreat_is_caught():
    monitor = TcpLegalityMonitor()
    sender = FakeSender(snd_una=6, snd_next=7)
    monitor.check_sender(sender, 1.0)
    sender.snd_una = 4  # cumulative ACK point went backwards
    with pytest.raises(InvariantViolation, match="retreated"):
        monitor.check_sender(sender, 2.0)


def test_rto_outside_clamp_is_caught():
    monitor = TcpLegalityMonitor()
    sender = FakeSender(rto=FakeRto(rto=120.0, max_rto=60.0))
    with pytest.raises(InvariantViolation, match="outside clamp"):
        monitor.check_sender(sender, 1.0)


def test_finalize_checks_every_attached_sender():
    monitor = TcpLegalityMonitor(mode="collect")
    bad = FakeSender(cwnd=0.1)
    monitor.attach_flow(FakeFlow(bad))
    monitor.finalize(FakeSim())
    assert [v.monitor for v in monitor.violations] == ["tcp"]


# ---------------------------------------------------------------------------
# TaqAccountingMonitor branches


class FakeClassStats:
    def __init__(self, enqueued=0, dropped=0, served=0):
        self.enqueued = enqueued
        self.dropped = dropped
        self.served = served


class FakeScheduler:
    def __init__(self, served=3, resident=2, dropped=1):
        self.stats = {"interactive": FakeClassStats(dropped=dropped, served=served)}
        self._resident = resident
        self._buffered_syns = 0
        self.new_flow_capacity = 4

    def occupancy(self, klass):
        return self._resident

    def __len__(self):
        return self._resident


class FakeAdmission:
    def __init__(self, admitted=(), waiting=(), loss_rate=0.1):
        self.admitted = dict.fromkeys(admitted)
        self.waiting = dict.fromkeys(waiting)
        self.loss_rate = loss_rate


class FakeRecord:
    def __init__(self, **overrides):
        self.flow_id = 9
        self.outstanding_drops = 0
        self.cumulative_drops = 0
        self.new_packets = 0
        self.retransmissions = 0
        self.drops = 0
        self.bytes_forwarded = 0
        self.epochs = 0
        self.pool_id = 4
        self.last_seen = 0.0
        self.epoch_length = 1.0  # active until t=10: FakeSim ends at 9
        for key, value in overrides.items():
            setattr(self, key, value)

    def census_key(self):
        return self.pool_id


class FakeTracker:
    """A table plus a census that, unless told otherwise, is right."""

    def __init__(self, records=(), miscount=0, per_pool=None):
        self.flows = {i: r for i, r in enumerate(records)}
        self._miscount = miscount
        self._per_pool = per_pool

    def _active(self, now):
        return [r for r in self.flows.values()
                if now - r.last_seen <= 10.0 * r.epoch_length]

    def active_flows(self, now):
        return max(1, len(self._active(now))) + self._miscount

    def active_per_pool(self, now):
        if self._per_pool is not None:
            return self._per_pool
        census = {}
        for record in self._active(now):
            census[record.census_key()] = census.get(record.census_key(), 0) + 1
        return census


class FakeTaqQueue:
    def __init__(self, **overrides):
        self.scheduler = FakeScheduler()
        self.admission = None
        self.tracker = FakeTracker()
        self.dropped = 2  # 1 class drop + 1 refusal
        self.enqueued = 5  # 3 served + 2 resident
        self.admission_refusals = 1
        for key, value in overrides.items():
            setattr(self, key, value)


def balanced_monitor(**overrides):
    return TaqAccountingMonitor(FakeTaqQueue(**overrides))


def test_balanced_fake_ledgers_are_silent():
    monitor = balanced_monitor()
    monitor.on_event(None, 1.0)
    assert monitor.violations == []


def test_occupancy_split_mismatch_is_caught():
    monitor = balanced_monitor()
    monitor.queue.scheduler.occupancy = lambda klass: 99
    with pytest.raises(InvariantViolation, match="occupancy split"):
        monitor.on_event(None, 1.0)


def test_buffered_syns_out_of_bounds_is_caught():
    monitor = balanced_monitor()
    monitor.queue.scheduler._buffered_syns = 5  # capacity is 4
    with pytest.raises(InvariantViolation, match="SYN count"):
        monitor.on_event(None, 1.0)


def test_pool_in_both_admitted_and_waiting_is_caught():
    monitor = balanced_monitor(
        admission=FakeAdmission(admitted=(7,), waiting=(7, 8))
    )
    with pytest.raises(InvariantViolation, match="both admitted and waiting"):
        monitor.on_event(None, 1.0)


def test_negative_loss_rate_is_caught():
    monitor = balanced_monitor(admission=FakeAdmission(loss_rate=-0.01))
    with pytest.raises(InvariantViolation, match="negative"):
        monitor.on_event(None, 1.0)


def test_overshooting_loss_rate_is_legal():
    monitor = balanced_monitor(admission=FakeAdmission(loss_rate=1.4))
    monitor.on_event(None, 1.0)
    assert monitor.violations == []


def test_tracker_counter_illegality_is_caught_at_finalize():
    monitor = balanced_monitor(
        tracker=FakeTracker([FakeRecord(outstanding_drops=3, cumulative_drops=1)])
    )
    with pytest.raises(InvariantViolation, match="tracker counters"):
        monitor.finalize(FakeSim())


def test_legal_tracker_records_pass_finalize():
    monitor = balanced_monitor(
        tracker=FakeTracker([FakeRecord(outstanding_drops=1, cumulative_drops=2,
                                        new_packets=5, drops=2)])
    )
    monitor.finalize(FakeSim())
    assert monitor.violations == []


def test_census_count_drift_is_caught_at_finalize():
    monitor = balanced_monitor(
        tracker=FakeTracker([FakeRecord(), FakeRecord()], miscount=1)
    )
    with pytest.raises(InvariantViolation, match="activity census drifted"):
        monitor.finalize(FakeSim())


def test_census_per_pool_drift_is_caught_at_finalize():
    monitor = balanced_monitor(
        tracker=FakeTracker([FakeRecord(), FakeRecord(pool_id=5)],
                            per_pool={4: 2})
    )
    with pytest.raises(InvariantViolation, match="activity census drifted"):
        monitor.finalize(FakeSim())


def test_census_ignores_flows_past_their_horizon():
    # Seen at t=0 with a 0.5 s epoch: expired at t=5, long before t=9.
    monitor = balanced_monitor(
        tracker=FakeTracker([FakeRecord(), FakeRecord(epoch_length=0.5)])
    )
    monitor.finalize(FakeSim())
    assert monitor.violations == []
