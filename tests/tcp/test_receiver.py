"""Unit tests for the TCP receiver."""

from repro.net.packet import ACK, DATA, FIN, SYN, SYNACK, Packet
from repro.tcp.receiver import TCPReceiver


def make_receiver(**kwargs):
    acks = []
    receiver = TCPReceiver(1, send=acks.append, **kwargs)
    return receiver, acks


def data(seq):
    return Packet(1, DATA, seq=seq, size=500)


def test_syn_triggers_synack():
    receiver, acks = make_receiver()
    receiver.receive(Packet(1, SYN), 0.0)
    assert acks[0].kind == SYNACK


def test_in_order_data_acked_cumulatively():
    receiver, acks = make_receiver()
    for seq in range(3):
        receiver.receive(data(seq), float(seq))
    assert [a.ack_seq for a in acks] == [1, 2, 3]
    assert receiver.rcv_next == 3


def test_out_of_order_generates_dupacks():
    receiver, acks = make_receiver()
    receiver.receive(data(0), 0.0)
    receiver.receive(data(2), 1.0)  # gap at 1
    receiver.receive(data(3), 2.0)
    assert [a.ack_seq for a in acks] == [1, 1, 1]


def test_gap_fill_acks_entire_buffered_run():
    receiver, acks = make_receiver()
    receiver.receive(data(0), 0.0)
    receiver.receive(data(2), 1.0)
    receiver.receive(data(1), 2.0)
    assert acks[-1].ack_seq == 3
    assert receiver.out_of_order == set()


def test_duplicate_data_counted_and_reacked():
    receiver, acks = make_receiver()
    receiver.receive(data(0), 0.0)
    receiver.receive(data(0), 1.0)
    assert receiver.duplicate_segments == 1
    assert acks[-1].ack_seq == 1


def test_delivery_callback_reports_progress():
    deliveries = []
    receiver = TCPReceiver(1, send=lambda p: None, delivery_log=deliveries)
    receiver.receive(data(0), 0.5)
    receiver.receive(data(2), 1.0)
    receiver.receive(data(1), 1.5)
    assert deliveries == [(0.5, 1), (1.5, 3)]


def test_sack_blocks_describe_out_of_order_runs():
    receiver, acks = make_receiver(sack=True)
    receiver.receive(data(0), 0.0)
    receiver.receive(data(2), 1.0)
    receiver.receive(data(3), 2.0)
    receiver.receive(data(5), 3.0)
    assert acks[-1].sack == [(2, 4), (5, 6)]


def test_sack_limited_to_three_blocks():
    receiver, acks = make_receiver(sack=True)
    for seq in (2, 4, 6, 8, 10):
        receiver.receive(data(seq), 0.0)
    assert len(acks[-1].sack) == 3


def test_no_sack_when_disabled():
    receiver, acks = make_receiver(sack=False)
    receiver.receive(data(2), 0.0)
    assert acks[-1].sack is None


def test_fin_sets_flag_and_acks():
    receiver, acks = make_receiver()
    receiver.receive(Packet(1, FIN), 0.0)
    assert receiver.fin_received
    assert acks[-1].kind == ACK


def test_delayed_ack_mode_acks_every_other_segment():
    receiver, acks = make_receiver(delayed_ack=True)
    receiver.receive(data(0), 0.0)  # held
    assert len(acks) == 0
    receiver.receive(data(1), 0.1)  # flushes
    assert len(acks) == 1
    assert acks[0].ack_seq == 2


def test_delayed_ack_timer_flushes_lone_segment():
    from repro.sim.simulator import Simulator
    from repro.tcp.receiver import TCPReceiver

    sim = Simulator()
    acks = []
    receiver = TCPReceiver(1, send=acks.append, delayed_ack=True, sim=sim)
    sim.schedule(0.0, lambda: receiver.receive(data(0), 0.0))
    sim.run(until=0.1)
    assert acks == []  # still held
    sim.run(until=0.3)  # RFC 1122 timer (200 ms) fires
    assert len(acks) == 1
    assert acks[0].ack_seq == 1


def test_delayed_ack_timer_cancelled_by_second_segment():
    from repro.sim.simulator import Simulator
    from repro.tcp.receiver import TCPReceiver

    sim = Simulator()
    acks = []
    receiver = TCPReceiver(1, send=acks.append, delayed_ack=True, sim=sim)
    sim.schedule(0.0, lambda: receiver.receive(data(0), 0.0))
    sim.schedule(0.05, lambda: receiver.receive(data(1), 0.05))
    sim.run(until=1.0)
    assert len(acks) == 1  # flushed by the pair, not doubled by the timer
