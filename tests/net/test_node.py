"""Unit tests for Host demultiplexing."""

import pytest

from repro.net.node import Host, Node
from repro.net.packet import ACK, DATA, FIN, SYN, SYNACK, Packet


class Endpoint:
    def __init__(self):
        self.received = []

    def receive(self, packet, now):
        self.received.append((packet, now))


def test_base_node_receive_abstract():
    with pytest.raises(NotImplementedError):
        Node("n").receive(Packet(1, DATA, seq=0), 0.0)


def test_data_routes_to_receiver_half():
    host = Host("h")
    sender, receiver = Endpoint(), Endpoint()
    host.bind_sender(1, sender)
    host.bind_receiver(1, receiver)
    for kind in (DATA, SYN, FIN):
        host.receive(Packet(1, kind, seq=0), 1.0)
    assert len(receiver.received) == 3
    assert sender.received == []


def test_acks_route_to_sender_half():
    host = Host("h")
    sender, receiver = Endpoint(), Endpoint()
    host.bind_sender(1, sender)
    host.bind_receiver(1, receiver)
    for kind in (ACK, SYNACK):
        host.receive(Packet(1, kind, ack_seq=1), 1.0)
    assert len(sender.received) == 2
    assert receiver.received == []


def test_unknown_flow_dropped_silently():
    host = Host("h")
    host.receive(Packet(99, DATA, seq=0), 0.0)  # no exception


def test_flows_are_isolated():
    host = Host("h")
    a, b = Endpoint(), Endpoint()
    host.bind_receiver(1, a)
    host.bind_receiver(2, b)
    host.receive(Packet(2, DATA, seq=0), 0.0)
    assert a.received == []
    assert len(b.received) == 1

