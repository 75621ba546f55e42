"""Nodes: anything that can receive a packet.

A link hands each packet it delivers to ``packet.dst``: any object with
``receive(packet, now)``.  A TCP flow addresses its packets to the
other half of the connection directly (:mod:`repro.tcp.flow`).  A
:class:`Host` stands in for one side of the dumbbell for transports
that address a side instead (TFRC), demultiplexing to per-flow
endpoints: DATA/SYN/FIN packets go to the flow's receiver half,
ACK/SYNACK packets to its sender half.
"""

from __future__ import annotations

from typing import Dict, Protocol

from repro.net.packet import ACK, SYNACK, Packet


class Endpoint(Protocol):
    """Anything that consumes packets addressed to a flow."""

    def receive(self, packet: Packet, now: float) -> None:  # pragma: no cover
        ...


class Node:
    """Base node: receives packets."""

    def __init__(self, name: str) -> None:
        self.name = name

    def receive(self, packet: Packet, now: float) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """A host holding per-flow endpoints.

    A single Host object stands in for one *side* of the dumbbell: all
    sender halves live on the sender-side host, all receiver halves on
    the receiver-side host.  Demux is by ``(flow_id, direction)`` where
    direction is derived from the packet kind.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._senders: Dict[int, Endpoint] = {}
        self._receivers: Dict[int, Endpoint] = {}

    def bind_sender(self, flow_id: int, endpoint: Endpoint) -> None:
        """Register the endpoint that consumes ACKs for *flow_id*."""
        self._senders[flow_id] = endpoint

    def bind_receiver(self, flow_id: int, endpoint: Endpoint) -> None:
        """Register the endpoint that consumes DATA/SYN/FIN for *flow_id*."""
        self._receivers[flow_id] = endpoint

    def receive(self, packet: Packet, now: float) -> None:
        table = self._senders if packet.kind in (ACK, SYNACK) else self._receivers
        try:
            endpoint = table[packet.flow_id]
        except KeyError:
            return  # no such flow: dropped
        endpoint.receive(packet, now)
