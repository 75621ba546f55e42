"""Per-flow rollups used by experiment reports."""

from __future__ import annotations

from typing import Iterable

from repro.tcp.flow import TcpFlow


def goodput_efficiency(flows: Iterable[TcpFlow]) -> float:
    """Fraction of data deliveries that were useful (non-duplicate).

    In small packet regimes retransmission storms can waste real
    capacity on duplicates the receiver discards; this is the metric
    the SPR-TCP trade-off is judged by.  1.0 = every delivered segment
    advanced the transfer.
    """
    total = 0
    duplicates = 0
    for flow in flows:
        total += flow.receiver.segments_received
        duplicates += flow.receiver.duplicate_segments
    if total == 0:
        return 1.0
    return 1.0 - duplicates / total
