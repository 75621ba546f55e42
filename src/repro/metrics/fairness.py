"""Jain's fairness index and time-sliced goodput collection.

Figs 2, 8 and 11 plot the Jain Fairness Index (JFI) of per-flow goodput
measured over fixed-length time slices (20 s for "short-term", the whole
run for "long-term").  The JFI of allocations ``x_1..x_n`` is

    ``(sum x_i)^2 / (n * sum x_i^2)``,

1 for exactly equal shares and ``1/n`` when one flow hogs everything
[Jain, Chiu, Hawe 1984].  Crucially, silent flows count: a flow that
received nothing during a slice contributes ``x_i = 0``, which is what
drags short-term fairness down when DropTail shuts 30% of flows out.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence

from repro.net.packet import DATA, Packet

#: The busiest share of the population whose bytes :meth:`capture_share`
#: counts (§2.3: "roughly 40% of the flows consume more than 80% of the
#: link bandwidth").
TOP_CONSUMERS = 0.4


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index of *allocations* (zeros included).

    Returns 1.0 for an empty or all-zero population (nothing is being
    shared, so nothing is unfair).
    """
    n = len(allocations)
    if n == 0:
        return 1.0
    total = float(sum(allocations))
    if total <= 0.0:
        return 1.0
    # sum(float(x) * float(x) for x in allocations), with no call per
    # allocation: the same products, summed in the same order.
    values = list(map(float, allocations))
    squares = sum(map(mul, values, values))
    if squares <= 0.0:  # denormal underflow guard
        return 1.0
    return (total * total) / (n * squares)


class SliceGoodputCollector:
    """Accumulates per-slice, per-flow delivered bytes at the bottleneck.

    Register :meth:`observe` as a delivery tap on the bottleneck link
    (``link.add_delivery_tap(collector.observe)``); it ignores
    everything but DATA packets.

    Parameters
    ----------
    slice_seconds:
        Slice width (the paper uses 20 s; shorter widths make unfairness
        look worse, longer better — §2.3).
    """

    def __init__(self, slice_seconds: float = 20.0) -> None:
        if slice_seconds <= 0:
            raise ValueError("slice_seconds must be positive")
        self.slice_seconds = slice_seconds
        self._slices: Dict[int, Dict[int, int]] = {}
        self.flow_ids: set = set()
        # The slice the last delivery fell in, and its per-flow table.
        self._index: Optional[int] = None
        self._current: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def observe(self, packet: Packet, now: float) -> None:
        """Delivery-tap callback."""
        if packet.kind != DATA:
            return
        index = int(now / self.slice_seconds)
        if index != self._index:
            self._index = index
            self._current = self._slices.setdefault(index, {})
        per_flow = self._current
        flow_id = packet.flow_id
        if flow_id in per_flow:
            per_flow[flow_id] += packet.size
        else:
            # A flow's first delivery in this slice; flow_ids is the union
            # of every slice's keys.
            per_flow[flow_id] = packet.size
            self.flow_ids.add(flow_id)

    # ------------------------------------------------------------------
    def slice_indices(self) -> List[int]:
        return sorted(self._slices)

    def slice_goodputs(
        self, index: int, flow_ids: Optional[Iterable[int]] = None
    ) -> List[float]:
        """Per-flow goodput (bps) during slice *index*.

        *flow_ids* names the population (so silent flows appear as 0);
        defaults to every flow ever seen.
        """
        population = list(flow_ids) if flow_ids is not None else sorted(self.flow_ids)
        per_flow = self._slices.get(index, {})
        seconds = self.slice_seconds
        # The lookups run inside map: no call per flow.
        return [size * 8.0 / seconds for size in map(per_flow.get, population, repeat(0))]

    def slice_jain(
        self, index: int, flow_ids: Optional[Iterable[int]] = None
    ) -> float:
        return jain_index(self.slice_goodputs(index, flow_ids))

    def mean_short_term_jain(
        self,
        flow_ids: Optional[Iterable[int]] = None,
        skip_warmup_slices: int = 1,
        skip_tail_slices: int = 1,
    ) -> float:
        """Average JFI across complete slices (warmup/tail trimmed)."""
        indices = self.slice_indices()
        if skip_tail_slices:
            indices = indices[:-skip_tail_slices] if len(indices) > skip_tail_slices else []
        indices = [i for i in indices if i >= skip_warmup_slices]
        if not indices:
            return 1.0
        population = list(flow_ids) if flow_ids is not None else sorted(self.flow_ids)
        return sum(self.slice_jain(i, population) for i in indices) / len(indices)

    def long_term_jain(self, flow_ids: Optional[Iterable[int]] = None) -> float:
        """JFI of total delivered bytes over the entire run."""
        population = list(flow_ids) if flow_ids is not None else sorted(self.flow_ids)
        totals = {f: 0 for f in population}
        for per_flow in self._slices.values():
            for flow, size in per_flow.items():
                if flow in totals:
                    totals[flow] += size
        return jain_index([totals[f] for f in population])

    def shut_out_fraction(
        self, index: int, flow_ids: Optional[Iterable[int]] = None
    ) -> float:
        """Fraction of the population with zero goodput in slice *index*
        (§2.3 reports ~30% for DropTail)."""
        goodputs = self.slice_goodputs(index, flow_ids)
        if not goodputs:
            return 0.0
        return sum(1 for g in goodputs if g == 0.0) / len(goodputs)

    def capture_share(
        self, index: int, flow_ids: Optional[Iterable[int]] = None
    ) -> float:
        """Share of slice *index*'s bytes that went to the busiest
        :data:`TOP_CONSUMERS` of the population, at least one flow (§2.3
        reports over 80% for DropTail); 0.0 when the slice carried nothing."""
        goodputs = sorted(self.slice_goodputs(index, flow_ids), reverse=True)
        total = sum(goodputs)
        if total == 0.0:
            return 0.0
        top = max(1, int(len(goodputs) * TOP_CONSUMERS))
        return sum(goodputs[:top]) / total
