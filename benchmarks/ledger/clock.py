"""Drift-corrected timing: the reference kernel, samples and quantiles.

The host clock drifts by tens of percent over minutes, so every timed
sample is bracketed by a fixed pure-Python reference kernel owned by the
benchmark and reported as ``raw * REF_NOMINAL_S / min(ref_before,
ref_after)``.  Every timing metric is the median of its corrected
samples; q25, p90 and the raw figures ride along for information only.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from collections import deque
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: What one reference kernel takes on the host this ledger was sized on.
#: Only a scale factor: it cancels in every comparison of two runs.
REF_NOMINAL_S = 0.025

_REF_EVENTS = 12_600


# The reference kernel is a small frozen discrete-event simulation: a
# heap of events, packets allocated per send, per-flow dicts, a FIFO and
# float arithmetic behind method calls.  A tight arithmetic loop was
# tried first; it lives in the first-level cache and so speeds up and
# slows down with the host differently from an interpreter-heavy program
# (it tracked a unit with a residual of 9%, this one with 7.5%).  It uses
# no ``repro`` code, so a change to the program cannot move it.
class _Packet:
    __slots__ = ("flow", "seq", "size", "sent")

    def __init__(self, flow: int, seq: int, size: int, sent: float) -> None:
        self.flow = flow
        self.seq = seq
        self.size = size
        self.sent = sent


class _Fifo:
    def __init__(self, capacity: int) -> None:
        self.queue: deque = deque()
        self.capacity = capacity
        self.arrived = self.dropped = self.bytes = 0

    def enqueue(self, packet: _Packet) -> bool:
        self.arrived += 1
        if len(self.queue) >= self.capacity:
            self.dropped += 1
            return False
        self.queue.append(packet)
        return True

    def dequeue(self) -> Any:
        if not self.queue:
            return None
        packet = self.queue.popleft()
        self.bytes += packet.size
        return packet


class _Flow:
    def __init__(self, sim: "_MiniSim", flow_id: int) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.cwnd = 1.0
        self.next_seq = 0
        self.inflight: Dict[int, _Packet] = {}
        self.timer: Any = None
        self.srtt = 0.2

    def send(self) -> None:
        sim = self.sim
        while len(self.inflight) < int(self.cwnd):
            packet = _Packet(self.flow_id, self.next_seq, 200, sim.now)
            self.inflight[self.next_seq] = packet
            self.next_seq += 1
            sim.offer(packet)
        if self.timer is None and self.inflight:
            self.timer = sim.at(sim.now + max(1.0, 2 * self.srtt), self.on_timeout, ())

    def on_ack(self, seq: int) -> None:
        packet = self.inflight.pop(seq, None)
        if packet is None:
            return
        self.srtt = 0.875 * self.srtt + 0.125 * (self.sim.now - packet.sent)
        self.cwnd += 1.0 / self.cwnd if self.cwnd >= 4 else 1.0
        if self.timer is not None:
            self.timer[3] = True
            self.timer = None
        self.send()

    def on_timeout(self) -> None:
        self.timer = None
        self.cwnd = 1.0
        self.inflight.clear()
        self.send()


class _MiniSim:
    SERVICE_S = 0.0027

    def __init__(self, flows: int) -> None:
        self.now = 0.0
        self.heap: List[list] = []
        self.seq = 0
        self.fifo = _Fifo(20)
        self.busy = False
        self.flows = {i: _Flow(self, i) for i in range(flows)}
        self.per_bucket: Dict[int, int] = {}

    def at(self, when: float, callback: Callable, args: tuple) -> list:
        self.seq += 1
        event = [when, self.seq, callback, False, args]
        heapq.heappush(self.heap, event)
        return event

    def offer(self, packet: _Packet) -> None:
        if self.fifo.enqueue(packet) and not self.busy:
            self.busy = True
            self.at(self.now + self.SERVICE_S, self.transmitted, ())

    def transmitted(self) -> None:
        packet = self.fifo.dequeue()
        if packet is not None:
            bucket = packet.flow & 63
            self.per_bucket[bucket] = self.per_bucket.get(bucket, 0) + packet.size
            self.at(self.now + 0.1, self.flows[packet.flow].on_ack, (packet.seq,))
        if self.fifo.queue:
            self.at(self.now + self.SERVICE_S, self.transmitted, ())
        else:
            self.busy = False

    def run(self, events: int) -> int:
        done = 0
        heap = self.heap
        while heap and done < events:
            event = heapq.heappop(heap)
            if event[3]:
                continue
            self.now = event[0]
            event[2](*event[4])
            done += 1
        return done


def ref_kernel() -> float:
    """Seconds one fixed reference simulation takes right now."""
    start = perf_counter()
    sim = _MiniSim(60)
    for index, flow in sim.flows.items():
        sim.at(0.01 * index, flow.send, ())
    if sim.run(_REF_EVENTS) != _REF_EVENTS:  # consume the result while timed
        raise AssertionError("reference kernel ran dry")
    return perf_counter() - start


def timed(body: Callable[[], Any]) -> Tuple[Any, Dict[str, float]]:
    """Run *body* once as a drift-bracketed sample."""
    gc.collect()
    ref_before = ref_kernel()
    start = perf_counter()
    result = body()
    raw = perf_counter() - start
    ref_after = ref_kernel()
    return result, sample(raw, ref_before, ref_after)


def sample(raw: float, ref_before: float, ref_after: float) -> Dict[str, float]:
    ref = min(ref_before, ref_after)
    return {
        "raw": raw,
        "corrected": raw * REF_NOMINAL_S / ref,
        "ref_before": ref_before,
        "ref_after": ref_after,
    }


def q25(values: Sequence[float]) -> float:
    """Lower quartile; a single value stands for itself (smoke scale)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=4)[0]


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10)[8]


def summarize(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """median (the metric), plus q25/p90/n and the raw figures for the record."""
    corrected = [s["corrected"] for s in samples]
    raw = [s["raw"] for s in samples]
    return {
        "median": statistics.median(corrected),
        "q25": q25(corrected),
        "p90": p90(corrected),
        "n": len(samples),
        "raw_median": statistics.median(raw),
        "raw_q25": q25(raw),
    }


def drift_record(ref_samples: Sequence[float]) -> Dict[str, Any]:
    """The reference kernel over the run, and whether the host shifted
    phase: q25 off nominal by more than 25%, or max/min above 2."""
    low, high = min(ref_samples), max(ref_samples)
    quartile = q25(ref_samples)
    return {
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_kernel_s": {"min": low, "q25": quartile, "max": high,
                         "n": len(ref_samples)},
        "drift_warning": bool(
            abs(quartile - REF_NOMINAL_S) > 0.25 * REF_NOMINAL_S or high > 2 * low
        ),
    }


def ref_values(samples: Sequence[Dict[str, float]]) -> List[float]:
    return [s[key] for s in samples for key in ("ref_before", "ref_after")]
