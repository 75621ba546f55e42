"""Operator-facing introspection of a running TAQ middlebox.

A network operator debugging a TAQ deployment wants one snapshot
answering: where is service going, what states are my flows in, is
admission control active, what loss rate does the box believe in?
:func:`taq_report` produces that snapshot; ``str(report)`` renders it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING


if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.taq import TAQQueue


@dataclass
class ClassReport:
    """One packet class's service picture."""

    enqueued: int
    dropped: int
    served: int
    buffered: int


@dataclass
class TaqReport:
    """Snapshot of a TAQ queue's internals."""

    now: float
    occupancy: int
    capacity: int
    classes: Dict[str, ClassReport] = field(default_factory=dict)
    flow_states: Dict[str, int] = field(default_factory=dict)
    tracked_flows: int = 0
    active_flows: int = 0
    loss_rate: float = 0.0
    admission_enabled: bool = False
    admission_loss_estimate: float = 0.0
    admitted_pools: int = 0
    waiting_pools: int = 0
    refused_syns: int = 0

    def service_share(self, class_name: str) -> float:
        total = sum(c.served for c in self.classes.values())
        if total == 0:
            return 0.0
        return self.classes[class_name].served / total

    def __str__(self) -> str:
        lines = [
            f"TAQ report @ t={self.now:.1f}s — buffer {self.occupancy}/{self.capacity} pkts, "
            f"loss {self.loss_rate:.1%}",
            f"flows: {self.tracked_flows} tracked, {self.active_flows} active",
        ]
        if self.flow_states:
            census = ", ".join(
                f"{state}={count}" for state, count in sorted(self.flow_states.items())
            )
            lines.append(f"states: {census}")
        lines.append(f"{'class':>18} {'served':>8} {'share':>7} {'dropped':>8} {'buffered':>9}")
        for name, report in self.classes.items():
            lines.append(
                f"{name:>18} {report.served:>8} {self.service_share(name):>6.1%} "
                f"{report.dropped:>8} {report.buffered:>9}"
            )
        if self.admission_enabled:
            lines.append(
                f"admission: loss estimate {self.admission_loss_estimate:.1%}, "
                f"{self.admitted_pools} pools admitted, {self.waiting_pools} waiting, "
                f"{self.refused_syns} SYNs refused"
            )
        else:
            lines.append("admission: disabled")
        return "\n".join(lines)


def taq_report(queue: "TAQQueue", now: Optional[float] = None) -> TaqReport:
    """Build a :class:`TaqReport` snapshot of *queue*.

    ``now`` defaults to the owning link's simulator clock; pass it
    explicitly for detached queues (unit tests).
    """
    if now is None:
        if queue.link is None:
            raise ValueError("queue is not attached to a link; pass now= explicitly")
        now = queue.link.sim.now
    states = Counter(
        queue.tracker.state_of(flow_id, now).value for flow_id in list(queue.tracker.flows)
    )
    classes = {
        klass.value: ClassReport(
            enqueued=stats.enqueued,
            dropped=stats.dropped,
            served=stats.served,
            buffered=queue.scheduler.occupancy(klass),
        )
        for klass, stats in queue.scheduler.stats.items()
    }
    report = TaqReport(
        now=now,
        occupancy=len(queue),
        capacity=queue.capacity_pkts,
        classes=classes,
        flow_states=dict(states),
        tracked_flows=len(queue.tracker.flows),
        active_flows=queue.tracker.active_flows(now),
        loss_rate=queue.loss_rate(),
        admission_enabled=queue.admission is not None,
    )
    if queue.admission is not None:
        report.admission_loss_estimate = queue.admission.loss_rate
        report.admitted_pools = len(queue.admission.admitted)
        report.waiting_pools = len(queue.admission.waiting)
        report.refused_syns = queue.admission_refusals
    return report
