"""Arming a built scenario with the full monitor set.

:func:`attach_monitors` takes the :class:`~repro.build.harness.BuiltScenario`
that ``build_simulation`` returns, instantiates every applicable monitor
from :mod:`repro.check.monitors`, and wires them into the run through
the passive hooks only — the observer slots of the simulator, the links
and their queues (:mod:`repro.sim.observe`), link arrival taps, and
instance-level wrapping of each sender's ``receive``.
The armed run therefore pops the same events in the same order as an
unarmed one; only Python-level observation is added.

Typical use::

    built = build_simulation(spec)
    suite = attach_monitors(built, mode="collect")
    built.run()
    suite.finalize()
    assert not suite.violations
"""

from __future__ import annotations

from typing import List, Optional

from repro.check.monitors import (
    ClockMonitor,
    LinkConservationMonitor,
    Monitor,
    QueueOccupancyMonitor,
    TaqAccountingMonitor,
    TcpLegalityMonitor,
    Violation,
)
from repro.sim.observe import Observer, subscribe, unsubscribe


class MonitorSuite(Observer):
    """All monitors armed on one simulation, plus the fan-out glue."""

    def __init__(self, sim, monitors: List[Monitor]) -> None:
        self.sim = sim
        self.monitors = monitors
        self._event_monitors = [
            m for m in monitors
            if type(m).on_event is not Monitor.on_event
        ]
        self._finalized = False
        subscribe(sim, self)

    # -- the simulator's per-event subscription -------------------------
    def event(self, sim, event, now: float) -> None:
        for monitor in self._event_monitors:
            monitor.on_event(event, now)

    # -- lifecycle ------------------------------------------------------
    def finalize(self) -> None:
        """Run end-of-simulation checks (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        for monitor in self.monitors:
            monitor.finalize(self.sim)

    def detach(self) -> None:
        """Unhook the per-event fan-out (taps cannot be removed, but they
        are inert once the simulation stops)."""
        unsubscribe(self.sim, self)

    # -- results --------------------------------------------------------
    @property
    def violations(self) -> List[Violation]:
        return [v for monitor in self.monitors for v in monitor.violations]

    def violation_documents(self) -> List[dict]:
        return [v.to_document() for v in self.violations]

    def by_name(self, name: str) -> Monitor:
        for monitor in self.monitors:
            if monitor.name == name:
                return monitor
        raise KeyError(name)


def attach_monitors(built, mode: str = "raise") -> MonitorSuite:
    """Arm *built* (a ``BuiltScenario``) with every applicable monitor.

    ``mode="raise"`` aborts at the first violation with
    :class:`~repro.check.monitors.InvariantViolation`; ``mode="collect"``
    records violations on the suite for post-run inspection (what the
    fuzzer uses).

    TCP legality wraps the flows that exist *now* — sessions that spawn
    flows mid-run (web users) are covered by the conservation and queue
    monitors but not individually wrapped.
    """
    monitors: List[Monitor] = [ClockMonitor(mode)]
    links = built.links()
    for link in links:
        monitors.append(LinkConservationMonitor(link, label=link.name, mode=mode))
    for link in links:
        monitors.append(
            QueueOccupancyMonitor(link.queue, label=link.name, mode=mode)
        )
    queue = built.queue
    if hasattr(queue, "scheduler") and hasattr(queue, "tracker"):
        monitors.append(TaqAccountingMonitor(queue, mode))
    legality = TcpLegalityMonitor(mode)
    for flow in built.all_flows():
        if hasattr(flow, "sender"):
            legality.attach_flow(flow)
    monitors.append(legality)
    return MonitorSuite(built.sim, monitors)


def run_checked(built, until: Optional[float] = None, mode: str = "raise") -> MonitorSuite:
    """Arm, run, finalize — the one-call form for tests and the fuzzer."""
    suite = attach_monitors(built, mode=mode)
    built.run(until=until)
    suite.finalize()
    return suite
