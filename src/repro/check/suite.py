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

from typing import List, Optional, Tuple

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
    """All monitors armed on one simulation, plus the per-event glue.

    ``event`` runs between every two simulated events, so it evaluates
    the conjunction of every per-event predicate in its own frame, on
    state bound here at arm time: the clock's ordering, each link's
    conservation books and occupancy bounds over one ``queue.__len__()``
    call, and the TAQ ledgers.  Nothing is skipped, sampled or carried
    over from an earlier event.  The monitors' ``on_event`` methods stay
    the only place a violation is worded: when any predicate is false
    (or a queue reaches a new high-water mark, which its monitor
    records) they all re-check, in arming order.
    ``tests/check/test_fused_differential.py`` holds the two equal.
    """

    def __init__(self, sim, clock: ClockMonitor,
                 links: List[Tuple[LinkConservationMonitor, QueueOccupancyMonitor]],
                 taq: Optional[TaqAccountingMonitor],
                 legality: TcpLegalityMonitor) -> None:
        self.sim = sim
        #: What re-checks after the clock when the conjunction fails.
        self._boundary: List[Monitor] = [books for books, _ in links]
        self._boundary += [occupancy for _, occupancy in links]
        if taq is not None:
            self._boundary.append(taq)
        self.monitors: List[Monitor] = [clock, *self._boundary, legality]
        self._clock = clock
        self._links = [
            (occupancy.queue.__len__, occupancy.queue, books, occupancy,
             books.link if books._lossy else None)
            for books, occupancy in links
        ]
        self._taq = None
        if taq is not None:
            scheduler = taq.queue.scheduler
            self._taq = (
                taq.queue, scheduler, scheduler.__len__,
                tuple(scheduler.stats.values()),
                (scheduler._recovery, *scheduler._fifos.values()),
            )
        self._legality = legality
        self._finalized = False
        subscribe(sim, self)

    # -- the simulator's subscriptions ----------------------------------
    def event(self, sim, event, now: float) -> None:
        # ClockMonitor (its state moves on every event, so it goes first
        # and alone).
        clock = self._clock
        time = event.time
        if time < now or (time == clock._last_time and event.seq <= clock._last_seq):
            clock.on_event(event, now)
        else:
            clock._last_time = time
            clock._last_seq = event.seq
        # LinkConservationMonitor and QueueOccupancyMonitor, per link.
        holds = True
        for qlen, queue, books, occupancy, lossy in self._links:
            resident = qlen()
            sent = books.transmitted
            held = sent + resident
            if (
                queue.enqueued != held
                or books.arrived != books.drops + held
                or sent < books.deliveries + (
                    0 if lossy is None else lossy.cross_traffic_losses)
                or resident > occupancy.max_seen
                or resident < 0
                or resident > queue.capacity_pkts
            ):
                holds = False
                break
        if holds and self._taq is not None:  # TaqAccountingMonitor
            queue, scheduler, buffered, class_stats, containers = self._taq
            class_dropped = served = 0
            for stats in class_stats:
                class_dropped += stats.dropped
                served += stats.served
            by_class = sum(map(len, containers))
            resident = buffered()
            syns = scheduler._buffered_syns
            admission = queue.admission
            holds = not (
                queue.dropped != class_dropped + queue.admission_refusals
                or queue.enqueued != served + resident
                or resident != by_class
                or syns < 0
                or syns > scheduler.new_flow_capacity
                or (admission is not None and (
                    admission.loss_rate < 0.0
                    or (admission.admitted and admission.waiting
                        and not admission.admitted.keys().isdisjoint(
                            admission.waiting))))
            )
        if not holds:
            for monitor in self._boundary:
                monitor.on_event(event, now)

    def flow_spawned(self, sim, flow) -> None:
        """A flow created mid-run (web sessions) is wrapped like the
        ones :func:`attach_monitors` found."""
        self._legality.attach_flow(flow)

    # -- lifecycle ------------------------------------------------------
    def finalize(self) -> None:
        """Run end-of-simulation checks (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        for monitor in self.monitors:
            monitor.finalize(self.sim)

    def detach(self) -> None:
        """Unhook from the simulator (taps cannot be removed, but they
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

    TCP legality wraps the flows that exist now; a flow spawned mid-run
    (web sessions) announces itself with ``flow_spawned`` and the suite
    wraps it then, so every sender of the run is checked.
    """
    links = [
        (LinkConservationMonitor(link, label=link.name, mode=mode),
         QueueOccupancyMonitor(link.queue, label=link.name, mode=mode))
        for link in built.links()
    ]
    queue = built.queue
    taq = None
    if hasattr(queue, "scheduler") and hasattr(queue, "tracker"):
        taq = TaqAccountingMonitor(queue, mode)
    legality = TcpLegalityMonitor(mode)
    for flow in built.all_flows():
        if hasattr(flow, "sender"):
            legality.attach_flow(flow)
    return MonitorSuite(built.sim, ClockMonitor(mode), links, taq, legality)


def run_checked(built, until: Optional[float] = None, mode: str = "raise") -> MonitorSuite:
    """Arm, run, finalize — the one-call form for tests and the fuzzer."""
    suite = attach_monitors(built, mode=mode)
    built.run(until=until)
    suite.finalize()
    return suite
