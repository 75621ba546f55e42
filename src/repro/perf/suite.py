"""The shipped benchmark suite: 24 deterministic workloads.

Eight groups, chosen to cover every layer the probe instruments:

- ``sim``: the event store alone — schedule/pop churn and cancellation
  churn, the two inner loops every simulated second rides on.
- ``queues``: each registered discipline (droptail, red, sfq,
  favorqueue, taq) driven to saturation directly — enqueue/dequeue
  with no TCP above it, isolating per-packet discipline cost.  TAQ is
  also driven *attached to a link* at 10^2, 10^3 and 10^4 flows: only
  an attached queue knows its capacity, so only there does the
  Below/Above fair-share split (and the activity census under it) run.
- ``tcp`` / ``scenario``: full small-packet runs built from
  :class:`ScenarioSpec` through the declarative harness, the shapes
  the paper's figures actually exercise (bulk vs TAQ, Fig-10-style
  short-flow probes, web sessions).
- ``fluid``: the mean-field backend at N = 10^6 flows — per-step cost
  is independent of the population, so these pin the bounded-memory,
  bounded-time claim the fluid backend exists for.
- ``unit``: the perf ledger's bulk and web units, unarmed and (bulk)
  with every observer armed: what a packet costs end to end.
- ``sweep``: cached and trivially computed points: the sweep plane.
- ``parallel``: a cache-less sweep through
  :class:`repro.parallel.ParallelRunner` with two workers, covering
  spec pickling and pool dispatch.

Every benchmark builds from fixed seeds, so event/packet counts are
deterministic at a given scale; only the wall-clock measurements vary
run to run.  ``scale`` multiplies problem sizes (tests run the whole
suite at ``scale=0.02`` in well under a second).
"""

from __future__ import annotations

import os
import tempfile
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from typing import List, Sequence

from repro.build.harness import build_queue, build_simulation
from repro.build.registry import point
from repro.build.spec import (
    BackendSpec,
    MetricsSpec,
    QueueSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.check import attach_monitors
from repro.net.link import Link
from repro.net.packet import DATA, Packet
from repro.obs import Telemetry, recording
from repro.parallel import JobStore, ParallelRunner, PointSpec, ResultCache
from repro.perf.bench import BenchCounts, benchmark
from repro.perf.probe import profiled
from repro.sim.observe import ambient
from repro.sim.simulator import Simulator


def _scaled(n: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(n * scale)))


# ----------------------------------------------------------------------
# sim: the event heap
# ----------------------------------------------------------------------
@benchmark("event_heap_churn", group="sim")
def event_heap_churn(scale: float) -> BenchCounts:
    """Self-rescheduling callbacks: pure push/pop/dispatch throughput."""
    sim = Simulator(seed=1)
    budget = _scaled(200_000, scale)
    chains = 64

    def tick(index: int) -> None:
        if sim.processed < budget:
            # Interleave the chains at incommensurate delays so pops hit
            # a well-mixed heap, not a sorted stream.
            sim.schedule(0.001 + 0.0001 * (index % 7), tick, (index,))

    for index in range(chains):
        sim.schedule(0.001 * index, tick, (index,))
    sim.run()
    return BenchCounts(events=sim.processed)


@benchmark("event_heap_cancel", group="sim")
def event_heap_cancel(scale: float) -> BenchCounts:
    """Cancellation churn: half the scheduled events are cancelled
    before they fire — the retransmit-timer pattern TCP subjects the
    scheduler to constantly.  The store removes cancelled entries
    physically at cancel time, so this measures a bisect and a delete
    in a list of 120 000, far past any population a scenario holds."""
    sim = Simulator(seed=2)
    n = _scaled(120_000, scale, minimum=2)
    events = [sim.schedule(0.001 + 0.000001 * i, _noop) for i in range(n)]
    for event in events[::2]:
        event.cancel()
    sim.run()
    return BenchCounts(events=n)


def _noop() -> None:
    pass


# ----------------------------------------------------------------------
# queues: each discipline under saturation
# ----------------------------------------------------------------------
def _saturate_queue(kind: str, scale: float, seed: int) -> BenchCounts:
    """Offer 2 packets per service slot across 32 flows: the queue sits
    at capacity, so enqueue, drop and dequeue paths all stay hot."""
    sim = Simulator(seed=seed)
    queue = build_queue(kind, sim, capacity_bps=1_000_000.0, rtt=0.1, pkt_size=200)
    n = _scaled(50_000, scale)
    now = 0.0
    handled = 0
    for i in range(n):
        now += 0.0005
        queue.enqueue(Packet(flow_id=i % 32, kind=DATA, seq=i // 32, size=200), now)
        queue.enqueue(
            Packet(flow_id=(i + 7) % 32, kind=DATA, seq=i // 32, size=200), now
        )
        handled += 2
        if queue.dequeue(now) is not None:
            handled += 1
    while queue.dequeue(now) is not None:
        handled += 1
    return BenchCounts(packets=handled)


@benchmark("queue_droptail_saturation", group="queues")
def queue_droptail_saturation(scale: float) -> BenchCounts:
    """DropTail at 2x offered load: the FIFO baseline cost."""
    return _saturate_queue("droptail", scale, seed=11)


@benchmark("queue_red_saturation", group="queues")
def queue_red_saturation(scale: float) -> BenchCounts:
    """RED at 2x offered load: EWMA + probabilistic drop per packet."""
    return _saturate_queue("red", scale, seed=12)


@benchmark("queue_sfq_saturation", group="queues")
def queue_sfq_saturation(scale: float) -> BenchCounts:
    """SFQ at 2x offered load: per-bucket hashing and round-robin."""
    return _saturate_queue("sfq", scale, seed=13)


@benchmark("queue_favorqueue_saturation", group="queues")
def queue_favorqueue_saturation(scale: float) -> BenchCounts:
    """FavorQueue at 2x offered load: its per-flow queued counts per packet."""
    return _saturate_queue("favorqueue", scale, seed=14)


@benchmark("queue_taq_saturation", group="queues")
def queue_taq_saturation(scale: float) -> BenchCounts:
    """TAQ at 2x offered load: flow tracking, epochs and fair-share
    push-out — the paper's mechanism, and the costliest discipline."""
    return _saturate_queue("taq", scale, seed=15)


class TaqFlowDrive:
    """TAQ attached to a link, driven directly by *flows* steady flows.

    Rounds of 0.25 s: every flow offers one 200-byte packet per round,
    every other flow two, each arrival followed by one service — the
    queue stays shallow and nothing is dropped, so after their first
    epochs all flows are classified by rate against their fair share,
    half of them above it.  The link's capacity is ``flows`` times the
    mean per-flow rate, which puts the share between the two groups at
    every size.  Per-flow timing (2.5 epochs between a flow's packets,
    every flow inside its activity horizon) does not depend on
    ``flows``; what does is the size of the flow table the fair-share
    split consults on every packet.
    """

    ROUND_S = 0.25
    PKT_BYTES = 200

    def __init__(self, flows: int, seed: int = 16) -> None:
        self.flows = flows
        self.sim = Simulator(seed=seed)
        per_flow_bps = 1.5 * self.PKT_BYTES * 8 / self.ROUND_S
        self.queue = build_queue("taq", self.sim, capacity_bps=flows * per_flow_bps,
                                 rtt=0.1, pkt_size=self.PKT_BYTES)
        Link(self.sim, flows * per_flow_bps, 0.05, self.queue)
        self.rounds = 0

    def run(self, packets: int) -> int:
        """Offer at least *packets* packets in whole rounds; returns
        the number offered (every one is also served)."""
        queue, flows, size = self.queue, self.flows, self.PKT_BYTES
        step = self.ROUND_S / flows
        offered = 0
        while offered < packets:
            base, seq = self.rounds * self.ROUND_S, 2 * self.rounds
            for flow in range(flows):
                now = base + flow * step
                for extra in range(1 + flow % 2):
                    queue.enqueue(Packet(flow, DATA, seq=seq + extra, size=size), now)
                    queue.dequeue(now)
                    offered += 1
            self.rounds += 1
        return offered


def _flow_scaling(flows: int) -> None:
    def bench(scale: float) -> BenchCounts:
        return BenchCounts(packets=TaqFlowDrive(flows).run(_scaled(150_000, scale)))

    benchmark(
        f"queue_taq_flow_scaling_f{flows}",
        group="queues",
        description=f"TAQ attached to a link, {flows} steady flows: per-packet "
                    f"cost must not grow with the flow table.",
    )(bench)


for _flows in (100, 1_000, 10_000):
    _flow_scaling(_flows)


# ----------------------------------------------------------------------
# tcp / scenario: full declarative runs
# ----------------------------------------------------------------------
def _small_packet_spec(
    name: str,
    queue_kind: str,
    duration: float,
    workloads: List[WorkloadSpec],
    seed: int = 7,
) -> ScenarioSpec:
    """The paper's small-packet regime: 200-byte packets on a 600 kbps
    bottleneck, 200 ms RTT — the Fig 2/10 shape."""
    return ScenarioSpec(
        topology=TopologySpec(capacity_bps=600_000.0, rtt=0.2, pkt_size=200),
        name=name,
        seed=seed,
        duration=duration,
        queue=QueueSpec(kind=queue_kind),
        workloads=workloads,
        metrics=MetricsSpec(slice_seconds=10.0),
    )


def _run_scenario(spec: ScenarioSpec) -> BenchCounts:
    built = build_simulation(spec)
    built.run()
    # Offered packets from the link ledgers: accepted on arrival plus
    # every drop (evictions included), over all links.
    return BenchCounts(
        events=built.sim.processed,
        packets=sum(
            link.stats.arrived - link.stats.dropped + link.queue.dropped
            for link in built.links()
        ),
    )


@benchmark("tcp_small_packets_droptail", group="tcp")
def tcp_small_packets_droptail(scale: float) -> BenchCounts:
    """20 bulk TCP flows over DropTail, small packets."""
    spec = _small_packet_spec(
        "bench-tcp-droptail",
        "droptail",
        duration=_scaled(60, scale),
        workloads=[WorkloadSpec("bulk", {"n_flows": 20})],
    )
    return _run_scenario(spec)


@benchmark("tcp_small_packets_taq", group="tcp")
def tcp_small_packets_taq(scale: float) -> BenchCounts:
    """The same 20 bulk flows behind TAQ: tracker + fair share inline."""
    spec = _small_packet_spec(
        "bench-tcp-taq",
        "taq",
        duration=_scaled(60, scale),
        workloads=[WorkloadSpec("bulk", {"n_flows": 20})],
    )
    return _run_scenario(spec)


@benchmark("scenario_short_flows_mix", group="scenario")
def scenario_short_flows_mix(scale: float) -> BenchCounts:
    """Fig-10 shape: bulk background plus deterministic short probes
    arriving every 2 s — connection setup and small-transfer churn."""
    duration = _scaled(80, scale)
    probes = max(1, (duration - 10) // 2)
    spec = _small_packet_spec(
        "bench-short-mix",
        "taq",
        duration=duration,
        workloads=[
            WorkloadSpec("bulk", {"n_flows": 8}),
            WorkloadSpec(
                "short",
                {
                    "lengths": [(5 + i % 12) for i in range(probes)],
                    "start_time": 10.0,
                    "spacing": 2.0,
                },
            ),
        ],
        seed=8,
    )
    return _run_scenario(spec)


@benchmark("scenario_web_browsing", group="scenario")
def scenario_web_browsing(scale: float) -> BenchCounts:
    """Browser sessions (connection pools draining fixed objects) over
    DropTail: many short-lived flows sharing per-user state."""
    spec = _small_packet_spec(
        "bench-web",
        "droptail",
        duration=_scaled(60, scale),
        workloads=[
            WorkloadSpec("web", {"n_users": 12, "objects_per_user": 6}),
        ],
        seed=9,
    )
    return _run_scenario(spec)


# ----------------------------------------------------------------------
# unit: the ledger's packet units, unarmed and with every observer armed
# ----------------------------------------------------------------------
#: The observer families, each armed through its public call.
ALL_FOUR = ("telemetry", "probe", "spans", "monitors")


@contextmanager
def armed(families: Sequence[str]):
    """Arm *families* on every simulation built inside the block:
    ``profiled()`` and ``recording()`` for the block, ``attach_monitors``
    and ``Telemetry.arm`` per build, through the seam's ``ambient``."""
    suites, telemetries = [], []

    def per_build(built):
        if "monitors" in families:
            suites.append(attach_monitors(built, mode="collect"))
        if "telemetry" in families:
            telemetry = Telemetry(None, sample_interval=1.0)
            telemetry.arm(built)
            telemetries.append((telemetry, built.sim))

    with ExitStack() as stack:
        probe = stack.enter_context(profiled()) if "probe" in families else None
        recorder = stack.enter_context(recording()) if "spans" in families else None
        stack.enter_context(ambient(SimpleNamespace(arm=per_build)))
        yield SimpleNamespace(probe=probe, recorder=recorder,
                              suites=suites, telemetries=telemetries)


def run_unit(spec: ScenarioSpec, families: Sequence[str] = ()):
    """Build, arm, run and finalize, the way the ledger's armed unit
    does; returns the built scenario and what :func:`armed` yielded."""
    with armed(families) as arms:
        built = build_simulation(spec)
        built.run()
        for suite in arms.suites:
            suite.finalize()
        for telemetry, sim in arms.telemetries:
            telemetry.finalize(sim)
    return built, arms


def bulk_unit_spec(kind: str, scale: float = 1.0) -> ScenarioSpec:
    """The ledger's ``spk_bulk_*`` document cut to ten simulated
    seconds: 100 bulk flows at 0.75 packets per RTT."""
    return ScenarioSpec.from_document({
        "name": f"unit-{kind}", "seed": 1, "duration": float(_scaled(10, scale)),
        "topology": {"type": "dumbbell", "capacity_bps": 600_000, "rtt": 0.2,
                     "pkt_size": 200},
        "queue": {"kind": kind},
        "workloads": [{"type": "bulk", "n_flows": 100}],
    })


def _unit(spec: ScenarioSpec, families: Sequence[str] = ()) -> BenchCounts:
    """Events, and packets arrived at the forward bottleneck: the
    ledger's ``py_calls_per_pkt`` denominator."""
    built, _ = run_unit(spec, families)
    return BenchCounts(events=built.sim.processed,
                       packets=built.topology.forward.stats.arrived)


def _bulk_unit(kind: str, families: Sequence[str] = ()) -> None:
    armed_ = ", all four observer families armed" if families else ""
    benchmark(f"unit_bulk_{kind}{'_armed' if families else ''}", group="unit",
              description=f"The ledger's bulk unit behind {kind}{armed_}.")(
        lambda scale: _unit(bulk_unit_spec(kind, scale), families))


for _kind in ("droptail", "taq"):
    _bulk_unit(_kind)
    _bulk_unit(_kind, ALL_FOUR)


@benchmark("unit_web_taq_ac", group="unit")
def unit_web_taq_ac(scale: float) -> BenchCounts:
    """The ledger's web unit at smoke size, behind taq+ac: 50 users
    fetching five 2 500-byte objects over pools of four connections,
    and a flash crowd of 40 short probes that pushes the loss rate over
    the admission threshold."""
    return _unit(ScenarioSpec.from_document({
        "name": "unit-web-taq-ac", "seed": 1, "duration": float(_scaled(20, scale)),
        "topology": {"type": "dumbbell", "capacity_bps": 1_000_000, "rtt": 0.2,
                     "pkt_size": 500},
        "queue": {"kind": "taq+ac", "p_thresh": 0.02, "t_wait": 2.0,
                  "measure_interval": 1.0},
        "workloads": [
            {"type": "web", "n_users": 50, "objects_per_user": 5,
             "object_bytes": 2500, "connections": 4, "start_window": 10.0},
            {"type": "short", "lengths": [20] * 40, "start_time": 3.0,
             "spacing": 0.02},
        ],
    }))


# ----------------------------------------------------------------------
# sweep: what the sweep plane costs per point
# ----------------------------------------------------------------------
@point
def _square(x: int) -> int:
    """A point that costs next to nothing: what a sweep of it costs is
    the plumbing around it."""
    return x * x


def _sweep(specs: Sequence[PointSpec], prefill: bool) -> BenchCounts:
    """One sweep of *specs* driven as ``taq-experiments --resume DIR
    --bus-dir DIR`` drives one: dir store, durable job store, progress
    bus, a progress callback, all in a fresh temporary directory.  With
    *prefill* every point is put in the cache first and served from it.
    ``events`` counts the points served."""
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(os.path.join(root, "cache"), version="bench")
        for spec in specs if prefill else ():
            cache.put(spec, {"short_term_jain": 0.5, "seed": spec.kwargs["seed"]}, 0.25)
        store = JobStore(os.path.join(root, "jobs"), version="bench")
        served = []
        runner = ParallelRunner(jobs=1, cache=cache, store=store,
                                bus_dir=os.path.join(root, "bus"),
                                progress=lambda done, total, result: served.append(done))
        return BenchCounts(events=len(runner.run(specs)))


@benchmark("sweep_cached_points", group="sweep")
def sweep_cached_points(scale: float) -> BenchCounts:
    """A resumed sweep of 200 points, every one a cache hit; counts the
    cache prefill and the temporary directory too."""
    return _sweep([PointSpec("repro.experiments.sweeps:run_sweep_point",
                             dict(kind="droptail", capacity_bps=200_000.0,
                                  fair_share_bps=20_000.0, duration=2.0, seed=seed),
                             label=f"p{seed:03d}")
                   for seed in range(_scaled(200, scale))], prefill=True)


@benchmark("sweep_computed_points", group="sweep")
def sweep_computed_points(scale: float) -> BenchCounts:
    """A sweep of 200 points, every one computed by a function that
    costs next to nothing; counts the temporary directory too."""
    return _sweep([PointSpec("repro.perf.suite:_square", {"x": x}, label=f"x={x}")
                   for x in range(_scaled(200, scale))], prefill=False)


# ----------------------------------------------------------------------
# fluid: the mean-field backend at population scale
# ----------------------------------------------------------------------
def _million_flow_spec(name: str, queue_kind: str, duration: float) -> ScenarioSpec:
    """A million bulk flows on a 400 Mbps bottleneck of 200-byte
    packets: fair share ~0.25 packets per RTT — the paper's sub-packet
    regime at a population no event simulator can hold.  Per-step cost
    is O(classes * wmax^2), independent of the flow count; these runs
    exist to prove (and pin in the baseline) that the fluid backend is
    bounded-memory and N-independent."""
    return ScenarioSpec(
        topology=TopologySpec(capacity_bps=400_000_000.0, rtt=0.2, pkt_size=200),
        name=name,
        seed=21,
        duration=duration,
        queue=QueueSpec(kind=queue_kind),
        workloads=[WorkloadSpec("bulk", {"n_flows": 1_000_000})],
        metrics=MetricsSpec(slice_seconds=10.0),
        backend=BackendSpec(kind="fluid"),
    )


def _run_fluid(spec: ScenarioSpec) -> BenchCounts:
    built = build_simulation(spec)
    result = built.run()
    return BenchCounts(
        events=result.steps,
        packets=int(result.delivered_pkts),
    )


@benchmark("fluid_red_million", group="fluid")
def fluid_red_million(scale: float) -> BenchCounts:
    """10^6 bulk flows through the RED fluid model (EWMA + ramp)."""
    return _run_fluid(
        _million_flow_spec("bench-fluid-red", "red", duration=_scaled(120, scale))
    )


@benchmark("fluid_taq_million", group="fluid")
def fluid_taq_million(scale: float) -> BenchCounts:
    """10^6 bulk flows through the TAQ fluid approximation (fair-window
    excess redistribution)."""
    return _run_fluid(
        _million_flow_spec("bench-fluid-taq", "taq", duration=_scaled(120, scale))
    )


# ----------------------------------------------------------------------
# parallel: the sweep engine
# ----------------------------------------------------------------------
@point
def _sweep_point(seed: int, duration: float) -> int:
    """One pool-executed point: a tiny bulk run; returns events processed.

    Module-level so :class:`PointSpec` can name it by dotted path and
    worker processes can import it.
    """
    spec = _small_packet_spec(
        f"bench-sweep-{seed}",
        "droptail",
        duration=duration,
        workloads=[WorkloadSpec("bulk", {"n_flows": 6})],
        seed=seed,
    )
    built = build_simulation(spec)
    built.run()
    return built.sim.processed


@benchmark("parallel_sweep", group="parallel")
def parallel_sweep(scale: float) -> BenchCounts:
    """Four points through ParallelRunner(jobs=2): spec pickling, pool
    dispatch, in-order result collection — no cache, all cold."""
    duration = float(_scaled(20, scale))
    specs = [
        PointSpec(
            fn="repro.perf.suite:_sweep_point",
            kwargs={"seed": 100 + i, "duration": duration},
            label=f"sweep-{i}",
        )
        for i in range(4)
    ]
    results = ParallelRunner(jobs=2).run(specs)
    return BenchCounts(events=sum(result.value for result in results))
