"""Everything under ``src/repro`` is reached from a shipped entry point, or
is a key of :data:`KEPT` with the reason it stays.

Two halves, one table:

- ``test_every_definition_is_referenced`` (tier-1, static, a few seconds):
  every module-level function, class and public method is named somewhere
  that ships — in ``src/repro`` outside its own definition, import lines
  and ``__all__`` lists, in ``examples/`` or ``benchmarks/``, in a
  ``pyproject.toml`` script, or in a ``"module:function"`` string — or it
  hands itself to a registry with a decorator (``@QUEUES.register(...)``,
  ``@benchmark(...)``).  A name only ``tests/`` mentions fails.  Matching is by bare name, so a method
  called ``run`` is vouched for by any other ``run``: this half is a fence
  against regrowth, not the proof.
- ``test_entry_points_reach_everything`` (``slow``): drives every shipped
  entry point (:func:`drive` has the list; no unit test is among them) in
  subprocesses under a call hook and asserts that every function no run
  entered is in :data:`KEPT`.  It also writes the unreached list to
  ``unreached.txt`` under pytest's ``--basetemp`` (CI uploads it) and is
  the one place the eight ``examples/*.py`` besides ``reproduce_all.py``
  are run.

What the hook does that a naive one gets wrong: it is a ``sys.settrace``
call hook, because ``cProfile.enable()`` (``taq-perf profile``, the
ledger's profiled unit) displaces a ``sys.setprofile`` one and everything
run under the profiler then looks unreached; and it appends each function
to its file the first time it is seen, because pool workers leave through
``os._exit`` and a killed ``taq-serve`` never runs ``atexit``.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

#: Definitions no entry point enters (or no shipped file names) that stay
#: anyway: reason -> the names it covers, as ``module:Qualified.name``.
_KEPT_BY_REASON: Dict[str, str] = {
    "fault path: runs when an invariant breaks, a document is malformed, a "
    "job fails, a cache entry is corrupt or a failing fuzz case is shrunk; no "
    "clean run provokes it": """
        repro.build.errors:did_you_mean
        repro.build.errors:unknown_key_message
        repro.build.registry:Registry._unknown_message
        repro.build.registry:Registry.kinds
        repro.build.spec:ScenarioSpec.from_file.reject_constant
        repro.check.differential:DifferentialReport.failures
        repro.check.fuzz:_candidates
        repro.check.fuzz:_candidates.clone
        repro.check.fuzz:_same_failure
        repro.check.fuzz:shrink
        repro.check.fuzz:write_repro
        repro.check.monitors:ClockMonitor.on_event
        repro.check.monitors:InvariantViolation.__init__
        repro.check.monitors:Monitor.violate
        repro.check.monitors:Violation.to_document
        repro.fluid.core:FluidModel._record
        repro.parallel.backends:HttpCache.delete_blob
        repro.parallel.backends:SqliteCache.delete_blob
        repro.parallel.jobs:JobStore.mark_failed
    """,
    "injected faults: the plugin queue kinds that prove the monitors fire "
    "(docs/invariants.md); only a document that names them runs them": """
        repro.check.faults:BlackholeDropTailQueue.__init__
        repro.check.faults:BlackholeDropTailQueue.enqueue
        repro.check.faults:MiscountingDropTailQueue.__init__
        repro.check.faults:MiscountingDropTailQueue.enqueue
        repro.check.faults:OverstuffedDropTailQueue.__init__
        repro.check.faults:OverstuffedDropTailQueue.dequeue
        repro.check.faults:OverstuffedDropTailQueue.enqueue
        repro.check.faults:build_blackhole
        repro.check.faults:build_miscounting
        repro.check.faults:build_overstuffed
    """,
    "interface method: every subclass overrides it, the base only raises "
    "or does nothing": """
        repro.check.monitors:Monitor.on_event
        repro.net.node:Endpoint.receive
        repro.net.node:Node.receive
        repro.parallel.cache:CacheBackend.delete_blob
        repro.parallel.cache:CacheBackend.describe
        repro.parallel.cache:CacheBackend.prune
        repro.parallel.cache:CacheBackend.read_blob
        repro.parallel.cache:CacheBackend.stats
        repro.parallel.cache:CacheBackend.write_blob
        repro.queues.base:QueueDiscipline.__len__
        repro.queues.base:QueueDiscipline.dequeue
        repro.queues.base:QueueDiscipline.enqueue
    """,
    "a sys.setprofile hook: the interpreter calls it with tracing off, so "
    "the audit's settrace hook never sees it run": """
        repro.perf.bench:count_calls.profiler
    """,
    "called by http.server by name (request dispatch, logging)": """
        repro.parallel.httpstore:StoreHandler.do_PUT
        repro.parallel.httpstore:StoreHandler.log_message
        repro.parallel.service:ServiceHandler.do_GET
        repro.parallel.service:ServiceHandler.do_POST
    """,
    "protocol hook the interpreter calls by name: __repr__ or the container "
    "protocol (len, bool, in) of a public class, a debugging aid; a module "
    "__getattr__, which serves `from package import Name`": """
        repro:__getattr__
        repro.build:__getattr__
        repro.build.registry:Registry.__contains__
        repro.build.registry:Registry.__repr__
        repro.core:__getattr__
        repro.experiments:__getattr__
        repro.metrics:__getattr__
        repro.model.chain:MarkovChain.__repr__
        repro.net.link:Link.__repr__
        repro.net.node:Node.__repr__
        repro.net.packet:Packet.__repr__
        repro.obs:__getattr__
        repro.obs.spans:Span.__repr__
        repro.obs.spans:SpanRecorder.__len__
        repro.obs.trace:TraceEvent.__repr__
        repro.parallel.backends:HttpCache.__repr__
        repro.parallel.backends:SqliteCache.__repr__
        repro.parallel.cache:ResultCache.__repr__
        repro.parallel.jobs:JobStore.__repr__
        repro.parallel:__getattr__
        repro.queues:__getattr__
        repro.sim.events:Event.__repr__
        repro.sim.events:EventQueue.__bool__
        repro.sim.events:EventQueue.__len__
        repro.sim.rng:RngRegistry.__repr__
        repro.tcp.flow:TcpFlow.__repr__
        repro.workloads:__getattr__
    """,
    "--paper (documented CLI flag): the published-scale configuration, "
    "hours of simulation": """
        repro.experiments.fig01_download_times:Config.paper
        repro.experiments.fig02_fairness_droptail:Config.paper
        repro.experiments.fig03_buffer_tradeoff:Config.paper
        repro.experiments.fig06_model_validation:Config.paper
        repro.experiments.fig08_fairness_taq:Config.paper
        repro.experiments.fig09_flow_evolution:Config.paper
        repro.experiments.fig10_short_flows:Config.paper
        repro.experiments.fig11_testbed:Config.paper
        repro.experiments.fig12_admission_cdf:Config.paper
        repro.experiments.hang_times:Config.paper
        repro.experiments.overlay_deployment:Config.paper
        repro.experiments.padhye_comparison:Config.paper
        repro.experiments.pool_fairness:Config.paper
        repro.experiments.rtt_fairness:Config.paper
        repro.experiments.spr_endhost:Config.paper
        repro.experiments.variants:Config.paper
    """,
    "--chart (documented CLI flag) on a figure the audit does not chart; "
    "fig02 and fig09 drive the same path": """
        repro.experiments.fig08_fairness_taq:Result.chart
        repro.experiments.fig12_admission_cdf:BandResult.cdf
        repro.experiments.fig12_admission_cdf:Result.chart
        repro.metrics.asciichart:cdf_chart
        repro.metrics.downloads:cdf_points
    """,
    "reference implementation a test compares against: the model side of a "
    "model-vs-simulation or chain-vs-fluid agreement check (ROADMAP 1)": """
        repro.fluid.disciplines:pinned
        repro.fluid.disciplines:pinned.discipline
        repro.model.analysis:backoff_stage_probability
        repro.model.analysis:expected_epochs_to_timeout
        repro.model.analysis:expected_silence_run
        repro.model.analysis:silence_probability
        repro.model.analysis:silence_run_distribution
        repro.model.analysis:timeout_probability_curve
        repro.model.chain:MarkovChain.simulate
        repro.model.chain:MarkovChain.states
        repro.model.chain:MarkovChain.transition
    """,
    "paper section 2.1: the regime names (sub-packet, SPK(k)) a scenario is "
    "described by": """
        repro.net.topology:Dumbbell.regime
    """,
    "data-dependent: queue_snapshot calls it only while a pool waits": """
        repro.core.admission:AdmissionController.expected_wait
    """,
    "data-dependent: maybe_compact calls it past a churn threshold": """
        repro.parallel.jobs:JobStore.compact
    """,
    "data-dependent: the delayed-ACK timer, armed only for a receiver a "
    "workload sets delayed_ack on": """
        repro.tcp.receiver:TCPReceiver._flush_delayed_ack
    """,
    "data-dependent: completion of a sized SPR or TFRC flow; the shipped "
    "experiments run both unbounded": """
        repro.tcp.spr:SprSender._complete
        repro.tcp.tfrc:TfrcFlow._on_complete
        repro.tcp.tfrc:TfrcFlow.done
    """,
    "data-dependent: the roll-ups Telemetry.summary() and the run report "
    "include when a span recorder rides along": """
        repro.obs.spans:SpanRecorder.counts_by_kind
        repro.obs.spans:SpanRecorder.summary
        repro.obs.trace:EventTrace.counts_by_kind
    """,
    "the Dumbbell regime arithmetic on the other topologies: taq-check diff "
    "and the sweeps call it on whichever topology a document names": """
        repro.overlay.topology:OverlayDumbbell.fair_share_bps
        repro.overlay.topology:OverlayDumbbell.packets_per_rtt
        repro.testbed.emulation:TestbedDumbbell.fair_share_bps
        repro.testbed.emulation:TestbedDumbbell.packets_per_rtt
    """,
    "registers 'packet' as a backend kind so documents validate; "
    "build_simulation assembles the packet backend itself": """
        repro.build.builtin_backends:build_packet
    """,
    "orderly shutdown on Ctrl-C; the audit stops taq-serve with SIGTERM": """
        repro.parallel.service:ExperimentService.close
        repro.parallel.service:ServiceServer.server_close
    """,
    "one-line accessor of a public state or result object, read by library "
    "callers and unit tests": """
        repro.check.fuzz:CampaignResult.ok
        repro.parallel.bus:Heartbeat.alive
        repro.parallel.jobs:JobStore.get
        repro.tcp.sender:TCPSender.done
    """,
    # Everything below is dead by the measurement and stays only because a
    # PR may retire no more than a few tests: each is entered by its own
    # unit tests alone.  CHANGES.md (PR 17) has the sizes and test counts;
    # delete a group here together with its tests.
    "staged for deletion: only its own unit tests reach it": """
        repro.build.registry:Registry.unregister
        repro.check.suite:MonitorSuite.by_name
        repro.check.suite:MonitorSuite.detach
        repro.check.suite:MonitorSuite.violation_documents
        repro.check.suite:run_checked
        repro.experiments.fig01_download_times:Result.spread
        repro.experiments.fig03_buffer_tradeoff:Result.required_buffer
        repro.experiments.fig11_testbed:Result.jain
        repro.experiments.hang_times:Result.point
        repro.experiments.padhye_comparison:ComparisonPoint.error
        repro.experiments.variants:Result.jain
        repro.metrics.downloads:spread_orders_of_magnitude
        repro.metrics.evolution:FlowEvolution.total
        repro.metrics.hangs:fraction_with_hang_over
        repro.model.chain:MarkovChain.absorbing_states
        repro.model.chain:MarkovChain.expected_return_time
        repro.model.population:PopulationEquilibrium.census
        repro.model.population:slice_jain
        repro.obs.export:parse_openmetrics
        repro.obs.report:render_telemetry_report
        repro.obs.streamstats:LogHistogram.merge
        repro.obs.streamstats:StreamingFlowStats.worst_flows
        repro.obs.trace:EventTrace.counts_by_flow
        repro.overlay.tunnel:ArqTunnel.in_flight
        repro.sim.observe:subscribers
        repro.sim.observe:unsubscribe
        repro.sim.rng:RngRegistry.spawn
        repro.sim.simulator:Simulator.step
    """,
}

KEPT: Dict[str, str] = {
    name: reason for reason, names in _KEPT_BY_REASON.items()
    for name in names.split()
}


# ----------------------------------------------------------------------
# What is defined
# ----------------------------------------------------------------------
def _python_files(top: str) -> Iterator[str]:
    for folder, _dirs, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _module_name(path: str) -> str:
    parts = os.path.relpath(path, os.path.dirname(SRC))[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


#: Decorators that put a definition in a table something else reads.
REGISTERING = ("register", "_register", "benchmark")


class Definition:
    """One ``def`` or ``class`` under ``src/repro``."""

    def __init__(self, path: str, qualname: str, node: ast.AST, depth: int,
                 in_class: bool) -> None:
        self.path = path
        self.name = f"{_module_name(path)}:{qualname}"
        self.short = qualname.rsplit(".", 1)[-1]
        self.is_class = isinstance(node, ast.ClassDef)
        #: The line a code object reports: the first decorator's, if any.
        self.first_line = min([node.lineno]
                              + [d.lineno for d in node.decorator_list])
        self.last_line = node.end_lineno
        #: What the static half holds to account: module-level definitions
        #: and public methods of module-level classes, unless a decorator
        #: (``@QUEUES.register("kind")``, ``@benchmark(...)``) is the use.
        self.fenced = (
            (depth == 0 or (depth == 1 and in_class
                            and not self.short.startswith("_")))
            and not any(
                isinstance(d, ast.Call)
                and getattr(d.func, "attr", getattr(d.func, "id", "")) in REGISTERING
                for d in node.decorator_list))


def definitions() -> List[Definition]:
    found: List[Definition] = []

    def visit(path: str, node: ast.AST, prefix: str, depth: int,
              in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = prefix + child.name
                found.append(Definition(path, qualname, child, depth, in_class))
                visit(path, child, qualname + ".", depth + 1,
                      isinstance(child, ast.ClassDef))
            else:
                visit(path, child, prefix, depth, in_class)

    for path in _python_files(SRC):
        visit(path, _parse(path), "", 0, False)
    return found


# ----------------------------------------------------------------------
# The static half: what is named
# ----------------------------------------------------------------------
_DOTTED = re.compile(r"^[A-Za-z_][\w.]*(:[A-Za-z_][\w.]*)?$")


def _mentions(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bare name, line)`` for every use of a name in *tree*: loads,
    attribute accesses and strings that spell an identifier or a
    ``"module:function"`` path.  Import lines, ``__all__`` lists and a
    facade's ``_SOURCES`` table only pass a name on; they are not uses."""
    exported: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("__all__", "_SOURCES")
                for t in node.targets):
            exported.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.match(node.value)):
            yield re.split(r"[.:]", node.value)[-1], node.lineno


def _shipped_mentions() -> Dict[str, List[Tuple[str, int]]]:
    mentions: Dict[str, List[Tuple[str, int]]] = {}
    for top in (SRC, os.path.join(ROOT, "examples"),
                os.path.join(ROOT, "benchmarks")):
        for path in _python_files(top):
            for name, line in _mentions(_parse(path)):
                mentions.setdefault(name, []).append((path, line))
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        for target in re.findall(r'"[\w.]+:(\w+)"', handle.read()):
            mentions.setdefault(target, []).append(("pyproject.toml", 0))
    return mentions


def unreferenced(found: List[Definition]) -> List[str]:
    """Fenced definitions whose every mention, if any, is inside themselves."""
    mentions = _shipped_mentions()
    return sorted({
        d.name for d in found
        if d.fenced and all(
            path == d.path and d.first_line <= line <= d.last_line
            for path, line in mentions.get(d.short, ()))
    })


def test_every_definition_is_referenced():
    found = definitions()
    stale = sorted(set(KEPT) - {d.name for d in found})
    assert stale == [], "KEPT names that no longer exist"
    loose = [name for name in unreferenced(found) if name not in KEPT]
    assert loose == [], (
        "named by no shipped file: delete each with its tests, or add it "
        "to KEPT with the reason it stays")


# ----------------------------------------------------------------------
# The dynamic half: what is entered
# ----------------------------------------------------------------------
HOOK = '''\
import os, sys, threading

_src = os.environ.get("REACHABILITY_SRC")
if _src:
    _seen = set()
    _out = open(os.path.join(os.environ["REACHABILITY_OUT"],
                             "%d.txt" % os.getpid()), "a", buffering=1)

    def _hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(_src):
            key = (code.co_filename, code.co_firstlineno)
            if key not in _seen:
                _seen.add(key)
                _out.write("%s:%d\\n" % key)

    sys.settrace(_hook)
    threading.settrace(_hook)
'''

PYTHON = sys.executable
EXPERIMENTS = [PYTHON, "-m", "repro.experiments.cli"]
CHECK = [PYTHON, "-m", "repro.check.cli"]
PERF = [PYTHON, "-m", "repro.perf.cli"]
OBS = [PYTHON, "-m", "repro.obs.cli"]
SCENARIOS = os.path.join(ROOT, "examples", "scenarios")
FIG08 = os.path.join(SCENARIOS, "fig08_taq_fairness.json")
FIG08_NAME = "fig08-taq-fairness-point"  # the document's "name": its bundle dir
FIG12 = os.path.join(SCENARIOS, "fig12_admission_cdf.json")
LEDGER = [PYTHON, os.path.join(ROOT, "benchmarks", "ledger", "run.py")]
#: No shipped document is RED's; ``taq-obs stability`` on one is what
#: evaluates Reynier's condition.
RED_DOCUMENT = {
    "name": "reachability-red", "seed": 1, "duration": 30.0,
    "topology": {"type": "dumbbell", "capacity_bps": 2_000_000, "rtt": 0.1,
                 "pkt_size": 1000},
    "queue": {"kind": "red", "buffer_rtts": 2.0, "min_th": 10, "max_th": 14,
              "max_p": 1.0, "weight": 0.0005},
    "workloads": [{"type": "bulk", "n_flows": 4, "extra_rtt_max": 0}],
}
EXAMPLES = sorted(
    name for name in os.listdir(os.path.join(ROOT, "examples"))
    if name.endswith(".py") and name != "reproduce_all.py")


def _commands(work: str) -> Iterator[Tuple[List[str], int]]:
    """``(argv, expected exit status)`` for every shipped entry point, in
    an order where later commands read what earlier ones wrote under
    *work*.  Sweeps run at ``--jobs 1``: the hook survives a worker's
    ``os._exit``, but one process is one file to read."""
    def at(*parts: str) -> str:
        return os.path.join(work, *parts)

    shipped = sorted(os.path.join(SCENARIOS, name)
                     for name in os.listdir(SCENARIOS))
    yield [PYTHON, os.path.join(ROOT, "examples", "reproduce_all.py"),
           at("results"), "--jobs", "1", "--no-cache"], 0
    yield [PYTHON, os.path.join(ROOT, "examples", "reproduce_all.py"),
           at("results-fig02"), "--only", "fig02", "--jobs", "1", "--no-cache",
           "--telemetry-dir", at("telemetry")], 0
    for name in EXAMPLES:
        yield [PYTHON, os.path.join(ROOT, "examples", name)], 0

    yield EXPERIMENTS + ["list"], 0
    yield EXPERIMENTS + ["tipping-point"], 0
    yield EXPERIMENTS + ["scenario"] + shipped + ["--jobs", "1"], 0
    yield EXPERIMENTS + ["scenario", FIG12, "--spans",
                         at("span-bundle", "spans.jsonl")], 0
    yield EXPERIMENTS + ["scenario", FIG08, "--telemetry-dir", at("bundles"),
                         "--csv", at("fig08-scenario.csv")], 0
    yield EXPERIMENTS + ["scenario", FIG08, "--backend", "fluid",
                         "--telemetry-dir", at("fluid-bundles")], 0
    yield EXPERIMENTS + ["fig09", "--chart", "--csv", at("fig09.csv")], 0
    for _ in range(2):  # cold, then resumed from the job store
        yield EXPERIMENTS + ["fig02", "--jobs", "1", "--resume", at("resume"),
                             "--bus-dir", at("bus")], 0
    sqlite = "sqlite:" + at("shared.sqlite")
    yield EXPERIMENTS + ["fig02", "--jobs", "1", "--cache-backend", sqlite], 0
    yield EXPERIMENTS + ["fig02", "--jobs", "1", "--cache-backend", sqlite,
                         "--chart"], 0  # every point a cache hit
    for backend in (sqlite, "dir:" + at("cache")):
        yield EXPERIMENTS + ["cache", "stats", "--cache-backend", backend], 0
        yield EXPERIMENTS + ["cache", "stats", "--json",
                             "--cache-backend", backend], 0
        yield EXPERIMENTS + ["cache", "prune", "--older-than", "3600",
                             "--cache-backend", backend], 0
        yield EXPERIMENTS + ["cache", "prune", "--json",
                             "--cache-backend", backend], 0

    yield CHECK + ["fuzz", "--seed", "1", "--count", "25",
                   "--out", at("fuzz-repros")], 0
    yield CHECK + ["run", FIG08], 0
    yield CHECK + ["diff", FIG08], 0
    yield CHECK + ["diff-jobs", FIG08, "--jobs-b", "2", "--points", "2"], 0
    yield CHECK + ["diff-backends", FIG08, "--out", at("agreement.json")], 0

    yield PERF + ["run", "--list"], 0
    yield PERF + ["run", "--out", at("bench.json")], 0
    yield PERF + ["compare", os.path.join(ROOT, "BENCH_22.json"),
                  at("bench.json")], 0
    yield PERF + ["profile", "--bench", "queue_taq_saturation",
                  "--out", at("profile-bench")], 0
    yield PERF + ["profile", "--scenario", FIG08,
                  "--out", at("profile-scenario")], 0

    spans = at("span-bundle", "spans.jsonl")
    bundle = at("bundles", FIG08_NAME)
    yield OBS + ["flows", spans], 0
    yield OBS + ["timeline", spans, "--worst"], 0
    yield OBS + ["critical-path", spans, "--worst"], 0
    yield OBS + ["tail", at("bus"), "--once"], 0
    yield OBS + ["export", bundle, "--out", at("bundle.om")], 0
    yield OBS + ["stability", at("fluid-bundles", FIG08_NAME)], 0
    yield OBS + ["stability", at("red.json")], 0  # Reynier's condition is RED's
    yield OBS + ["snapshot", at("telemetry"), "--out", at("behavior.json")], 0
    behavior = os.path.join(ROOT, "BEHAVIOR_fig02.json")
    yield OBS + ["diff", behavior, at("telemetry")], 0
    yield OBS + ["diff", behavior, at("behavior.json"), "--markdown",
                 "--show-ok", "--tolerance", "bottleneck.*=0.01"], 0
    yield OBS + ["diff", at("bundles"), at("fluid-bundles")], 1  # they differ
    yield [PYTHON, "-m", "repro.obs.report", bundle], 0
    yield [PYTHON, "-m", "repro.obs.report", bundle, "--format", "json"], 0
    yield [PYTHON, "-m", "repro.obs.export", bundle], 0
    yield [PYTHON, "-m", "repro.obs.export", "--validate", at("bundle.om")], 0

    for workload in ("spk_bulk_taq", "spk_bulk_droptail", "web_churn_taq_ac",
                     "sweep_resume"):
        for trace in ("0", "1"):
            yield LEDGER + ["--workload", workload, "--seed", "1", "--smoke",
                            "--trace", trace], 0


def _run(argv: List[str], expected: int, env: Dict[str, str], work: str,
         failures: List[str]) -> None:
    done = subprocess.run(argv, env=env, cwd=work, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != expected:
        failures.append(f"{' '.join(argv)} exited {done.returncode}, "
                        f"expected {expected}:\n{done.stdout[-2000:]}")


def _serve_round_trip(env: Dict[str, str], work: str,
                      failures: List[str]) -> None:
    """``taq-serve``: submit -> healthz -> status until done -> metrics ->
    results, against a real server process on an ephemeral port; then the
    server as the ``http://`` result store of a sweep."""
    server = subprocess.Popen(
        [PYTHON, "-u", "-m", "repro.parallel.service", "--port", "0",
         "--jobs", "1", "--root", os.path.join(work, "serve")],
        env=env, cwd=work, stdout=subprocess.PIPE, text=True)
    try:
        url = server.stdout.readline().split()[1]

        def call(path: str, payload: Optional[dict] = None) -> bytes:
            data = None if payload is None else json.dumps(payload).encode()
            with urllib.request.urlopen(
                    urllib.request.Request(url + path, data=data),
                    timeout=30) as response:
                return response.read()

        point = {"fn": "repro.experiments.sweeps:run_sweep_point",
                 "kwargs": {"kind": "taq", "capacity_bps": 200_000.0,
                            "fair_share_bps": 10_000.0, "duration": 20.0}}
        assert json.loads(call("/submit", {"points": [point]}))["submitted"] == 1
        assert call("/healthz?plain=1") == b"ok"
        deadline = time.time() + 120
        while json.loads(call("/healthz"))["jobs"].get("done") != 1:
            assert time.time() < deadline, "the submitted point never finished"
            time.sleep(0.2)
        assert json.loads(call("/status"))["jobs"][0]["state"] == "done"
        assert b"taq_jobs" in call("/metrics")
        (result,) = json.loads(call("/results"))["done"]
        assert call("/cache/" + result["id"])
        call("/cancel", {})
        for command in (["fig02", "--jobs", "1"], ["cache", "stats"],
                        ["cache", "prune", "--older-than", "3600"]):
            _run(EXPERIMENTS + command + ["--cache-backend", url], 0, env,
                 work, failures)
    finally:
        server.terminate()
        server.wait(timeout=30)


def drive(work: str) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every entry point under the hook; return the ``(path, first
    line)`` of every function under ``src/repro`` that any of them entered,
    and one message per command that did not exit as it should."""
    hook_dir = os.path.join(work, "hook")
    seen_dir = os.path.join(work, "seen")
    for folder in (hook_dir, seen_dir):
        os.makedirs(folder)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w",
              encoding="utf-8") as handle:
        handle.write(HOOK)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([hook_dir, os.path.dirname(SRC)]),
        REACHABILITY_SRC=SRC,
        REACHABILITY_OUT=seen_dir,
        REPRO_CACHE_DIR=os.path.join(work, "cache"),
    )
    for name in ("REPRO_CACHE_BACKEND", "TAQ_JOB_STORE", "TAQ_OBS_BUS"):
        env.pop(name, None)
    with open(os.path.join(work, "red.json"), "w", encoding="utf-8") as handle:
        json.dump(RED_DOCUMENT, handle)
    failures: List[str] = []
    for argv, expected in _commands(work):
        _run(argv, expected, env, work, failures)
    _serve_round_trip(env, work, failures)
    seen: Set[Tuple[str, int]] = set()
    for name in os.listdir(seen_dir):
        with open(os.path.join(seen_dir, name), encoding="utf-8") as handle:
            for line in handle:
                path, _, first_line = line.strip().rpartition(":")
                seen.add((path, int(first_line)))
    return seen, failures


@pytest.mark.slow
def test_entry_points_reach_everything(tmp_path_factory):
    seen, failures = drive(str(tmp_path_factory.mktemp("reachability")))
    functions = [d for d in definitions() if not d.is_class]
    # By name: a property's getter and setter share one, and either counts.
    entered = {d.name for d in functions if (d.path, d.first_line) in seen}
    unreached = sorted({d.name for d in functions} - entered)
    report = tmp_path_factory.getbasetemp() / "unreached.txt"
    report.write_text("".join(
        f"{name}\t{KEPT.get(name, 'NOT IN KEPT')}\n" for name in unreached))
    assert not failures, "\n\n".join(failures)
    loose = [name for name in unreached if name not in KEPT]
    assert loose == [], (
        f"entered by no shipped entry point (full list in {report}): delete "
        "each with its tests, or add it to KEPT with the reason it stays")
