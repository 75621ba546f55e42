"""Declarative scenario runner — a thin wrapper over :mod:`repro.build`.

Experiments in this repository are Python modules, but exploring the
parameter space should not require writing code: a *scenario* is a JSON
document naming a topology, a queue discipline, workloads and a
duration.  :class:`repro.build.ScenarioSpec` validates the document
(strictly: unknown keys and kinds are rejected with did-you-mean
suggestions), :func:`repro.build.build_simulation` constructs the run,
and :func:`run_scenario` reduces it to the standard metric set.
``taq-experiments scenario path.json ...`` runs documents from the
shell; ``examples/scenarios/`` ships ready-made ones per figure.

Schema (all sizes in base units: bps, seconds, bytes)::

    {
      "name": "my-scenario",
      "seed": 1,
      "duration": 120,
      "topology": {"type": "dumbbell" | "testbed" | "overlay",
                   "capacity_bps": 600000, "rtt": 0.2,
                   ... type-specific extras (e.g. "underlay_loss") ...},
      "queue": {"kind": "droptail" | "red" | "sfq" | "taq" | "taq+ac"
                        | "favorqueue" | any registered kind,
                "buffer_rtts": 1.0, ... kind-specific knobs ...},
      "workloads": [
        {"type": "bulk", "n_flows": 100, "size_segments": null,
         "variant": "newreno"},
        {"type": "web", "n_users": 20, "objects_per_user": 10,
         "object_bytes": 20000, "connections": 4},
        {"type": "short", "lengths": [2, 10, 40], "start_time": 20.0},
        ... or "trace" / "web-bands" / "flow-pools" / "tfrc" ...
      ],
      "metrics": {"slice_seconds": 20.0},
      "plugins": ["my.out_of_tree.module"]
    }

The registries are open: a ``"plugins"`` list of importable modules
brings out-of-tree disciplines/topologies/workloads into scope, so new
kinds run from JSON without editing this repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Union

from repro.build import ScenarioSpec, build_simulation
from repro.experiments.runner import TableResult


@dataclass
class ScenarioOutcome:
    """Metrics produced by one scenario run."""

    name: str
    duration: float
    short_term_jain: float
    long_term_jain: float
    utilization: float
    loss_rate: float
    timeouts: int
    completed_transfers: int
    total_transfers: int
    extras: Dict[str, Any] = field(default_factory=dict)

    def table(self) -> TableResult:
        table = TableResult(
            title=f"Scenario: {self.name}",
            headers=("metric", "value"),
        )
        table.add("duration_s", self.duration)
        table.add("short_term_jain", self.short_term_jain)
        table.add("long_term_jain", self.long_term_jain)
        table.add("utilization", self.utilization)
        table.add("loss_rate", self.loss_rate)
        table.add("timeouts", self.timeouts)
        table.add("completed_transfers", self.completed_transfers)
        table.add("total_transfers", self.total_transfers)
        for key, value in self.extras.items():
            table.add(key, value)
        return table

    def __str__(self) -> str:
        return str(self.table())


def run_scenario(document: Union[Dict[str, Any], ScenarioSpec]) -> ScenarioOutcome:
    """Execute a scenario document (or a pre-built spec) and return its
    metrics."""
    spec = (
        document
        if isinstance(document, ScenarioSpec)
        else ScenarioSpec.from_document(document)
    )
    built = build_simulation(spec)
    if hasattr(built, "scenario_outcome"):
        # Non-packet backends (the fluid integrator) reduce themselves
        # to the standard metric set.
        built.run()
        return built.scenario_outcome()
    built.run()
    return _packet_outcome(spec, built)


def _packet_outcome(spec: ScenarioSpec, built) -> ScenarioOutcome:
    """Reduce a finished packet-backend run to the standard metric set."""
    all_flows = built.all_flows()
    flow_ids = [f.flow_id for f in all_flows]
    sized = [f for f in all_flows if f.size_segments is not None]
    outcome = ScenarioOutcome(
        name=spec.name,
        duration=spec.duration,
        short_term_jain=built.collector.mean_short_term_jain(flow_ids),
        long_term_jain=built.collector.long_term_jain(flow_ids),
        utilization=built.topology.forward.stats.utilization(
            spec.topology.capacity_bps, spec.duration
        ),
        loss_rate=built.queue.loss_rate(),
        timeouts=sum(f.sender.stats.timeouts for f in all_flows),
        completed_transfers=sum(1 for f in sized if f.done),
        total_transfers=len(sized),
    )
    users = built.users
    if users:
        samples = [s.duration for user in users for s in user.samples]
        if samples:
            ordered = sorted(samples)
            outcome.extras["web_objects_completed"] = len(samples)
            outcome.extras["web_median_download_s"] = ordered[len(ordered) // 2]
            outcome.extras["web_worst_download_s"] = ordered[-1]
    if hasattr(built.queue, "admission_refusals"):
        outcome.extras["admission_refusals"] = built.queue.admission_refusals
    return outcome


def run_scenario_with_telemetry(
    document: Union[Dict[str, Any], ScenarioSpec], telemetry
) -> ScenarioOutcome:
    """Run a scenario armed with *telemetry* (a :class:`repro.obs.Telemetry`;
    the bundle lands in its ``out_dir``, with ``spans.jsonl`` when it
    carries a span recorder).

    Works on both engines: a packet run gets the arming sweep points
    use (:meth:`repro.obs.Telemetry.arm`), a fluid run gets
    :func:`repro.fluid.probe.instrument_fluid` (per-step queue
    occupancy, drop rates, validity clips, the stability verdict).  The
    final :class:`ScenarioOutcome` scalars are also recorded as
    one-sample ``outcome.<metric>`` series, so two bundles diff on the
    headline numbers as well as the raw counters — this is what
    ``taq-obs diff`` consumes and what CI's behavioral baseline is
    built from.
    """
    from repro.build.harness import manifest_payloads

    spec = (
        document
        if isinstance(document, ScenarioSpec)
        else ScenarioSpec.from_document(document)
    )
    built = build_simulation(spec)
    if getattr(built, "backend", "packet") == "fluid":
        from repro.fluid.probe import instrument_fluid

        instrument_fluid(telemetry, built)
        built.run()
        outcome = built.scenario_outcome()
        sim = None
    else:
        telemetry.arm(built)
        built.run()
        outcome = _packet_outcome(spec, built)
        sim = built.sim
    for name in ("short_term_jain", "long_term_jain", "utilization",
                 "loss_rate", "timeouts"):
        series = telemetry.registry.time_series(f"outcome.{name}")
        series.append(outcome.duration, float(getattr(outcome, name)))
    for key, value in outcome.extras.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            series = telemetry.registry.time_series(f"outcome.{key}")
            series.append(outcome.duration, float(value))
    telemetry.finalize(
        sim,
        run_id=spec.name,
        seed=spec.seed,
        duration=spec.duration,
        **manifest_payloads(spec),
    )
    return outcome
