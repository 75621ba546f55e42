"""Fluid telemetry probes: armed runs must be bit-identical to unarmed."""

from __future__ import annotations

import pytest

from repro.build import ScenarioSpec, build_simulation
from repro.fluid.probe import FluidProbe, fluid_results_differ, instrument_fluid
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.sim.observe import subscribe


def _spec(n_flows: int, queue=None) -> ScenarioSpec:
    return ScenarioSpec.from_document({
        "name": f"probe-n{n_flows}",
        "seed": 1,
        "duration": 20,
        "topology": {"type": "dumbbell", "capacity_bps": 600_000,
                     "rtt": 0.2, "pkt_size": 500},
        "queue": queue or {"kind": "red", "buffer_rtts": 1.0},
        "workloads": [{"type": "bulk", "n_flows": n_flows}],
        "backend": {"kind": "fluid"},
    })


@pytest.mark.parametrize("n_flows", [4, 16, 64])
def test_armed_run_is_bit_identical(n_flows):
    """The acceptance grid: arming probes must not change a single bit
    of the result, at small, medium and large populations."""
    spec = _spec(n_flows)
    unarmed = build_simulation(spec)
    unarmed.run()

    armed = build_simulation(spec)
    probe = FluidProbe(MetricsRegistry())
    subscribe(armed.model, probe)
    armed.run()

    assert fluid_results_differ(unarmed.result, armed.result) == []
    # And the probe actually observed the run.
    assert probe.registry.counters["fluid.steps"].value == armed.model.steps


@pytest.mark.parametrize("kind", ["droptail", "taq", "taq+ac"])
def test_parity_across_disciplines(kind):
    spec = _spec(16, queue={"kind": kind, "buffer_rtts": 1.0})
    unarmed = build_simulation(spec)
    unarmed.run()
    armed = build_simulation(spec)
    subscribe(armed.model, FluidProbe(MetricsRegistry()))
    armed.run()
    assert fluid_results_differ(unarmed.result, armed.result) == []


def test_probe_records_queue_series_and_per_class_metrics():
    spec = _spec(8)
    built = build_simulation(spec)
    registry = MetricsRegistry()
    subscribe(built.model, FluidProbe(registry, sample_stride=4))
    built.run()
    queue = registry.series["fluid.queue_pkts"]
    assert queue.samples, "queue occupancy series must be populated"
    # Stride 4 thins the series to ~steps/4 samples.
    assert len(queue.samples) <= built.model.steps // 4 + 1
    drop_names = [n for n in registry.series if n.startswith("fluid.drop_pps.")]
    mass_names = [n for n in registry.series if n.startswith("fluid.mass.")]
    assert drop_names and mass_names
    assert registry.counters["fluid.steps"].value == built.model.steps


def test_instrument_fluid_imports_totals_and_stability(tmp_path):
    spec = _spec(16)
    built = build_simulation(spec)
    telemetry = Telemetry(str(tmp_path / "bundle"), sample_interval=0.5)
    probe = instrument_fluid(telemetry, built)
    assert built.model.obs is probe
    # Stride derives from sample_interval on the integrator clock.
    assert probe.sample_stride == max(1, round(0.5 / built.model.dt))
    built.run()
    telemetry.finalize(None, run_id="probe", seed=1, duration=spec.duration)
    counters = telemetry.registry.counters
    assert counters["fluid.offered_pkts"].value > 0
    assert counters["fluid.delivered_pkts"].value > 0
    assert counters["fluid.valid"].value == 1
    assert "fluid.stability.limit_cycle" in counters
    assert telemetry.registry.series["fluid.stability.amplitude_pkts"].samples


def test_admission_iterations_surface_for_taq_ac():
    spec = _spec(64, queue={"kind": "taq+ac", "buffer_rtts": 1.0})
    built = build_simulation(spec)
    assert built.admission_iterations >= 1
    assert 0.0 < built.admission_alpha <= 1.0


def test_probe_rejects_bad_stride():
    with pytest.raises(ValueError):
        FluidProbe(MetricsRegistry(), sample_stride=0)
