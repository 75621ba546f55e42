"""Traffic fence: how many events the shipped scenarios hold at once.

The event store is one sorted list because every shipped run holds a few
hundred live events.  This is the measurement behind that choice, kept
runnable: the day a scenario crosses the crossover, it fails here first.
"""

import os

import pytest

from repro.build import ScenarioSpec
from repro.experiments import fig02_fairness_droptail as fig02
from repro.experiments.scenario import run_scenario
from repro.experiments.sweeps import sweep_point_scenario
from repro.sim.observe import Observer, ambient, subscribe
from tests.experiments.test_scenario import SHIPPED

CROSSOVER = 2000


class PeakPopulation(Observer):
    """Largest ``len(sim.events)`` seen at any event boundary."""

    def __init__(self):
        self.peak = 0

    def arm(self, built):
        subscribe(built.sim, self)

    def event(self, sim, event, now):
        self.peak = max(self.peak, len(sim.events))


def _fig02_densest_point():
    config = fig02.Config()
    return sweep_point_scenario(
        config.queue_kind, max(config.capacities_bps), min(config.fair_shares_bps),
        duration=config.duration, rtt=config.rtt,
        slice_seconds=config.slice_seconds, seed=config.seed,
    )


def _shipped(name):
    return lambda: ScenarioSpec.from_file(os.path.join(SHIPPED, name))


@pytest.mark.slow
@pytest.mark.parametrize(
    "scenario",
    [pytest.param(_shipped(name), id=name) for name in sorted(os.listdir(SHIPPED))]
    + [pytest.param(_fig02_densest_point, id="fig02-densest-point")],
)
def test_live_event_population_stays_where_the_sorted_list_wins(scenario):
    with ambient(PeakPopulation()) as population:
        run_scenario(scenario())
    assert 0 < population.peak < CROSSOVER, (
        f"peak of {population.peak} live events: past ~2 000 live events a tuple "
        "heap beats the sorted list (docs/architecture.md, *The event store*): "
        "revisit the store before shipping this scenario"
    )
