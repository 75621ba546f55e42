"""Unit tests for the experiment plumbing (runner, sweeps, tables)."""

import pytest

from repro.build import build_queue, build_simulation
from repro.core import TAQQueue
from repro.experiments.runner import TableResult, dumbbell_spec
from repro.experiments.sweeps import flows_for_fair_share, run_sweep_point
from repro.queues import DropTailQueue, REDQueue, SFQQueue
from repro.sim.simulator import Simulator


def test_make_queue_all_kinds():
    sim = Simulator()
    assert isinstance(build_queue("droptail", sim, 1e6, 0.2), DropTailQueue)
    assert isinstance(build_queue("red", sim, 1e6, 0.2), REDQueue)
    assert isinstance(build_queue("sfq", sim, 1e6, 0.2), SFQQueue)
    assert isinstance(build_queue("taq", sim, 1e6, 0.2), TAQQueue)
    taq_ac = build_queue("taq+ac", sim, 1e6, 0.2)
    assert isinstance(taq_ac, TAQQueue)
    assert taq_ac.admission is not None


def test_make_queue_unknown_kind():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_queue("cake", sim, 1e6, 0.2)


def test_make_queue_buffer_sizing():
    sim = Simulator()
    queue = build_queue("droptail", sim, 1_000_000, 0.2, buffer_rtts=2.0)
    assert queue.capacity_pkts == 100


def test_build_dumbbell_wires_taq_reverse_tap():
    built = build_simulation(dumbbell_spec("taq", 1_000_000, rtt=0.2))
    assert len(built.topology.reverse._taps) == 1


def test_build_dumbbell_wires_collector():
    built = build_simulation(dumbbell_spec("droptail", 1_000_000, rtt=0.2))
    assert len(built.topology.forward._delivery_taps) == 1


def test_flows_for_fair_share():
    assert flows_for_fair_share(1_000_000, 10_000) == 100
    assert flows_for_fair_share(1_000, 1e9) == 2  # floor of 2 flows


def test_run_sweep_point_smoke():
    point = run_sweep_point("droptail", 400_000, 20_000, duration=30.0)
    assert point.n_flows == 20
    assert 0.0 < point.short_term_jain <= 1.0
    assert point.utilization > 0.5
    assert point.packets_per_rtt == pytest.approx(1.0)


def test_table_result_rendering_and_columns():
    table = TableResult("Title", headers=("a", "b"))
    table.add(1, 2.5)
    table.add(3, 4.0)
    table.notes.append("a note")
    text = str(table)
    assert "Title" in text
    assert "# a note" in text
    assert [row[0] for row in table.rows] == [1, 3]


def test_table_result_rejects_ragged_rows():
    table = TableResult("T", headers=("a", "b"))
    with pytest.raises(ValueError):
        table.add(1)
