"""Differential oracle tests: discipline arms and jobs arms."""

import pytest

from repro.build import build_simulation
from repro.check.differential import (
    compare_disciplines,
    compare_jobs,
    offered_load_signature,
    respec_queue,
    small_packet_regime,
)

from tests.check.conftest import make_spec

SMALL_PACKET = dict(
    topology={"type": "dumbbell", "capacity_bps": 100_000, "rtt": 0.2},
    workloads=[{"type": "bulk", "n_flows": 16}],
)


def test_respec_strips_kind_specific_parameters():
    spec = make_spec(queue={"kind": "taq+ac", "t_wait": 3.0, "buffer_rtts": 2.0})
    respecced = respec_queue(spec, "droptail")
    assert respecced.queue.kind == "droptail"
    assert respecced.queue.buffer_rtts == 2.0
    assert "t_wait" not in respecced.queue.params


def test_respec_forwards_caller_params():
    spec = make_spec()
    respecced = respec_queue(spec, "taq+ac", t_wait=3.0)
    assert respecced.queue.kind == "taq+ac"
    assert respecced.queue.params["t_wait"] == 3.0


def test_offered_load_signature_is_discipline_independent():
    spec = make_spec(workloads=[
        {"type": "bulk", "n_flows": 5},
        {"type": "web", "n_users": 2, "objects_per_user": 2,
         "object_bytes": 8_000, "connections": 2},
    ])
    signatures = [
        offered_load_signature(build_simulation(respec_queue(spec, kind)))
        for kind in ("droptail", "red", "sfq", "taq")
    ]
    assert all(sig == signatures[0] for sig in signatures)
    assert len(signatures[0]) == 5 + 2  # flows + users


def test_small_packet_regime_classification():
    assert small_packet_regime(make_spec(**SMALL_PACKET))
    roomy = make_spec(
        topology={"type": "dumbbell", "capacity_bps": 10_000_000, "rtt": 0.1},
        workloads=[{"type": "bulk", "n_flows": 2}],
    )
    assert not small_packet_regime(roomy)


def test_compare_disciplines_small_packet_all_relations_hold():
    report = compare_disciplines(make_spec(**SMALL_PACKET))
    names = [r.name for r in report.relations]
    assert "offered-load-identical" in names
    assert "goodput-under-capacity[droptail]" in names
    assert "goodput-under-capacity[taq]" in names
    assert "taq-extra-drops-buy-fairness" in names  # regime gate engaged
    assert report.ok, report.to_document()
    assert report.violations == []


def test_drop_relation_gated_out_for_non_taq_candidate():
    report = compare_disciplines(make_spec(**SMALL_PACKET), candidate="red")
    assert "taq-extra-drops-buy-fairness" not in [r.name for r in report.relations]
    assert report.ok


def test_drop_relation_gated_out_outside_small_packet_regime():
    roomy = make_spec(
        topology={"type": "dumbbell", "capacity_bps": 10_000_000, "rtt": 0.1},
        workloads=[{"type": "bulk", "n_flows": 2}],
    )
    report = compare_disciplines(roomy)
    assert "taq-extra-drops-buy-fairness" not in [r.name for r in report.relations]


def test_drop_relation_forced_on_records_outcome():
    report = compare_disciplines(
        make_spec(**SMALL_PACKET), drop_relation=True
    )
    relation = next(r for r in report.relations if r.name == "taq-extra-drops-buy-fairness")
    assert "dropped" in relation.detail
    # Forced onto a pair whose extra drops buy nothing, it fails: over
    # 40 s DropTail drops more than RED here and is less fair.
    longer = make_spec(**SMALL_PACKET, duration=40.0,
                       metrics={"slice_seconds": 10.0})
    report = compare_disciplines(longer, baseline="red", candidate="droptail",
                                 drop_relation=True, monitors=False)
    assert [r.name for r in report.failures] == ["taq-extra-drops-buy-fairness"]


def test_report_failure_surface():
    report = compare_disciplines(make_spec(**SMALL_PACKET))
    report.check("synthetic", False, "injected failure")
    assert not report.ok
    assert [r.name for r in report.failures] == ["synthetic"]
    document = report.to_document()
    assert document["ok"] is False
    assert document["arms"] == ["droptail", "taq"]


@pytest.mark.parametrize("jobs_b", [2, 3])
def test_jobs_levels_are_bit_identical(jobs_b):
    report = compare_jobs(make_spec(), jobs_a=1, jobs_b=jobs_b, points=3)
    assert len(report.relations) == 3
    assert report.ok, report.to_document()
