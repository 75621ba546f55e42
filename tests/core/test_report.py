"""Tests for the TAQ introspection report."""

import pytest

from repro.core import AdmissionController, TAQQueue, taq_report
from repro.core.scheduler import PacketClass
from repro.net.packet import DATA, SYN, Packet


def data(flow=1, seq=0, pool=-1):
    return Packet(flow, DATA, seq=seq, size=500, pool_id=pool)


def test_report_on_detached_queue_requires_now():
    queue = TAQQueue(capacity_pkts=10)
    with pytest.raises(ValueError):
        taq_report(queue)
    report = taq_report(queue, now=0.0)
    assert report.occupancy == 0
    assert report.capacity == 10


def test_report_counts_classes_and_flows():
    queue = TAQQueue(capacity_pkts=10, default_epoch=1.0)
    queue.enqueue(data(flow=1, seq=0), 0.0)
    queue.enqueue(data(flow=2, seq=0), 0.0)
    queue.enqueue(data(flow=1, seq=0), 1.0)  # retransmission
    report = taq_report(queue, now=1.0)
    assert report.tracked_flows == 2
    assert report.occupancy == 3
    assert report.classes[PacketClass.RECOVERY.value].buffered == 1
    assert sum(c.buffered for c in report.classes.values()) == 3


def test_report_service_share():
    queue = TAQQueue(capacity_pkts=10)
    for seq in range(4):
        queue.enqueue(data(seq=seq), 0.0)
    for _ in range(4):
        queue.dequeue(0.0)
    report = taq_report(queue, now=0.0)
    shares = [report.service_share(name) for name in report.classes]
    assert sum(shares) == pytest.approx(1.0)


def test_report_admission_section():
    ctrl = AdmissionController()
    queue = TAQQueue(capacity_pkts=10, admission=ctrl)
    queue.enqueue(Packet(1, SYN, pool_id=5), 0.0)
    report = taq_report(queue, now=0.0)
    assert report.admission_enabled
    assert report.admitted_pools == 1
    text = str(report)
    assert "admission:" in text
    assert "pools admitted" in text


def test_report_renders_without_admission():
    queue = TAQQueue(capacity_pkts=10)
    text = str(taq_report(queue, now=0.0))
    assert "admission: disabled" in text
    assert "TAQ report" in text


def test_report_from_live_run():
    from repro.build import build_simulation
    from repro.experiments.runner import dumbbell_spec
    from repro.workloads import spawn_bulk_flows

    bench = build_simulation(dumbbell_spec("taq", 600_000, rtt=0.2, seed=1))
    spawn_bulk_flows(bench.topology, 40, start_window=2.0, extra_rtt_max=0.1)
    bench.sim.run(until=30.0)
    report = taq_report(bench.queue)
    assert report.tracked_flows == 40
    assert report.active_flows >= 1
    assert report.loss_rate > 0.0
    assert sum(report.flow_states.values()) == 40
    assert report.service_share(PacketClass.RECOVERY.value) < 0.6
