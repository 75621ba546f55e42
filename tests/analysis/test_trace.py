"""Tests for the packet trace recorder and persistence."""

import io

from repro.analysis import PacketTraceRecorder, TraceRecord, load_trace, save_trace
from repro.net.packet import ACK, DATA, Packet


def data(flow=1, seq=0, retransmit=False):
    return Packet(flow, DATA, seq=seq, size=500, is_retransmit=retransmit)


def test_records_data_packets_by_default():
    recorder = PacketTraceRecorder()
    recorder.observe(data(seq=0), 1.0)
    recorder.observe(Packet(1, ACK, ack_seq=1), 1.1)
    recorder.observe(data(seq=1, retransmit=True), 2.0)
    assert len(recorder) == 2
    assert recorder.records[0] == TraceRecord(1.0, 1, DATA, 0, 500, False)
    assert recorder.records[1].retransmit


def test_kind_filter_and_predicate():
    recorder = PacketTraceRecorder(
        kinds=(DATA, ACK), predicate=lambda p, now: p.flow_id == 2
    )
    recorder.observe(data(flow=1), 0.0)
    recorder.observe(data(flow=2), 0.0)
    recorder.observe(Packet(2, ACK, ack_seq=1), 0.1)
    assert len(recorder) == 2
    assert all(r.flow_id == 2 for r in recorder.records)


def test_limit_truncates():
    recorder = PacketTraceRecorder(limit=3)
    for i in range(5):
        recorder.observe(data(seq=i), float(i))
    assert len(recorder) == 3
    assert recorder.truncated


def test_flows_listing():
    recorder = PacketTraceRecorder()
    for flow in (3, 1, 3, 2):
        recorder.observe(data(flow=flow), 0.0)
    assert recorder.flows() == [1, 2, 3]


def test_save_load_round_trip():
    recorder = PacketTraceRecorder()
    for i in range(10):
        recorder.observe(data(seq=i, retransmit=i % 3 == 0), i * 0.1)
    buffer = io.StringIO()
    written = save_trace(recorder.records, buffer)
    assert written == 10
    buffer.seek(0)
    loaded = load_trace(buffer)
    assert loaded == recorder.records


def test_load_skips_blank_lines():
    buffer = io.StringIO(
        '{"time":1.0,"flow_id":1,"kind":"data","seq":0,"size":500,"retransmit":false}\n'
        "\n"
    )
    assert len(load_trace(buffer)) == 1


def test_observe_drop_marks_record_dropped():
    recorder = PacketTraceRecorder()
    recorder.observe(data(seq=0), 1.0)
    recorder.dropped(None, data(seq=1), 2.0)
    assert [r.dropped for r in recorder.records] == [False, True]


def test_dropped_field_round_trips():
    recorder = PacketTraceRecorder()
    recorder.observe(data(seq=0), 1.0)
    recorder.dropped(None, data(seq=1), 2.0)
    buffer = io.StringIO()
    save_trace(recorder.records, buffer)
    buffer.seek(0)
    assert load_trace(buffer) == recorder.records


def test_load_pre_drop_tap_trace_defaults_dropped_false():
    # JSONL written before the dropped field existed must still load.
    buffer = io.StringIO(
        '{"time":1.0,"flow_id":1,"kind":"data","seq":0,"size":500,"retransmit":false}\n'
    )
    records = load_trace(buffer)
    assert records == [TraceRecord(1.0, 1, DATA, 0, 500, False)]
    assert records[0].dropped is False


def test_drop_tap_on_queue():
    from repro.queues import DropTailQueue
    from repro.sim.observe import subscribe

    queue = DropTailQueue(2)
    recorder = PacketTraceRecorder()
    subscribe(queue, recorder)
    for seq in range(4):
        queue.enqueue(data(seq=seq), 0.1 * (seq + 1))
    assert len(recorder) == 2
    assert all(r.dropped for r in recorder.records)
    assert [r.seq for r in recorder.records] == [2, 3]


def test_live_tap_on_dumbbell():
    from repro.net.topology import Dumbbell
    from repro.sim.simulator import Simulator
    from repro.tcp.flow import TcpFlow

    sim = Simulator(seed=2)
    bell = Dumbbell(sim, 1_000_000, 0.1)
    recorder = PacketTraceRecorder()
    bell.forward.add_tap(recorder.observe)
    TcpFlow(bell, 1, size_segments=20)
    sim.run(until=30.0)
    assert len(recorder) >= 20
    times = [r.time for r in recorder.records]
    assert times == sorted(times)
