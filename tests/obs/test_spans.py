"""The span flight recorder: hooks, causal links, persistence.

Unit layer drives :class:`SpanRecorder`'s seam events directly with real
:class:`Packet` objects and stub components (no simulator), pinning the
causal-link rules:
a retransmission's ``cause`` is the dropped segment's span, an RTO
stall spans the silence since the flow's last activity, a refused SYN
marks the following ``syn_wait`` as an admission wait.  The
integration layer runs a small congested scenario under ``recording()``
and checks the trace holds a coherent story end to end.  Persistence
tests pin the schema-versioning contract: pre-schema files load,
unknown kinds/fields ride through, newer versions refuse.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro.build import ScenarioSpec, build_simulation
from repro.net.packet import Packet
from repro.obs.streamstats import StreamingFlowStats
from repro.sim.observe import subscribers
from repro.obs.spans import (
    SPANS_SCHEMA_VERSION,
    Span,
    SpanRecorder,
    load_spans,
    recording,
    save_spans,
)


def _sender(flow_id, snd_una=0, backoff=0, rto=1.0, syn_sent_at=0.0, retries=0):
    """What the recorder reads off a TCPSender, and nothing else."""
    return SimpleNamespace(
        flow_id=flow_id, snd_una=snd_una, syn_sent_at=syn_sent_at,
        rto=SimpleNamespace(backoff_exponent=backoff, rto=rto),
        stats=SimpleNamespace(syn_retries=retries),
    )


def _link(name, last=True):
    return SimpleNamespace(name=name, next_link=None if last else object())


def _taq(recent_drops):
    record = SimpleNamespace(recent_drops=lambda: recent_drops)
    return SimpleNamespace(tracker=SimpleNamespace(lookup=lambda flow_id: record))


def _span(recorder, span_id):
    return next(s for s in recorder.spans if s.id == span_id)


#: The recorder's per-flow working state, all keyed by flow id.
WORKING_TABLES = ("_flow_spans", "_last_activity", "_recovery", "_last_drop",
                  "_last_flow_drop", "_last_syn", "_last_delivery")


def _by_kind(recorder, kind):
    return [s for s in recorder.spans if s.kind == kind]


# ----------------------------------------------------------------------
# Recorder hook semantics
# ----------------------------------------------------------------------
class TestRecorderHooks:
    def test_flow_span_opens_on_first_syn_and_closes_on_done(self):
        rec = SpanRecorder()
        rec.sent(None, Packet(7, "syn"), 1.0)
        (flow,) = _by_kind(rec, "flow")
        assert flow.t0 == 1.0 and flow.t1 is None
        rec.flow_done(_sender(7), 9.5)
        assert flow.t1 is None  # a span is a value built on read,
        (flow,) = _by_kind(rec, "flow")  # so read again
        assert flow.t1 == 9.5
        assert flow.fields["outcome"] == "done"
        assert flow.duration == pytest.approx(8.5)

    def test_pkt_span_parent_is_flow_span(self):
        rec = SpanRecorder()
        pkt = Packet(3, "data", seq=4, size=200)
        rec.sent(None, pkt, 2.0)
        (flow,) = _by_kind(rec, "flow")
        (span,) = _by_kind(rec, "pkt")
        assert span.parent == flow.id
        assert span.fields["seq"] == 4
        assert pkt.span_id == span.id
        assert span.stages == [["created", 2.0]]

    def test_retransmit_cause_links_to_the_drop(self):
        rec = SpanRecorder()
        first = Packet(3, "data", seq=4, size=200)
        rec.sent(None, first, 1.0)
        rec.dropped(None, first, 1.5)
        dropped = _span(rec, first.span_id)
        assert dropped.fields["outcome"] == "dropped"
        assert dropped.stages[-1] == ["drop", 1.5]

        rtx = Packet(3, "data", seq=4, size=200, is_retransmit=True)
        rec.sent(None, rtx, 2.0)
        rtx_span = _span(rec, rtx.span_id)
        assert rtx_span.cause == dropped.id
        assert rtx_span.fields["rtx"] is True

    def test_retransmit_without_seen_drop_falls_back_to_recovery(self):
        rec = SpanRecorder()
        rec.sent(None, Packet(3, "data", seq=0, size=200), 1.0)
        rec.rto(_sender(3, snd_una=0, backoff=1, rto=3.0), 4.0)
        (rto,) = _by_kind(rec, "rto")
        rtx = Packet(3, "data", seq=5, size=200, is_retransmit=True)
        rec.sent(None, rtx, 4.0)  # seq 5 never dropped under our eyes
        assert _span(rec, rtx.span_id).cause == rto.id

    def test_rto_stall_spans_the_silence(self):
        rec = SpanRecorder()
        pkt = Packet(3, "data", seq=0, size=200)
        rec.sent(None, pkt, 1.0)
        rec.dropped(None, pkt, 1.4)  # last activity
        rec.rto(_sender(3, snd_una=0, backoff=2, rto=3.0), 4.4)
        (rto,) = _by_kind(rec, "rto")
        assert rto.t0 == 1.4 and rto.t1 == 4.4
        assert rto.fields["stall"] == pytest.approx(3.0)
        assert rto.fields["backoff"] == 2
        assert rto.cause == pkt.span_id

    def test_refused_syn_marks_the_syn_wait_as_admission(self):
        rec = SpanRecorder()
        syn = Packet(9, "syn")
        rec.sent(None, syn, 0.0)
        rec.refused(None, syn, 0.01)
        rec.dropped(None, syn, 0.01)
        rec.syn_retry(_sender(9, syn_sent_at=0.0, retries=1), 3.0)
        (wait,) = _by_kind(rec, "syn_wait")
        assert wait.fields.get("refused") is True
        assert wait.t0 == 0.0 and wait.t1 == 3.0
        assert wait.cause == syn.span_id

    def test_lost_syn_wait_is_not_marked_refused(self):
        rec = SpanRecorder()
        rec.sent(None, Packet(9, "syn"), 0.0)
        rec.syn_retry(_sender(9, syn_sent_at=0.0, retries=1), 3.0)
        (wait,) = _by_kind(rec, "syn_wait")
        assert "refused" not in wait.fields

    def test_link_stages_record_the_packet_lifecycle(self):
        rec = SpanRecorder()
        pkt = Packet(5, "data", seq=0, size=200)
        rec.sent(None, pkt, 1.0)
        pkt.enqueued_at = 1.0
        rec.enqueued(_link("forward"), pkt, 1.0)
        rec.tx(_link("forward"), pkt, 1.2)
        rec.delivered(_link("forward"), pkt, 1.3)
        span = _span(rec, pkt.span_id)
        assert span.stages == [
            ["created", 1.0], ["enq", 1.0, "forward"],
            ["tx", 1.2, "forward"], ["deliv", 1.3],
        ]
        assert span.fields["outcome"] == "delivered"

    def test_a_chained_link_delivery_is_a_hop(self):
        rec = SpanRecorder()
        pkt = Packet(5, "data", seq=0, size=200)
        rec.sent(None, pkt, 1.0)
        rec.delivered(_link("lan", last=False), pkt, 1.1)
        span = _span(rec, pkt.span_id)
        assert span.stages[-1] == ["hop", 1.1] and span.t1 is None

    def test_ack_enters_the_record_at_its_first_link(self):
        # ACKs are born in the receiver, not under a sender hook.
        rec = SpanRecorder()
        ack = Packet(5, "ack", ack_seq=3)
        rec.enqueued(_link("reverse"), ack, 2.0)
        span = _span(rec, ack.span_id)
        assert span.fields["pkt"] == "ack"
        assert span.stages == [["enq", 2.0, "reverse"]]

    def test_penalty_span_links_to_latest_drop(self):
        rec = SpanRecorder()
        pkt = Packet(4, "data", seq=1, size=200)
        rec.sent(None, pkt, 1.0)
        rec.dropped(None, pkt, 1.1)
        rec.penalized(_taq(3), Packet(4, "data", seq=2, size=200), 1.5)
        (penalty,) = _by_kind(rec, "penalty")
        assert penalty.cause == pkt.span_id
        assert penalty.fields["recent_drops"] == 3

    def test_truncation_stops_new_spans_but_not_stage_appends(self):
        rec = SpanRecorder(limit=2)
        pkt = Packet(1, "data", seq=0, size=200)
        rec.sent(None, pkt, 0.0)  # flow span + pkt span = limit
        assert len(rec.spans) == 2 and not rec.truncated
        rec.sent(None, Packet(1, "data", seq=1, size=200), 0.1)
        assert len(rec.spans) == 2 and rec.truncated
        # The already-created span still completes its lifecycle.
        rec.delivered(_link("forward"), pkt, 0.3)
        assert _span(rec, pkt.span_id).fields["outcome"] == "delivered"

    def test_flow_done_drops_per_flow_working_state(self):
        rec = SpanRecorder()
        pkt = Packet(2, "data", seq=0, size=200)
        rec.sent(None, pkt, 0.0)
        rec.dropped(None, pkt, 0.1)
        rec.rto(_sender(2, snd_una=0, backoff=1, rto=1.0), 1.0)
        rec.flow_done(_sender(2), 2.0)
        assert 2 not in rec._recovery
        assert 2 not in rec._last_activity
        assert 2 not in rec._last_flow_drop

    def test_late_packets_of_a_finished_flow_do_not_bring_its_state_back(self):
        # The FIN is sent before flow_done fires and lands after it;
        # duplicates of earlier segments can still be in flight too.
        rec = SpanRecorder(stream=StreamingFlowStats())
        late = Packet(2, "data", seq=0, size=200)
        fin = Packet(2, "fin")
        rec.sent(None, late, 0.0)
        rec.sent(None, fin, 0.5)
        rec.flow_done(_sender(2), 0.5)
        rec.dropped(None, late, 0.6)
        rec.delivered(_link("forward"), fin, 0.7)
        # They keep their own spans, stages and outcomes ...
        assert _span(rec, late.span_id).fields["outcome"] == "dropped"
        assert _span(rec, fin.span_id).stages == [["created", 0.5], ["deliv", 0.7]]
        assert _span(rec, fin.span_id).t1 == 0.7
        # ... and every per-flow table stays released.
        for table in WORKING_TABLES:
            assert 2 not in getattr(rec, table), table

    def test_a_packet_met_past_the_cap_is_stamped_and_left_alone(self):
        rec = SpanRecorder(limit=1)
        pkt = Packet(1, "data", seq=0, size=200)
        rec.sent(None, pkt, 0.0)  # the flow span takes the one slot
        assert pkt.span_id == -2 and rec.truncated and len(rec) == 1
        rec.flow_done(_sender(1), 1.0)
        rec.delivered(_link("forward"), pkt, 1.1)  # no second first contact
        assert len(rec) == 1 and 1 not in rec._flow_spans

    def test_spans_are_values_built_on_read(self):
        rec = SpanRecorder()
        pkt = Packet(5, "data", seq=0, size=200)
        rec.sent(None, pkt, 1.0)
        before = rec.spans
        rec.delivered(_link("forward"), pkt, 1.3)
        after = rec.spans
        assert [span.id for span in after] == [0, 1] == list(range(len(rec)))
        assert before[1].t1 is None and before[1].stages == [["created", 1.0]]
        assert after[1].t1 == 1.3 and after[1] is not before[1]
        # A reader may scribble on what it was given.
        after[1].stages.append(["bogus", 9.9])
        assert rec.spans[1].stages == [["created", 1.0], ["deliv", 1.3]]

    def test_summary_counts_by_kind(self):
        rec = SpanRecorder()
        rec.sent(None, Packet(1, "syn"), 0.0)
        rec.run_start(SimpleNamespace(now=0.0))
        rec.run_end(SimpleNamespace(now=5.0))
        summary = rec.summary()
        assert summary["spans"] == 3
        assert summary["by_kind"] == {"flow": 1, "pkt": 1, "run": 1}
        assert summary["truncated"] is False


# ----------------------------------------------------------------------
# Ambient arming
# ----------------------------------------------------------------------
class TestRecordingContext:
    def test_recording_sets_and_restores_the_ambient_recorder(self):
        spec = ScenarioSpec.from_document(SCENARIO)
        with recording() as outer:
            inner_rec = SpanRecorder()
            with recording(inner_rec) as inner:
                assert inner is inner_rec
                both = build_simulation(spec)
            only_outer = build_simulation(spec)
        neither = build_simulation(spec)
        # Nested recorders compose; leaving a block disarms later builds.
        assert subscribers(both.sim) == [outer, inner_rec]
        assert subscribers(only_outer.sim) == [outer]
        assert neither.sim.obs is None

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("boom")
        built = build_simulation(ScenarioSpec.from_document(SCENARIO))
        assert built.sim.obs is None


# ----------------------------------------------------------------------
# End to end: a congested scenario tells a coherent story
# ----------------------------------------------------------------------
SCENARIO = {
    "name": "spans-e2e",
    "seed": 11,
    "duration": 30.0,
    "topology": {"capacity_bps": 400_000, "rtt": 0.2, "pkt_size": 200},
    "queue": {"kind": "taq"},
    "workloads": [
        {"type": "bulk", "n_flows": 8},
        {"type": "short", "lengths": [5, 9, 13], "start_time": 10.0},
    ],
}


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def trace(self):
        spec = ScenarioSpec.from_document(SCENARIO)
        with recording() as recorder:
            built = build_simulation(spec)
            built.run()
        return recorder

    def test_all_span_kinds_a_congested_run_produces(self, trace):
        kinds = trace.counts_by_kind()
        assert kinds["run"] == 1
        assert kinds["flow"] >= 8
        assert kinds["pkt"] > 100
        assert kinds.get("rto", 0) + kinds.get("fast_rtx", 0) > 0

    def test_every_closed_pkt_span_has_an_outcome(self, trace):
        for span in trace.spans:
            if span.kind == "pkt" and span.t1 is not None:
                assert span.fields["outcome"] in ("delivered", "dropped")

    def test_cause_links_point_at_earlier_spans(self, trace):
        ids = {span.id for span in trace.spans}
        for span in trace.spans:
            if span.cause != -1:
                assert span.cause in ids
                assert span.cause < span.id

    def test_parents_are_flow_spans_of_the_same_flow(self, trace):
        index = {span.id: span for span in trace.spans}
        for span in trace.spans:
            if span.parent != -1:
                parent = index[span.parent]
                assert parent.kind == "flow"
                assert parent.flow_id == span.flow_id

    def test_stage_times_are_monotonic(self, trace):
        for span in trace.spans:
            if span.kind != "pkt" or not span.stages:
                continue
            times = [stage[1] for stage in span.stages]
            assert times == sorted(times)


# ----------------------------------------------------------------------
# Session workloads: working state follows live flows, not total flows
# ----------------------------------------------------------------------
WEB_CHURN = {
    "name": "spans-churn",
    "seed": 5,
    "duration": 32.0,
    "topology": {"capacity_bps": 1_000_000, "rtt": 0.2, "pkt_size": 500},
    "queue": {"kind": "taq+ac", "p_thresh": 0.02, "t_wait": 2.0,
              "measure_interval": 1.0},
    "workloads": [
        {"type": "web", "n_users": 100, "objects_per_user": 5,
         "object_bytes": 2500, "connections": 4, "start_window": 20.0},
        {"type": "short", "lengths": [20] * 60, "start_time": 8.0,
         "spacing": 0.02},
    ],
}


@pytest.mark.parametrize("limit", [1_000_000, 5_000])
def test_working_state_is_bounded_by_live_flows(limit):
    recorder = SpanRecorder(limit=limit, stream=StreamingFlowStats())
    with recording(recorder):
        built = build_simulation(ScenarioSpec.from_document(WEB_CHURN))
        built.run()
    flows = built.all_flows()
    live = {flow.flow_id for flow in flows if not flow.done}
    assert len(flows) >= 500 and len(live) <= 50
    assert recorder.truncated == (limit < 1_000_000)
    # Drops and late FINs happened, so there was something to leak.
    assert recorder.counts_by_kind()["pkt"] > 1_000
    for table in WORKING_TABLES:
        assert set(getattr(recorder, table)) <= live, table


# ----------------------------------------------------------------------
# Persistence: schema-versioned JSONL with back-compat
# ----------------------------------------------------------------------
class TestPersistence:
    def _roundtrip(self, spans):
        buffer = io.StringIO()
        save_spans(spans, buffer)
        buffer.seek(0)
        return load_spans(buffer)

    def test_roundtrip_preserves_everything(self):
        rec = SpanRecorder()
        pkt = Packet(3, "data", seq=4, size=200)
        rec.sent(None, pkt, 1.0)
        pkt.enqueued_at = 1.0
        rec.enqueued(_link("forward"), pkt, 1.0)
        rec.dropped(None, pkt, 1.5)
        rec.rto(_sender(3, snd_una=4, backoff=1, rto=3.0), 4.5)
        rec.flow_done(_sender(3), 5.0)
        loaded = self._roundtrip(rec.spans)
        assert len(loaded) == len(rec.spans)
        for original, copy in zip(rec.spans, loaded):
            assert (copy.id, copy.kind, copy.flow_id) == \
                (original.id, original.kind, original.flow_id)
            assert (copy.t0, copy.t1, copy.parent, copy.cause) == \
                (original.t0, original.t1, original.parent, original.cause)
            assert copy.stages == original.stages
            assert copy.fields == original.fields

    def test_header_declares_current_schema(self):
        buffer = io.StringIO()
        save_spans([], buffer)
        header = json.loads(buffer.getvalue().splitlines()[0])
        assert header == {"type": "meta", "schema": "repro.obs.spans",
                          "version": SPANS_SCHEMA_VERSION}

    def test_pre_schema_file_without_header_loads(self):
        body = '{"id":0,"kind":"flow","t0":1.0,"t1":2.0,"flow":7}\n'
        loaded = load_spans(io.StringIO(body))
        assert len(loaded) == 1
        assert loaded[0].kind == "flow" and loaded[0].flow_id == 7

    def test_unknown_kind_and_extra_fields_ride_through(self):
        body = (
            '{"type":"meta","schema":"repro.obs.spans","version":1}\n'
            '{"id":0,"kind":"wormhole","t0":0.0,"novel_field":42}\n'
        )
        loaded = load_spans(io.StringIO(body))
        assert loaded[0].kind == "wormhole"
        assert loaded[0].fields["novel_field"] == 42
        # And it re-serializes without loss.
        assert json.loads(loaded[0].to_json())["novel_field"] == 42

    def test_newer_schema_version_refuses(self):
        body = ('{"type":"meta","schema":"repro.obs.spans","version":%d}\n'
                % (SPANS_SCHEMA_VERSION + 1))
        with pytest.raises(ValueError, match="newer than supported"):
            load_spans(io.StringIO(body))

    def test_foreign_meta_header_refuses(self):
        body = '{"type":"meta","schema":"repro.obs.trace","version":1}\n'
        with pytest.raises(ValueError, match="not a span trace"):
            load_spans(io.StringIO(body))

    def test_blank_lines_are_tolerated(self):
        body = '\n{"id":0,"kind":"flow","t0":0.0}\n\n'
        assert len(load_spans(io.StringIO(body))) == 1

    def test_span_json_is_one_line_and_stable_keyed(self):
        span = Span(1, "rto", flow_id=3, t0=1.0, t1=2.0, backoff=2, stall=1.0)
        encoded = span.to_json()
        assert "\n" not in encoded
        assert json.loads(encoded) == {
            "id": 1, "kind": "rto", "t0": 1.0, "t1": 2.0, "flow": 3,
            "backoff": 2, "stall": 1.0,
        }
