"""Causal packet-lifecycle spans: the simulation's flight recorder.

Where :mod:`repro.obs.trace` records isolated *decisions* (one JSON
line per drop or RTO), this records *spans with cause links* — enough
structure to answer "why did flow 117 hang for 9 seconds?" by walking
from its completion back through the drops, RTO backoff stages and
admission refusals that produced the wait.

Span kinds
----------
``flow``
    One per connection: opens at the first SYN transmission, closes at
    completion.  Every other span of the flow carries its id as
    ``parent``.
``pkt``
    One per packet the armed components see.  Carries an ordered
    ``stages`` list — ``created`` (sender transmit), ``enq``/``tx``
    (per link, with the link name), ``hop`` (delivered into a chained
    link), ``deliv`` or ``drop`` — and closes with an ``outcome``.
    Retransmissions carry a ``cause`` link to the span that provoked
    them: the dropped packet's span when the recorder saw the drop,
    else the active recovery trigger (``rto`` / ``fast_rtx``).
``rto``
    One per retransmission timeout.  ``t0`` is the start of the silence
    (the flow's last observed packet activity), ``t1`` the firing time;
    ``stall`` is their difference, ``backoff`` the exponent — the
    paper's repetitive-timeout ladder, span by span.
``fast_rtx``
    Instant span at a 3-dupACK fast retransmit; ``cause`` links to the
    detected drop when known.
``syn_wait``
    One per SYN retry: the wait between a SYN that went unanswered and
    its retry.  ``refused=true`` when TAQ admission control refused the
    SYN (the paper's retry-until-admitted penalty); otherwise the SYN
    was lost to congestion.
``penalty``
    Instant span when TAQ classifies a packet OVER_PENALIZED, with a
    cause link to the flow's latest drop.
``run``
    One per ``Simulator.run`` call (timeline bounds).

The recorder is a subscriber of the instrumentation seam
(:mod:`repro.sim.observe`): a disarmed run executes exactly the
pre-instrumentation code path and stays bit-identical.  Arm explicitly
with ``recorder.arm(built)``, or ambiently::

    with recording() as recorder:
        built = build_simulation(spec)   # sim/links/queues/senders armed
        built.run()                      # mid-run flows join via flow_spawned
    save_spans(recorder.spans, handle)

The on-disk format is schema-versioned JSON lines (one span per line,
meta header first).  Readers tolerate pre-schema files (no header) and
unknown kinds/fields, and refuse files newer than they understand.
"""

from __future__ import annotations

import json
from typing import Any, ContextManager, Dict, Iterable, List, Optional, TextIO

from repro.sim.observe import Observer, ambient, subscribe

#: Bump when the span layout changes incompatibly.
SPANS_SCHEMA_VERSION = 1

SPAN_KINDS = (
    "flow", "pkt", "rto", "fast_rtx", "syn_wait", "penalty", "run",
)

__all__ = [
    "SPANS_SCHEMA_VERSION",
    "SPAN_KINDS",
    "Span",
    "SpanRecorder",
    "load_spans",
    "recording",
    "save_spans",
]


class Span:
    """One span: a (possibly still open) interval with causal links.

    ``parent`` points at the owning ``flow`` span; ``cause`` at the
    span that provoked this one (drop -> retransmission, refusal ->
    syn_wait, ...).  Both are span ids, -1 when absent.  ``t1`` is None
    while the span is open.  ``stages`` is only used by ``pkt`` spans:
    a list of ``[name, time]`` / ``[name, time, where]`` entries, None
    until the first one.  It is stored flat, three slots per stage in
    one list, and built on read: a recording holds three stages per
    packet, and that many small lists kept alive made the cyclic
    collector's full passes the largest single cost of an armed run.
    """

    __slots__ = ("id", "kind", "flow_id", "t0", "t1", "parent", "cause",
                 "_stages", "fields")

    def __init__(
        self,
        span_id: int,
        kind: str,
        flow_id: int = -1,
        t0: float = 0.0,
        t1: Optional[float] = None,
        parent: int = -1,
        cause: int = -1,
        stages: Optional[List[List[Any]]] = None,
        **fields: Any,
    ) -> None:
        self.id = span_id
        self.kind = kind
        self.flow_id = flow_id
        self.t0 = t0
        self.t1 = t1
        self.parent = parent
        self.cause = cause
        self._stages: Optional[List[Any]] = None
        if stages is not None:
            self.stages = stages
        self.fields = fields

    @property
    def duration(self) -> float:
        """Closed extent (0.0 while the span is still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    @property
    def stages(self) -> Optional[List[List[Any]]]:
        """The lifecycle stages in order, a fresh list on every read
        (append through :meth:`stage`, not to the returned list)."""
        flat = self._stages
        if flat is None:
            return None
        return [
            [flat[i], flat[i + 1]] if flat[i + 2] is None else flat[i:i + 3]
            for i in range(0, len(flat), 3)
        ]

    @stages.setter
    def stages(self, entries: Optional[List[List[Any]]]) -> None:
        if entries is None:
            self._stages = None
            return
        flat: List[Any] = []
        for entry in entries:
            if not 2 <= len(entry) <= 3:
                raise ValueError(f"a stage is [name, time] or [name, time, where]: {entry!r}")
            flat += (entry[0], entry[1], entry[2] if len(entry) == 3 else None)
        self._stages = flat

    def stage(self, name: str, time: float, where: Optional[str] = None) -> None:
        """Append one lifecycle stage (``pkt`` spans)."""
        if self._stages is None:
            self._stages = [name, time, where]
        else:
            self._stages += (name, time, where)

    def close(self, time: float, outcome: Optional[str] = None) -> None:
        self.t1 = time
        if outcome is not None:
            self.fields["outcome"] = outcome

    def to_json(self) -> str:
        payload: Dict[str, Any] = {"id": self.id, "kind": self.kind, "t0": self.t0}
        if self.t1 is not None:
            payload["t1"] = self.t1
        if self.flow_id != -1:
            payload["flow"] = self.flow_id
        if self.parent != -1:
            payload["parent"] = self.parent
        if self.cause != -1:
            payload["cause"] = self.cause
        if self._stages is not None:
            payload["stages"] = self.stages
        for key in sorted(self.fields):
            payload[key] = self.fields[key]
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            payload.pop("id"),
            payload.pop("kind"),
            flow_id=payload.pop("flow", -1),
            t0=payload.pop("t0", 0.0),
            t1=payload.pop("t1", None),
            parent=payload.pop("parent", -1),
            cause=payload.pop("cause", -1),
            stages=payload.pop("stages", None),
            **payload,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = "open" if self.t1 is None else f"{self.t1:.4f}"
        return f"<Span #{self.id} {self.kind} flow={self.flow_id} {self.t0:.4f}..{end}>"


class SpanRecorder(Observer):
    """The flight recorder: builds spans from the seam's events.

    Bounded memory: at most ``limit`` spans are created (``truncated``
    is set past it); stage appends on already-created spans continue,
    so truncation never leaves a packet's lifecycle half-recorded.

    ``stream`` is an optional
    :class:`repro.obs.streamstats.StreamingFlowStats`: the recorder
    feeds it queueing delays (enqueue -> tx start), per-flow delivery
    gaps (hang times) and flow sojourns as they happen, so percentile
    summaries are available even on runs whose span cap was hit.
    """

    def __init__(self, limit: int = 1_000_000, stream=None) -> None:
        self.limit = limit
        self.spans: List[Span] = []
        self.truncated = False
        self.stream = stream
        self._next_id = 0
        self._run_span: Optional[Span] = None
        self._flow_spans: Dict[int, Span] = {}
        self._pkt_spans: Dict[int, Span] = {}
        #: flow -> time of the flow's last observed packet activity
        #: (send, delivery or drop); the left edge of an RTO stall.
        self._last_activity: Dict[int, float] = {}
        #: flow -> span id of the active recovery trigger (rto/fast_rtx).
        self._recovery: Dict[int, int] = {}
        #: (flow, seq) -> span id of the latest drop of that segment.
        self._last_drop: Dict[Any, int] = {}
        #: flow -> span id of the flow's latest drop (any segment).
        self._last_flow_drop: Dict[int, int] = {}
        #: flow -> span id of the last SYN packet span.
        self._last_syn: Dict[int, int] = {}
        #: flow -> time of the last in-order data delivery (hang gaps).
        self._last_delivery: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Span construction
    # ------------------------------------------------------------------
    def _new_span(self, kind: str, flow_id: int, t0: float, parent: int = -1,
                  cause: int = -1, **fields: Any) -> Optional[Span]:
        if len(self.spans) >= self.limit:
            self.truncated = True
            return None
        span = Span(self._next_id, kind, flow_id, t0, None, parent, cause, None,
                    **fields)
        self._next_id += 1
        self.spans.append(span)
        return span

    def _flow_span(self, flow_id: int, now: float) -> Optional[Span]:
        span = self._flow_spans.get(flow_id)
        if span is None:
            span = self._new_span("flow", flow_id, now)
            if span is not None:
                self._flow_spans[flow_id] = span
        return span

    def _first_contact(self, packet, now: float) -> Optional[Span]:
        """A span for a packet that has none yet: packets not born under
        a sender hook (ACKs, receiver traffic) enter the record at their
        first armed link.  Hooks look the span up themselves and come
        here on a miss, which keeps the per-packet path one dict get."""
        flow = self._flow_span(packet.flow_id, now)
        span = self._new_span(
            "pkt", packet.flow_id, now,
            parent=flow.id if flow is not None else -1,
            pkt=packet.kind,
        )
        if span is None:
            return None
        if packet.seq >= 0:
            span.fields["seq"] = packet.seq
        packet.span_id = span.id
        self._pkt_spans[span.id] = span
        return span

    # ------------------------------------------------------------------
    # TCPSender events
    # ------------------------------------------------------------------
    def sent(self, sender, packet, now: float) -> None:
        """A sender put *packet* on the data path (SYN, DATA, FIN)."""
        flow_id = packet.flow_id
        flow = self._flow_span(flow_id, now)
        cause = -1
        if packet.is_retransmit:
            cause = self._last_drop.get((flow_id, packet.seq), -1)
            if cause == -1:
                cause = self._recovery.get(flow_id, -1)
        span = self._new_span(
            "pkt", flow_id, now,
            parent=flow.id if flow is not None else -1,
            cause=cause,
            pkt=packet.kind,
        )
        self._last_activity[flow_id] = now
        if span is None:
            return
        if packet.seq >= 0:
            span.fields["seq"] = packet.seq
        if packet.is_retransmit:
            span.fields["rtx"] = True
        span.stage("created", now)
        packet.span_id = span.id
        self._pkt_spans[span.id] = span
        if packet.kind == "syn":
            self._last_syn[flow_id] = span.id

    def syn_retry(self, sender, now: float) -> None:
        """The sender's latest SYN went unanswered and is being re-sent."""
        flow_id = sender.flow_id
        flow = self._flow_span(flow_id, now)
        cause = self._last_syn.get(flow_id, -1)
        refused = False
        if cause != -1:
            prior = self._pkt_spans.get(cause)
            refused = bool(prior is not None and prior.fields.get("refused"))
        # t0 keeps the bits of ``now - waited`` that spans.jsonl has
        # always carried; it can differ from syn_sent_at in the last ulp.
        waited = now - sender.syn_sent_at
        span = self._new_span(
            "syn_wait", flow_id, now - waited,
            parent=flow.id if flow is not None else -1,
            cause=cause,
            attempt=sender.stats.syn_retries,
        )
        if span is not None:
            span.close(now)
            if refused:
                span.fields["refused"] = True

    def rto(self, sender, now: float) -> None:
        """A retransmission timeout fired; the stall spans the silence
        since the flow's last packet activity."""
        flow_id = sender.flow_id
        idle_since = self._last_activity.get(flow_id, now)
        flow = self._flow_span(flow_id, now)
        cause = self._last_drop.get((flow_id, sender.snd_una), -1)
        if cause == -1:
            cause = self._last_flow_drop.get(flow_id, -1)
        span = self._new_span(
            "rto", flow_id, idle_since,
            parent=flow.id if flow is not None else -1,
            cause=cause,
            backoff=sender.rto.backoff_exponent,
            rto=sender.rto.rto,
            stall=now - idle_since,
        )
        if span is not None:
            span.close(now)
            self._recovery[flow_id] = span.id

    def fast_retransmit(self, sender, now: float) -> None:
        flow_id, seq = sender.flow_id, sender.snd_una
        flow = self._flow_span(flow_id, now)
        cause = self._last_drop.get((flow_id, seq), -1)
        if cause == -1:
            cause = self._last_flow_drop.get(flow_id, -1)
        span = self._new_span(
            "fast_rtx", flow_id, now,
            parent=flow.id if flow is not None else -1,
            cause=cause,
            seq=seq,
        )
        if span is not None:
            span.close(now)
            self._recovery[flow_id] = span.id

    def established(self, sender, now: float) -> None:
        flow = self._flow_span(sender.flow_id, now)
        if flow is not None:
            flow.fields["established"] = now

    def flow_done(self, sender, now: float) -> None:
        flow_id = sender.flow_id
        flow = self._flow_span(flow_id, now)
        if flow is not None:
            flow.close(now, outcome="done")
            if self.stream is not None:
                self.stream.observe_sojourn(flow_id, now - flow.t0)
        # Per-flow working state is finished with; drop it so long
        # session workloads (thousands of short flows) stay bounded by
        # live flows, not total flows.
        self._recovery.pop(flow_id, None)
        self._last_syn.pop(flow_id, None)
        self._last_delivery.pop(flow_id, None)
        self._last_activity.pop(flow_id, None)
        self._last_flow_drop.pop(flow_id, None)

    # ------------------------------------------------------------------
    # Link events
    # ------------------------------------------------------------------
    def enqueued(self, link, packet, now: float) -> None:
        span = self._pkt_spans.get(packet.span_id) or self._first_contact(packet, now)
        if span is not None:
            span.stage("enq", now, link.name)

    def tx(self, link, packet, now: float) -> None:
        span = self._pkt_spans.get(packet.span_id) or self._first_contact(packet, now)
        if span is not None:
            span.stage("tx", now, link.name)
        if self.stream is not None:
            self.stream.observe_queue_delay(
                packet.flow_id, now - packet.enqueued_at
            )

    def delivered(self, link, packet, now: float) -> None:
        last = link.next_link is None  # else a hop into a chained link
        span = self._pkt_spans.get(packet.span_id) or self._first_contact(packet, now)
        if span is not None:
            span.stage("deliv" if last else "hop", now)
            if last:
                span.close(now, outcome="delivered")
        if last:
            flow_id = packet.flow_id
            self._last_activity[flow_id] = now
            if packet.kind == "data" and self.stream is not None:
                previous = self._last_delivery.get(flow_id)
                if previous is not None:
                    self.stream.observe_hang(flow_id, now - previous)
                self._last_delivery[flow_id] = now

    # ------------------------------------------------------------------
    # QueueDiscipline / TAQQueue events
    # ------------------------------------------------------------------
    def dropped(self, queue, packet, now: float) -> None:
        """The queue rejected or evicted *packet* (all disciplines)."""
        span = self._pkt_spans.get(packet.span_id) or self._first_contact(packet, now)
        flow_id = packet.flow_id
        self._last_activity[flow_id] = now
        if span is None:
            return
        span.stage("drop", now)
        span.close(now, outcome="dropped")
        self._last_drop[(flow_id, packet.seq)] = span.id
        self._last_flow_drop[flow_id] = span.id

    def refused(self, queue, packet, now: float) -> None:
        """TAQ admission control refused this SYN (``dropped`` fires
        right after; the flag is what tells a syn_wait from congestion
        loss)."""
        span = self._pkt_spans.get(packet.span_id) or self._first_contact(packet, now)
        if span is not None:
            span.fields["refused"] = True

    def penalized(self, queue, packet, now: float) -> None:
        recent_drops = queue.tracker.lookup(packet.flow_id).recent_drops()
        flow = self._flow_span(packet.flow_id, now)
        span = self._new_span(
            "penalty", packet.flow_id, now,
            parent=flow.id if flow is not None else -1,
            cause=self._last_flow_drop.get(packet.flow_id, -1),
            recent_drops=recent_drops,
        )
        if span is not None:
            span.close(now)

    def evicted(self, queue, evicted, by_packet, now: float) -> None:
        """TAQ pushed *evicted* out to admit *by_packet* (``dropped``
        follows and closes the span)."""
        span = self._pkt_spans.get(evicted.span_id) or self._first_contact(evicted, now)
        if span is not None:
            span.fields["evicted_by"] = by_packet.flow_id

    # ------------------------------------------------------------------
    # Simulator events
    # ------------------------------------------------------------------
    def run_start(self, sim) -> None:
        self._run_span = self._new_span("run", -1, sim.now)

    def run_end(self, sim) -> None:
        if self._run_span is not None:
            self._run_span.close(sim.now)

    def flow_spawned(self, sim, flow) -> None:
        """A flow created mid-run (web sessions) joins the trace."""
        subscribe(flow.sender, self)

    def arm(self, built: Any) -> None:
        """Subscribe across one :class:`repro.build.BuiltScenario`:
        simulator, bottleneck queue, every link with its queue, and the
        senders of all flows spawned so far."""
        subscribe(built.sim, self)
        subscribe(built.queue, self)
        for link in built.links():
            subscribe(link, self)
            subscribe(link.queue, self)
        for flow in built.all_flows():
            subscribe(flow.sender, self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span.kind] = counts.get(span.kind, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "spans": len(self.spans),
            "by_kind": self.counts_by_kind(),
            "truncated": self.truncated,
        }
        if self.stream is not None:
            out["stream"] = self.stream.summary()
        return out


# ----------------------------------------------------------------------
# Persistence (schema-versioned JSONL, like repro.obs.trace)
# ----------------------------------------------------------------------
def save_spans(spans: Iterable[Span], handle: TextIO) -> int:
    """Write *spans* as schema-versioned JSONL; returns spans written."""
    handle.write(
        json.dumps(
            {"type": "meta", "schema": "repro.obs.spans",
             "version": SPANS_SCHEMA_VERSION},
            separators=(",", ":"),
        )
    )
    handle.write("\n")
    count = 0
    for span in spans:
        handle.write(span.to_json())
        handle.write("\n")
        count += 1
    return count


def load_spans(handle: TextIO) -> List[Span]:
    """Read a span file written by :func:`save_spans`.

    Back-compat contract: a missing meta header (pre-schema file) is
    tolerated, unknown span kinds and extra fields ride through
    untouched, and a file declaring a schema version newer than this
    reader raises.
    """
    spans: List[Span] = []
    for line in handle:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        if payload.get("type") == "meta":
            if payload.get("schema") != "repro.obs.spans":
                raise ValueError(f"not a span trace: {payload!r}")
            version = payload.get("version")
            if version is not None and version > SPANS_SCHEMA_VERSION:
                raise ValueError(
                    f"span schema v{version} is newer than supported "
                    f"v{SPANS_SCHEMA_VERSION}"
                )
            continue
        spans.append(Span.from_payload(payload))
    return spans


def recording(recorder: Optional[SpanRecorder] = None) -> ContextManager[SpanRecorder]:
    """``with recording() as recorder:`` — every simulation built inside
    the block (via :func:`repro.build.build_simulation`) records spans
    into *recorder*, including flows spawned mid-run."""
    return ambient(recorder if recorder is not None else SpanRecorder())
