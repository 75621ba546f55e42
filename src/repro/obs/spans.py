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
from typing import Any, ContextManager, Dict, Iterable, List, Optional, Set, TextIO

from repro.sim.observe import Observer, ambient, subscribe

#: Bump when the span layout changes incompatibly.
SPANS_SCHEMA_VERSION = 1

SPAN_KINDS = (
    "flow", "pkt", "rto", "fast_rtx", "syn_wait", "penalty", "run",
)

#: ``packet.span_id`` of a packet the recorder met past its span cap:
#: seen, and never to be recorded (-1 is a packet it has not met).
_CAPPED = -2
#: Slots per birth record of the recorder's log.
_BIRTH = 7

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
    when there are none.

    A span is a value: what :func:`load_spans` returns and what
    :attr:`SpanRecorder.spans` builds from the recorder's log on each
    read.  The recorder itself holds none.
    """

    __slots__ = ("id", "kind", "flow_id", "t0", "t1", "parent", "cause",
                 "stages", "fields")

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
        self.stages = stages
        self.fields = fields

    @property
    def duration(self) -> float:
        """Closed extent (0.0 while the span is still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

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
        if self.stages is not None:
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
    """The flight recorder: an append-only flat log of spans, fed by
    the seam's events.

    A recording is only ever appended to, so it is kept as two flat
    journals — a span's birth record (its id is the record's index)
    and its lifecycle stages — plus a few small by-id maps for what few
    spans carry; :attr:`spans` un-interleaves them into columns and
    builds :class:`Span` values on read.  The hot hooks (three per
    packet per link) therefore allocate nothing the cyclic collector
    tracks and call nothing: one ``+=`` per event, and a packet's span
    is found by the id stamped on the packet.  That stamp
    (``packet.span_id``) belongs to one recorder; two recorders on one
    simulation agree on it only when both were armed from the start.

    Bounded memory: at most ``limit`` spans are created (``truncated``
    is set past it); stage appends on already-created spans continue,
    so truncation never leaves a packet's lifecycle half-recorded.  The
    per-flow working tables are bounded by live flows: ``flow_done``
    releases them and a finished flow's packets still in flight, which
    keep their own spans, do not bring them back.

    ``stream`` is an optional
    :class:`repro.obs.streamstats.StreamingFlowStats`: the recorder
    feeds it queueing delays (enqueue -> tx start), per-flow delivery
    gaps (hang times) and flow sojourns as they happen, so percentile
    summaries are available even on runs whose span cap was hit.
    """

    def __init__(self, limit: int = 1_000_000, stream=None) -> None:
        self.limit = limit
        self.truncated = False
        self.stream = stream
        # -- the log ----------------------------------------------------
        self._count = 0
        #: Births, ``_BIRTH`` slots per span in id order: kind, flow,
        #: t0, parent, cause, then the packet's kind and sequence number
        #: (None and -1 off a ``pkt`` span, -1 also on a packet that
        #: carries none).  One flat record and not a list per column:
        #: a ``+=`` costs the same for seven values as for one.
        self._births: List[Any] = []
        #: Stages, four slots per stage in arrival order: span id, name,
        #: time, link name (None off a link).  The terminal stage of a
        #: ``pkt`` span — ``deliv`` at its last link, or ``drop`` — is
        #: also its close: ``t1`` and ``outcome`` are read off it.
        self._stages: List[Any] = []
        #: What few spans carry, by span id: when a span of another kind
        #: closed and its fields (rto, fast_rtx, syn_wait, penalty, flow,
        #: run: about one span in twenty-five), the retransmission and
        #: admission-refusal flags, and who evicted the packet.
        self._ends: Dict[int, float] = {}
        self._fields: Dict[int, Dict[str, Any]] = {}
        self._rtx: Set[int] = set()
        self._refused: Set[int] = set()
        self._evicted_by: Dict[int, int] = {}
        self._run_span = -1
        # -- working state, per live flow --------------------------------
        #: flow -> id of its ``flow`` span (-1 when the cap refused it).
        #: Its keys are the live flows: a packet whose flow is not here
        #: belongs to a finished one and leaves the tables below alone.
        self._flow_spans: Dict[int, int] = {}
        #: flow -> time of the flow's last observed packet activity
        #: (send, delivery or drop); the left edge of an RTO stall.
        self._last_activity: Dict[int, float] = {}
        #: flow -> span id of the active recovery trigger (rto/fast_rtx).
        self._recovery: Dict[int, int] = {}
        #: flow -> seq -> span id of the latest drop of that segment.
        self._last_drop: Dict[int, Dict[int, int]] = {}
        #: flow -> span id of the flow's latest drop (any segment).
        self._last_flow_drop: Dict[int, int] = {}
        #: flow -> span id of the last SYN packet span.
        self._last_syn: Dict[int, int] = {}
        #: flow -> time of the last in-order data delivery (hang gaps).
        self._last_delivery: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Appending to the log
    # ------------------------------------------------------------------
    def _open(self, kind: str, flow_id: int, t0: float, parent: int = -1,
              cause: int = -1, pkt: Optional[str] = None, seq: int = -1) -> int:
        """Append one span's birth record; its id, or -1 past the cap."""
        span_id = self._count
        if span_id >= self.limit:
            self.truncated = True
            return -1
        self._count = span_id + 1
        self._births += (kind, flow_id, t0, parent, cause, pkt, seq)
        return span_id

    def _instant(self, kind: str, flow_id: int, t0: float, now: float,
                 cause: int, **fields: Any) -> int:
        """Append a span of a rare kind, closed at *now*."""
        span_id = self._open(kind, flow_id, t0, self._flow_span(flow_id, now), cause)
        if span_id >= 0:
            self._ends[span_id] = now
            self._fields[span_id] = fields
        return span_id

    def _flow_span(self, flow_id: int, now: float) -> int:
        """The id of *flow_id*'s ``flow`` span, opened on first sight."""
        span_id = self._flow_spans.get(flow_id)
        if span_id is None:
            span_id = self._flow_spans[flow_id] = self._open("flow", flow_id, now)
        return span_id

    def _first_contact(self, packet, now: float) -> int:
        """Open the span of a packet that has none yet: packets not born
        under a sender hook (ACKs, receiver traffic) enter the record at
        their first armed link.  Hooks read ``packet.span_id`` themselves
        and come here on a miss."""
        flow_id = packet.flow_id
        try:
            parent = self._flow_spans[flow_id]
        except KeyError:
            parent = self._flow_span(flow_id, now)
        span_id = self._open("pkt", flow_id, now, parent, -1, packet.kind, packet.seq)
        packet.span_id = span_id if span_id >= 0 else _CAPPED
        return span_id

    def _drop_of(self, flow_id: int, seq: int) -> int:
        """Span id of the latest drop of segment *seq*, -1 if unseen."""
        drops = self._last_drop.get(flow_id)
        return drops.get(seq, -1) if drops else -1

    # ------------------------------------------------------------------
    # TCPSender events
    # ------------------------------------------------------------------
    def sent(self, sender, packet, now: float) -> None:
        """A sender put *packet* on the data path (SYN, DATA, FIN)."""
        flow_id = packet.flow_id
        try:
            parent = self._flow_spans[flow_id]
        except KeyError:
            parent = self._flow_span(flow_id, now)
        cause = -1
        if packet.is_retransmit:
            cause = self._drop_of(flow_id, packet.seq)
            if cause == -1:
                cause = self._recovery.get(flow_id, -1)
        span_id = self._open("pkt", flow_id, now, parent, cause, packet.kind, packet.seq)
        self._last_activity[flow_id] = now
        if span_id < 0:
            packet.span_id = _CAPPED
            return
        if packet.is_retransmit:
            self._rtx.add(span_id)
        self._stages += (span_id, "created", now, None)
        packet.span_id = span_id
        if packet.kind == "syn":
            self._last_syn[flow_id] = span_id

    def syn_retry(self, sender, now: float) -> None:
        """The sender's latest SYN went unanswered and is being re-sent."""
        flow_id = sender.flow_id
        cause = self._last_syn.get(flow_id, -1)
        # t0 keeps the bits of ``now - waited`` that spans.jsonl has
        # always carried; it can differ from syn_sent_at in the last ulp.
        waited = now - sender.syn_sent_at
        span_id = self._instant("syn_wait", flow_id, now - waited, now, cause,
                                attempt=sender.stats.syn_retries)
        if span_id >= 0 and cause in self._refused:
            self._fields[span_id]["refused"] = True

    def rto(self, sender, now: float) -> None:
        """A retransmission timeout fired; the stall spans the silence
        since the flow's last packet activity."""
        flow_id = sender.flow_id
        idle_since = self._last_activity.get(flow_id, now)
        cause = self._drop_of(flow_id, sender.snd_una)
        if cause == -1:
            cause = self._last_flow_drop.get(flow_id, -1)
        span_id = self._instant(
            "rto", flow_id, idle_since, now, cause,
            backoff=sender.rto.backoff_exponent, rto=sender.rto.rto,
            stall=now - idle_since,
        )
        if span_id >= 0:
            self._recovery[flow_id] = span_id

    def fast_retransmit(self, sender, now: float) -> None:
        flow_id, seq = sender.flow_id, sender.snd_una
        cause = self._drop_of(flow_id, seq)
        if cause == -1:
            cause = self._last_flow_drop.get(flow_id, -1)
        span_id = self._instant("fast_rtx", flow_id, now, now, cause, seq=seq)
        if span_id >= 0:
            self._recovery[flow_id] = span_id

    def established(self, sender, now: float) -> None:
        span_id = self._flow_span(sender.flow_id, now)
        if span_id >= 0:
            self._fields.setdefault(span_id, {})["established"] = now

    def flow_done(self, sender, now: float) -> None:
        flow_id = sender.flow_id
        span_id = self._flow_span(flow_id, now)
        if span_id >= 0:
            self._ends[span_id] = now
            self._fields.setdefault(span_id, {})["outcome"] = "done"
            if self.stream is not None:
                opened = self._births[_BIRTH * span_id + 2]  # its t0
                self.stream.observe_sojourn(flow_id, now - opened)
        # Per-flow working state is finished with; drop it so long
        # session workloads (thousands of short flows) stay bounded by
        # live flows, not total flows.  The FIN is on its way as this
        # fires: leaving _flow_spans is what keeps its delivery or drop
        # from putting the entries back.
        for table in (self._flow_spans, self._last_activity, self._recovery,
                      self._last_drop, self._last_flow_drop, self._last_syn,
                      self._last_delivery):
            table.pop(flow_id, None)

    # ------------------------------------------------------------------
    # Link events
    # ------------------------------------------------------------------
    def enqueued(self, link, packet, now: float) -> None:
        span_id = packet.span_id
        if span_id == -1:
            span_id = self._first_contact(packet, now)
        if span_id >= 0:
            self._stages += (span_id, "enq", now, link.name)

    def tx(self, link, packet, now: float) -> None:
        span_id = packet.span_id
        if span_id == -1:
            span_id = self._first_contact(packet, now)
        if span_id >= 0:
            self._stages += (span_id, "tx", now, link.name)
        if self.stream is not None:
            self.stream.observe_queue_delay(
                packet.flow_id, now - packet.enqueued_at
            )

    def delivered(self, link, packet, now: float) -> None:
        span_id = packet.span_id
        if span_id == -1:
            span_id = self._first_contact(packet, now)
        if link.next_link is not None:  # a hop into a chained link
            if span_id >= 0:
                self._stages += (span_id, "hop", now, None)
            return
        if span_id >= 0:
            self._stages += (span_id, "deliv", now, None)
        flow_id = packet.flow_id
        if flow_id in self._flow_spans:
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
        span_id = packet.span_id
        if span_id == -1:
            span_id = self._first_contact(packet, now)
        flow_id = packet.flow_id
        live = flow_id in self._flow_spans
        if live:
            self._last_activity[flow_id] = now
        if span_id < 0:
            return
        self._stages += (span_id, "drop", now, None)
        if live:
            drops = self._last_drop.get(flow_id)
            if drops is None:
                self._last_drop[flow_id] = {packet.seq: span_id}
            else:
                drops[packet.seq] = span_id
            self._last_flow_drop[flow_id] = span_id

    def refused(self, queue, packet, now: float) -> None:
        """TAQ admission control refused this SYN (``dropped`` fires
        right after; the flag is what tells a syn_wait from congestion
        loss)."""
        span_id = packet.span_id
        if span_id == -1:
            span_id = self._first_contact(packet, now)
        if span_id >= 0:
            self._refused.add(span_id)

    def penalized(self, queue, packet, now: float) -> None:
        flow_id = packet.flow_id
        recent_drops = queue.tracker.lookup(flow_id).recent_drops()
        self._instant("penalty", flow_id, now, now,
                      self._last_flow_drop.get(flow_id, -1),
                      recent_drops=recent_drops)

    def evicted(self, queue, evicted, by_packet, now: float) -> None:
        """TAQ pushed *evicted* out to admit *by_packet* (``dropped``
        follows and closes the span)."""
        span_id = evicted.span_id
        if span_id == -1:
            span_id = self._first_contact(evicted, now)
        if span_id >= 0:
            self._evicted_by[span_id] = by_packet.flow_id

    # ------------------------------------------------------------------
    # Simulator events
    # ------------------------------------------------------------------
    def run_start(self, sim) -> None:
        self._run_span = self._open("run", -1, sim.now)

    def run_end(self, sim) -> None:
        if self._run_span >= 0:
            self._ends[self._run_span] = sim.now

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
    # Reading the log
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Every span recorded so far as a :class:`Span`, built from
        the log on this read: a fresh list of fresh values, each span's
        id its position in it."""
        count = self._count
        t1: List[Optional[float]] = [None] * count
        for span_id, end in self._ends.items():
            t1[span_id] = end
        outcome: List[Optional[str]] = [None] * count
        stages: List[Optional[List[List[Any]]]] = [None] * count
        log = self._stages
        for span_id, name, time, where in zip(log[0::4], log[1::4], log[2::4], log[3::4]):
            entry = [name, time] if where is None else [name, time, where]
            if stages[span_id] is None:
                stages[span_id] = [entry]
            else:
                stages[span_id] += (entry,)
            if name == "deliv":
                t1[span_id], outcome[span_id] = time, "delivered"
            elif name == "drop":
                t1[span_id], outcome[span_id] = time, "dropped"
        births = self._births
        rtx, refused, evicted_by = self._rtx, self._refused, self._evicted_by
        out = []
        for span_id, (kind, flow_id, t0, parent, cause, pkt, seq) in enumerate(
                zip(*(births[slot::_BIRTH] for slot in range(_BIRTH)))):
            fields = dict(self._fields.get(span_id, ()))
            if pkt is not None:
                fields["pkt"] = pkt
                if seq >= 0:
                    fields["seq"] = seq
                if span_id in rtx:
                    fields["rtx"] = True
                if outcome[span_id] is not None:
                    fields["outcome"] = outcome[span_id]
                if span_id in refused:
                    fields["refused"] = True
                if span_id in evicted_by:
                    fields["evicted_by"] = evicted_by[span_id]
            out.append(Span(span_id, kind, flow_id, t0, t1[span_id], parent, cause,
                            stages[span_id], **fields))
        return out

    def __len__(self) -> int:
        return self._count

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for kind in self._births[0::_BIRTH]:
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "spans": self._count,
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
