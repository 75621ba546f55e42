"""TCP sender: slow start, congestion avoidance, fast retransmit,
NewReno fast recovery, optional SACK recovery, and RTO with backoff.

The implementation follows the standards the paper leans on (RFC 5681
congestion control, RFC 6582 NewReno, RFC 6298 timers) at segment
granularity.  Two behaviours matter enormously in small packet regimes
and are implemented faithfully:

- **Fast retransmit needs three dupACKs.**  With cwnd < 4 a flow cannot
  generate them, so every loss at small windows becomes a timeout —
  this is the mechanism behind the model's missing ``S2/S3`` fast
  retransmit arcs (§3.1).
- **Timeout backoff doubles and only collapses on a new RTT sample.**
  Losing a retransmission therefore produces the repetitive-timeout
  silences (``b*`` states) that TAQ exists to prevent.

After a timeout the sender performs slow-start-based go-back-N from the
cumulative ACK point (the ns2 behaviour): ``snd_next`` rewinds to
``snd_una`` and segments below the old high-water mark are re-sent
marked as retransmissions.  The receiver's cumulative ACKs skip over
anything it already buffered.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Set

from repro.net.packet import ACK, DATA, FIN, HEADER_BYTES, SYN, SYNACK, Packet
from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.tcp.rto import RtoEstimator


class SenderStats:
    """Per-sender counters and event timelines."""

    __slots__ = (
        "data_sent",
        "retransmits",
        "fast_retransmits",
        "timeouts",
        "repetitive_timeouts",
        "syn_retries",
        "timeout_times",
        "max_backoff_seen",
    )

    def __init__(self) -> None:
        self.data_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.repetitive_timeouts = 0
        self.syn_retries = 0
        self.timeout_times: List[float] = []
        self.max_backoff_seen = 0


class RoundLog:
    """Ground-truth log of ACK-clocked transmission rounds.

    A *round* is the TCP notion the paper's Markov model reasons over:
    the packets sent between one ack-clock tick and the next (a flow in
    state ``Sn`` sends ``n`` packets per round).  The log records, for
    each round, ``(start_time, end_time, packets_sent)``; silent gaps
    (RTO waits) show up as time between rounds and are converted to
    0-sent epochs by the Fig 6 census.  Enabled via
    ``TCPSender(round_log=True)`` — the analogue of logging cwnd in ns2.
    """

    __slots__ = ("rounds",)

    def __init__(self) -> None:
        self.rounds: List[tuple] = []

    def record(self, start: float, end: float, sent: int) -> None:
        if sent > 0:
            self.rounds.append((start, end, sent))


class TCPSender:
    """Sender half of a connection.

    Parameters
    ----------
    sim:
        Owning simulator (for timers).
    flow_id:
        Connection identifier.
    transmit:
        Callable ``transmit(packet)`` that puts a packet on the data
        path (wired by :class:`~repro.tcp.flow.TcpFlow`).
    mss:
        On-the-wire size of a full data segment, bytes.
    total_segments:
        Flow length in segments, or ``None`` for a long-running flow
        that always has data.
    initial_cwnd:
        Initial congestion window, packets (RFC 5681 allows up to 4;
        modern stacks use 10 — the paper's regime definition references
        that).
    max_cwnd:
        Cap on the congestion window (stands in for the receiver
        window).  Setting this to the model's ``Wmax`` makes the sender
        directly comparable to the idealized Markov chain.
    sack:
        Enable SACK-scoreboard loss recovery (receiver must send SACK).
    rto:
        Optional pre-configured estimator (min/max RTO knobs).
    on_complete:
        Callback ``(now)`` fired once when the last segment is
        cumulatively acknowledged.
    """

    SYN_TIMEOUT = 1.0
    MAX_SYN_RETRIES = 6
    #: Exponent cap on SYN retry backoff (2**cap * SYN_TIMEOUT).  Web
    #: clients emulating the paper's retry-until-admitted behaviour set
    #: this low (with a high retry budget) so refused connections keep
    #: knocking at a steady pace.
    SYN_BACKOFF_CAP = 6
    DUPACK_THRESHOLD = 3

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        transmit: Callable[[Packet], None],
        mss: int = 500,
        total_segments: Optional[int] = None,
        initial_cwnd: float = 2.0,
        initial_ssthresh: float = 64.0,
        max_cwnd: Optional[float] = None,
        sack: bool = False,
        rto: Optional[RtoEstimator] = None,
        on_complete: Optional[Callable[[float], None]] = None,
        round_log: bool = False,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self._transmit = transmit
        self.mss = mss
        self.total_segments = total_segments
        self.initial_cwnd = float(initial_cwnd)
        self.max_cwnd = max_cwnd
        self.sack_enabled = sack
        self.rto = rto if rto is not None else RtoEstimator()
        self.on_complete = on_complete
        self.pool_id = -1
        #: Where this sender's packets go, stamped on each as it leaves
        #: (wired by :class:`~repro.tcp.flow.TcpFlow`; the defaults are
        #: a bare packet's): the endpoint that consumes them, the flow's
        #: private one-way access delay, and the host's transmit jitter
        #: — with ``jitter_random`` set, a packet reaches *transmit*
        #: ``tx_jitter * jitter_random()`` seconds after it is sent.
        self.dst = None
        self.extra_delay = 0.0
        self.tx_jitter = 0.0
        self.jitter_random: Optional[Callable[[], float]] = None

        #: The observer slot (:mod:`repro.sim.observe`).  None (the
        #: default) keeps the send path free of instrumentation.
        self.obs = None

        self.state = "closed"  # closed -> syn_sent -> established -> done
        self.cwnd = self.initial_cwnd
        self.ssthresh = float(initial_ssthresh)
        self.snd_una = 0
        self.snd_next = 0
        self.dupacks = 0
        self.in_recovery = False
        self.recover = -1  # NewReno: highest seq sent when loss detected
        self.high_water = 0  # highest seq ever sent + 1
        self._scoreboard: Set[int] = set()  # SACKed segments above snd_una
        self._recovery_retx: Set[int] = set()  # holes re-sent this recovery
        self._timed_seq: Optional[int] = None  # one timed segment per window
        self._timed_at = 0.0
        self._timer: Optional[Event] = None
        self._syn_timer: Optional[Event] = None
        self.syn_sent_at = 0.0  # when the latest SYN went out (observers read it)
        self.stats = SenderStats()
        self.completed_at: Optional[float] = None
        self.round_log: Optional[RoundLog] = RoundLog() if round_log else None
        self._round_anchor = 0
        self._round_sent = 0
        self._round_started_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> None:
        """Send the SYN and start the handshake."""
        if self.state != "closed":
            return
        self.state = "syn_sent"
        self._send_syn()

    def _send_syn(self) -> None:
        self.syn_sent_at = self.sim.now
        packet = Packet(self.flow_id, SYN, size=HEADER_BYTES, pool_id=self.pool_id)
        if self.obs is not None:
            self.obs.sent(self, packet, self.sim.now)
        self._emit(packet)
        timeout = self.SYN_TIMEOUT * (2 ** min(self.stats.syn_retries, self.SYN_BACKOFF_CAP))
        self._syn_timer = self.sim.schedule(timeout, self._on_syn_timeout)

    def _on_syn_timeout(self) -> None:
        if self.state != "syn_sent":
            return
        if self.stats.syn_retries >= self.MAX_SYN_RETRIES:
            self.state = "failed"
            return
        self.stats.syn_retries += 1
        if self.obs is not None:
            self.obs.syn_retry(self, self.sim.now)
        self._send_syn()

    @property
    def done(self) -> bool:
        return self.state == "done"

    # ------------------------------------------------------------------
    # Window bookkeeping
    # ------------------------------------------------------------------
    def _pipe(self) -> int:
        """Outstanding, un-SACKed segments."""
        outstanding = self.snd_next - self.snd_una
        if self.sack_enabled and self._scoreboard:
            outstanding -= sum(1 for s in self._scoreboard if self.snd_una <= s < self.snd_next)
        return max(0, outstanding)

    def _effective_cwnd(self) -> int:
        cwnd = self.cwnd
        if self.max_cwnd is not None:
            cwnd = min(cwnd, self.max_cwnd)
        return max(1, int(cwnd))

    def _data_limit(self) -> int:
        """One past the last segment the application has to send."""
        if self.total_segments is None:
            return 1 << 62
        return self.total_segments

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _emit(self, packet: Packet) -> None:
        """Stamp *packet* for its path and hand it to *transmit*, after
        the host's jitter when there is one."""
        packet.dst = self.dst
        packet.extra_delay = self.extra_delay
        jitter = self.jitter_random
        if jitter is None:
            self._transmit(packet)
        else:
            # random.uniform(0.0, tx_jitter) without its frame: it returns
            # 0.0 + (tx_jitter - 0.0) * random(), which is exactly this.
            self.sim.schedule(self.tx_jitter * jitter(), self._transmit, (packet,))

    def _send_segment(self, seq: int, retransmit: bool) -> None:
        packet = Packet(
            self.flow_id,
            DATA,
            seq=seq,
            size=self.mss,
            is_retransmit=retransmit,
            pool_id=self.pool_id,
        )
        if retransmit:
            self.stats.retransmits += 1
            if seq == self._timed_seq:
                # Karn: the timed segment became ambiguous.  Only a first
                # transmission is ever timed, so no record of which
                # segments were retransmitted is needed.
                self._timed_seq = None
            if self.obs is not None:
                self.obs.retransmit(self, packet, self.sim.now)
        else:
            self.stats.data_sent += 1
            if self._timed_seq is None:
                # Classic one-segment-per-window RTT timing: start the
                # clock on a fresh segment and sample when the ack
                # covers it.  Per-segment sampling would mis-attribute
                # whole recovery stalls to the RTT whenever a cumulative
                # ack jumps over segments buffered before the stall.
                self._timed_seq = seq
                self._timed_at = self.sim.now
        if self.round_log is not None:
            if self._round_sent == 0:
                self._round_started_at = self.sim.now
            self._round_sent += 1
        if self.obs is not None:
            self.obs.sent(self, packet, self.sim.now)
        # _emit, inline: one frame per data segment fewer.
        packet.dst = self.dst
        packet.extra_delay = self.extra_delay
        jitter = self.jitter_random
        if jitter is None:
            self._transmit(packet)
        else:
            self.sim.schedule(self.tx_jitter * jitter(), self._transmit, (packet,))
        # Arm the retransmission timer unless one is pending.
        timer = self._timer
        if timer is None or timer.cancelled or timer.fired:
            self._timer = self.sim.schedule(self.rto.rto, self._on_timeout)

    def _try_send(self) -> None:
        if self.state != "established":
            return
        # _data_limit, _effective_cwnd and, without SACK, _pipe inline:
        # this loop runs on every ACK.  Sending never moves cwnd, so the
        # effective window is read once.
        limit = self.total_segments
        if limit is None:
            limit = 1 << 62
        cwnd = self.cwnd
        if self.max_cwnd is not None and self.max_cwnd < cwnd:
            cwnd = self.max_cwnd
        cwnd = int(cwnd)
        if cwnd < 1:
            cwnd = 1
        sack = self.sack_enabled
        while self.snd_next < limit and (
            self._pipe() if sack else self.snd_next - self.snd_una
        ) < cwnd:
            seq = self.snd_next
            if sack and seq in self._scoreboard:
                # Receiver already holds this one; skip without sending.
                self.snd_next += 1
                continue
            retransmit = seq < self.high_water
            self.snd_next = seq + 1
            if seq >= self.high_water:
                self.high_water = seq + 1
            self._send_segment(seq, retransmit)
        if sack and self.in_recovery:
            self._sack_retransmit_holes()

    def _sack_retransmit_holes(self) -> None:
        """During SACK recovery, resend holes the scoreboard marks lost.

        A hole is considered lost once at least DUPACK_THRESHOLD segments
        above it have been SACKed (RFC 6675's DupThresh rule) — segments
        merely un-SACKed above the highest SACK block are still in
        flight, not lost.
        """
        if not self._scoreboard:
            return
        sacked_sorted = sorted(s for s in self._scoreboard if s > self.snd_una)
        cwnd = self._effective_cwnd()
        seq = self.snd_una
        while self._pipe() < cwnd and seq <= self.recover:
            if seq not in self._scoreboard and seq not in self._recovery_retx:
                sacked_above = len(sacked_sorted) - bisect.bisect_right(sacked_sorted, seq)
                if sacked_above < self.DUPACK_THRESHOLD:
                    break  # higher holes have even fewer SACKs above them
                self._recovery_retx.add(seq)
                self._send_segment(seq, retransmit=True)
            seq += 1

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, now: float) -> None:
        """Consume an ACK or SYNACK from the reverse path."""
        if packet.kind == SYNACK:
            self._on_synack(now)
            return
        if packet.kind != ACK or self.state != "established":
            return
        if packet.sack and self.sack_enabled:
            for lo, hi in packet.sack:
                self._scoreboard.update(range(lo, hi))
        ack_seq = packet.ack_seq
        if ack_seq > self.snd_una:
            self._on_new_ack(ack_seq, now)
        elif ack_seq == self.snd_una and self.snd_next > self.snd_una:
            self._on_dupack(now)
        self._try_send()

    def _on_synack(self, now: float) -> None:
        if self.state != "syn_sent":
            return
        if self._syn_timer is not None:
            self._syn_timer.cancel()
        self.state = "established"
        if self.obs is not None:
            self.obs.established(self, now)
        if self.stats.syn_retries == 0:
            self.rto.sample(now - self.syn_sent_at)
        if self.total_segments == 0:
            self._complete(now)
            return
        self._try_send()

    def _on_new_ack(self, ack_seq: int, now: float) -> None:
        if self.round_log is not None and ack_seq > self._round_anchor:
            # The ack clock ticked past this round's anchor: close it at
            # the outcome event — in the Markov chain a flow occupies a
            # window state from its transmissions until the transition
            # (ack or timeout) realizes, so the round spans that time
            # and only the wait *beyond* it counts as silent epochs.
            self.round_log.record(self._round_started_at, now, self._round_sent)
            self._round_sent = 0
            self._round_anchor = self.snd_next
        newly_acked = ack_seq - self.snd_una
        # RTT sample from the timed segment, if this ack covers it (a
        # retransmission of it cleared the timing, by Karn's rule).
        if self._timed_seq is not None and ack_seq > self._timed_seq:
            self.rto.sample(now - self._timed_at)
            self._timed_seq = None
        # The scoreboard is empty on most ACKs: test before walking the range.
        if self._scoreboard:
            for seq in range(self.snd_una, ack_seq):
                self._scoreboard.discard(seq)
        self.snd_una = ack_seq
        if ack_seq > self.snd_next:
            self.snd_next = ack_seq
        self.dupacks = 0

        if self.in_recovery:
            if ack_seq > self.recover:
                # Full ACK: leave recovery, deflate to ssthresh.
                self.in_recovery = False
                self._recovery_retx.clear()
                self.cwnd = self.ssthresh
            else:
                # Partial ACK (NewReno): retransmit the next hole, deflate.
                self.cwnd = max(self.ssthresh, self.cwnd - newly_acked + 1)
                if not self.sack_enabled:
                    self._send_segment(self.snd_una, retransmit=True)
        else:
            cwnd = self.cwnd
            if cwnd < self.ssthresh:
                cwnd += 1.0  # slow start: +1 per new ACK
            else:
                cwnd += 1.0 / (cwnd if cwnd > 1.0 else 1.0)  # congestion avoidance
            if self.max_cwnd is not None and self.max_cwnd < cwnd:
                cwnd = self.max_cwnd
            self.cwnd = cwnd

        if self.total_segments is not None and self.snd_una >= self.total_segments:
            self._complete(now)
            return
        self._restart_timer()

    def _on_dupack(self, now: float) -> None:
        self.dupacks += 1
        if not self.in_recovery and self.dupacks == self.DUPACK_THRESHOLD:
            self._fast_retransmit(now)
        elif self.in_recovery and self.dupacks > self.DUPACK_THRESHOLD:
            self.cwnd += 1.0  # window inflation while the hole persists

    def _fast_retransmit(self, now: float) -> None:
        self.stats.fast_retransmits += 1
        if self.obs is not None:
            self.obs.fast_retransmit(self, now)
        self.ssthresh = max(self._pipe() / 2.0, 2.0)
        self.in_recovery = True
        self.recover = self.snd_next - 1
        self._recovery_retx = {self.snd_una}
        self.cwnd = self.ssthresh + self.DUPACK_THRESHOLD
        if self.max_cwnd is not None:
            self.cwnd = min(self.cwnd, max(self.max_cwnd, self.ssthresh))
        self._send_segment(self.snd_una, retransmit=True)
        self._restart_timer()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _restart_timer(self) -> None:
        """Run the retransmission timer afresh from now while data is
        outstanding, else stop it.  The timer's event is re-armed in
        place (``Simulator.rearm``: the pop order of cancel + schedule,
        without a new event)."""
        timer = self._timer
        if self.snd_next > self.snd_una:
            if timer is None:
                self._timer = self.sim.schedule(self.rto.rto, self._on_timeout)
            else:
                self.sim.rearm(timer, self.rto.rto)
        elif timer is not None:
            timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        if self.state != "established" or self.snd_next <= self.snd_una:
            return
        now = self.sim.now
        self.stats.timeouts += 1
        self.stats.timeout_times.append(now)
        if self.round_log is not None:
            if self._round_sent:
                # The round that died with the timeout (its packets were
                # sent but never ack-clocked out).
                self.round_log.record(self._round_started_at, now, self._round_sent)
                self._round_sent = 0
            self._round_anchor = self.snd_una
        if self.rto.backoff_exponent > 0:
            self.stats.repetitive_timeouts += 1
        self.rto.backoff()
        self.stats.max_backoff_seen = max(
            self.stats.max_backoff_seen, self.rto.backoff_exponent
        )
        if self.obs is not None:
            self.obs.rto(self, now)
        self.ssthresh = max(self._pipe() / 2.0, 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_recovery = False
        self._recovery_retx.clear()
        self._timed_seq = None  # Karn: in-flight timing is now ambiguous
        # Slow-start go-back-N from the cumulative ACK point (the ns2
        # behaviour).  Everything below the old high-water mark counts
        # as a retransmission, so by Karn's rule the RTO backoff only
        # collapses once a genuinely fresh segment gets timed — exactly
        # the "new RTT measurement ... for newly transmitted (not
        # retransmitted) data" semantics the paper's model encodes.  A
        # consequence faithful TCP shares: a flow whose tail segment
        # keeps dying can crawl at max-RTO pace.
        self.snd_next = self.snd_una
        self._send_segment(self.snd_una, retransmit=True)
        self.snd_next = self.snd_una + 1
        self._restart_timer()

    # ------------------------------------------------------------------
    def _complete(self, now: float) -> None:
        self.state = "done"
        self.completed_at = now
        if self._timer is not None:
            self._timer.cancel()
        fin = Packet(self.flow_id, FIN, size=HEADER_BYTES, pool_id=self.pool_id)
        if self.obs is not None:
            self.obs.sent(self, fin, now)
        self._emit(fin)
        if self.obs is not None:
            self.obs.flow_done(self, now)
        if self.on_complete is not None:
            self.on_complete(now)
