"""SPR-TCP: an end-host congestion control for small packet regimes.

The paper closes with: "In the future we plan to investigate end-host
congestion control mechanisms for small packet regimes."  This module
is that investigation, built directly on the paper's own analysis of
*why* TCP breaks in the regime:

1. every loss at cwnd < 4 is a timeout (no 3 dupACKs), and
2. exponential RTO backoff turns consecutive timeouts into the
   extended silences whose arbitrariness destroys short-term fairness.

SPR-TCP leaves TCP untouched until it detects it is *in* the regime —
consecutive timeouts with a pinned-down window — then flips into SPR
mode:

- **bounded backoff**: the retransmission timer doubles at most once
  (a flow probing a saturated queue learns nothing from waiting 8, 16,
  32 RTOs; the silence lottery is what creates the unfairness);
- **pacing**: at most ``SPR_WINDOW_CAP`` packets outstanding, spaced by
  ``SRTT / window`` rather than ack-clocked bursts, so the bounded
  backoff does not translate into synchronized blasting.

It exits SPR mode once the window grows past ``SPR_EXIT_CWND`` without
a timeout — i.e. when the network stops looking like a small packet
regime, it behaves exactly like NewReno again.

Measured trade-off (see ``tests/experiments/test_verdicts.py`` and EXPERIMENTS.md):
when *all* flows adopt SPR-TCP over a plain DropTail bottleneck,
short-term fairness recovers to TAQ-like levels with near-zero shut-out
flows, in exchange for a markedly higher bottleneck loss rate (the
bounded backoff keeps everyone knocking).  It is a different point in
the design space than TAQ — pay with upstream retransmissions instead
of middlebox deployment — and, like the paper predicts for end-host
fixes, it cannot protect itself against non-SPR flows the way an
in-network scheduler can.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.events import Event
from repro.tcp.sender import TCPSender


class SprSender(TCPSender):
    """NewReno with a small-packet-regime mode (see module docstring)."""

    #: Consecutive timeouts before SPR mode engages.
    SPR_ENTER_TIMEOUTS = 2
    #: Window cap while paced in SPR mode.
    SPR_WINDOW_CAP = 2
    #: Leaving SPR mode: the window grew past this without a timeout.
    SPR_EXIT_CWND = 4.0
    #: Backoff exponent cap while in SPR mode (1 = at most one doubling).
    SPR_BACKOFF_CAP = 1

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spr_mode = False
        self.spr_entries = 0
        self._consecutive_timeouts = 0
        self._normal_backoff_cap = self.rto.max_backoff
        self._pace_timer: Optional[Event] = None

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def _enter_spr(self) -> None:
        if self.spr_mode:
            return
        self.spr_mode = True
        self.spr_entries += 1
        self.rto.cap_backoff(self.SPR_BACKOFF_CAP)

    def _exit_spr(self) -> None:
        if not self.spr_mode:
            return
        self.spr_mode = False
        self.rto.max_backoff = self._normal_backoff_cap
        if self._pace_timer is not None:
            self._pace_timer.cancel()
            self._pace_timer = None

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _on_timeout(self) -> None:
        fired = self.state == "established" and self.snd_next > self.snd_una
        super()._on_timeout()
        if not fired:
            return
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts >= self.SPR_ENTER_TIMEOUTS:
            self._enter_spr()

    def _on_new_ack(self, ack_seq: int, now: float) -> None:
        super()._on_new_ack(ack_seq, now)
        self._consecutive_timeouts = 0
        if self.spr_mode and self.cwnd >= self.SPR_EXIT_CWND:
            self._exit_spr()

    # ------------------------------------------------------------------
    # Paced transmission in SPR mode
    # ------------------------------------------------------------------
    def _pace_interval(self) -> float:
        rtt = self.rto.srtt if self.rto.has_sample else 0.2
        window = max(1, min(self._effective_cwnd(), self.SPR_WINDOW_CAP))
        return max(1e-3, rtt / window)

    def _try_send(self) -> None:
        if not self.spr_mode:
            super()._try_send()
            return
        if self.state != "established":
            return
        if self._pace_timer is not None and self._pace_timer.pending:
            return  # a paced transmission is already scheduled
        limit = self._data_limit()
        window = min(self._effective_cwnd(), self.SPR_WINDOW_CAP)
        if self._pipe() >= window or self.snd_next >= limit:
            return
        seq = self.snd_next
        if self.sack_enabled and seq in self._scoreboard:
            self.snd_next += 1
            self._pace_timer = self.sim.schedule(self._pace_interval(), self._try_send)
            return
        retransmit = seq < self.high_water
        self.snd_next += 1
        self.high_water = max(self.high_water, self.snd_next)
        self._send_segment(seq, retransmit)
        # One packet per pace tick: schedule the next opportunity.
        self._pace_timer = self.sim.schedule(self._pace_interval(), self._try_send)

    def _complete(self, now: float) -> None:
        if self._pace_timer is not None:
            self._pace_timer.cancel()
        super()._complete(now)
