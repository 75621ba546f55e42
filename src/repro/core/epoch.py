"""Middlebox-side epoch (RTT) estimation (§3.3).

An *epoch* is the middlebox's notion of the flow's round-trip time.  Two
operating modes, per the paper:

- **two-way** (conventional): the middlebox sees ACKs, so it can match
  a data packet's sequence number against the first ACK covering it and
  feed the difference into a weighted moving average;
- **one-way**: the initial estimate is the SYN-to-first-data gap, then
  the estimate is revised by observing the short packet bursts that
  open each epoch of a flow in its normal states — gaps larger than the
  current estimate times a guard factor delimit bursts, and the
  inter-burst spacing feeds the same moving average.

The estimator is intentionally defensive: estimates are clamped to a
sane range and the weighted moving average damps one-off outliers,
reflecting §3.2's point that middlebox RTT estimation is too noisy to
drive the idealized model directly.
"""

from __future__ import annotations

from typing import Dict, Optional


class EpochEstimator:
    """Per-flow epoch estimation from passive observation.

    Parameters
    ----------
    default_epoch:
        Estimate used before any signal is available.
    alpha:
        Weight of a new measurement in the moving average.
    min_epoch, max_epoch:
        Clamps on the estimate.
    burst_gap_factor:
        In one-way mode, a gap of more than ``burst_gap_factor x
        estimate`` between data packets starts a new burst.
    """

    def __init__(
        self,
        default_epoch: float = 0.2,
        alpha: float = 0.25,
        min_epoch: float = 0.01,
        max_epoch: float = 5.0,
        burst_gap_factor: float = 0.5,
    ) -> None:
        self.default_epoch = default_epoch
        self.alpha = alpha
        self.min_epoch = min_epoch
        self.max_epoch = max_epoch
        self.burst_gap_factor = burst_gap_factor
        #: Current epoch-length estimate, seconds; the prior until the
        #: first sample.  A plain attribute: the tracker reads it on
        #: every packet.
        self.estimate = default_epoch
        self._syn_time: Optional[float] = None
        self._first_data_seen = False
        # Two-way matching: outstanding data sequence -> send time.  A
        # bounded dict: entries are dropped once matched or superseded.
        self._pending: Dict[int, float] = {}
        self._last_data_time: Optional[float] = None
        self._burst_start: Optional[float] = None
        self.samples = 0

    # ------------------------------------------------------------------
    def _feed(self, measurement: float) -> None:
        measurement = min(self.max_epoch, max(self.min_epoch, measurement))
        if self.samples == 0:
            self.estimate = measurement
        else:
            self.estimate += self.alpha * (measurement - self.estimate)
        self.samples += 1

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def observe_syn(self, now: float) -> None:
        self._syn_time = now

    def observe_data(self, seq: int, now: float) -> None:
        """Record a forwarded data packet (both modes)."""
        if not self._first_data_seen:
            self._first_data_seen = True
            if self._syn_time is not None:
                # One-way bootstrap: SYN to first data spans one RTT
                # (SYN->SYNACK->request->response collapses to ~1 RTT at
                # the middlebox when it sits near the server side).
                self._feed(now - self._syn_time)
        else:
            self._observe_burst_gap(now)
        if len(self._pending) < 64:
            self._pending.setdefault(seq, now)
        self._last_data_time = now

    def observe_ack(self, ack_seq: int, now: float) -> None:
        """Record a reverse-path ACK (two-way mode only)."""
        # Sample against the newest data packet this ACK covers: older
        # covered packets include queueing of earlier epochs and would
        # overestimate the RTT.
        best_seq = -1
        for seq in self._pending:
            if seq < ack_seq and seq > best_seq:
                best_seq = seq
        if best_seq >= 0:
            self._feed(now - self._pending[best_seq])
            self._pending = {s: t for s, t in self._pending.items() if s >= ack_seq}

    def _observe_burst_gap(self, now: float) -> None:
        """One-way refinement: bursts open epochs in normal states."""
        if self._last_data_time is None:
            return
        gap = now - self._last_data_time
        if gap > self.burst_gap_factor * self.estimate:
            # New burst: inter-burst start-to-start spacing samples the epoch.
            if self._burst_start is not None:
                self._feed(now - self._burst_start)
            self._burst_start = now
        elif self._burst_start is None:
            self._burst_start = now
