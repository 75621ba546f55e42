"""Flow-pool admission control (§4.3).

When the drop rate at the TAQ queue crosses the model's tipping point
(``p_thresh = 0.1`` — see :func:`repro.model.analysis.find_tipping_point`)
the middlebox stops admitting *new flow pools* so that flows already
admitted can keep making progress instead of everyone spiralling into
repetitive timeouts.

A *flow pool* is a set of inter-related flows from the same application
session (e.g. one browser's connection pool); the paper identifies them
by source and arrival time, and this reproduction carries an explicit
``pool_id`` on packets as the stand-in.  The admission rules:

- a flow is admitted if its pool is already admitted;
- a new pool is admitted when the measured loss rate is below
  ``p_thresh * safety_margin`` (the margin keeps admission slightly
  congestion-avoiding);
- a pool that has waited ``t_wait`` seconds is force-admitted, *paced
  at one pool per* ``t_wait`` ("after a specific wait time, Twait, the
  user is guaranteed admission for one flow pool"), so rejected users
  drain through a bounded queue instead of stampeding back in together;
  ``t_wait`` is kept below the TCP SYN give-up time so the pending SYN
  retry completes the connection.

The controller measures the loss rate over sliding intervals of
``measure_interval`` seconds using the drop/arrival counters the TAQ
queue feeds it.
"""

from __future__ import annotations

from typing import Dict


class AdmissionController:
    """Pool-granularity admission control.

    Parameters
    ----------
    p_thresh:
        Loss-rate tipping point beyond which new pools are refused.
    safety_margin:
        New pools are admitted only while ``loss < p_thresh * margin``.
    t_wait:
        Guaranteed admission latency for a waiting pool, seconds.
    measure_interval:
        Sliding loss-rate measurement window, seconds.
    pool_idle_timeout:
        Admitted pools with no traffic for this long are forgotten.
    """

    def __init__(
        self,
        p_thresh: float = 0.1,
        safety_margin: float = 0.9,
        t_wait: float = 3.0,
        measure_interval: float = 2.0,
        pool_idle_timeout: float = 60.0,
    ) -> None:
        if not 0 < p_thresh < 1:
            raise ValueError("p_thresh must be in (0, 1)")
        self.p_thresh = p_thresh
        self.safety_margin = safety_margin
        self.t_wait = t_wait
        self.measure_interval = measure_interval
        self.pool_idle_timeout = pool_idle_timeout

        self.admitted: Dict[int, float] = {}  # pool -> last activity
        self.waiting: Dict[int, float] = {}   # pool -> first refusal time
        self._last_force_admit = float("-inf")
        self._arrivals = 0
        self._drops = 0
        self._window_start = 0.0
        self._loss_rate = 0.0
        self.refused = 0
        self.force_admitted = 0

    # ------------------------------------------------------------------
    # Loss-rate measurement (fed by the TAQ queue)
    # ------------------------------------------------------------------
    # Both notes test _roll's guard themselves: the window closes once
    # per measure_interval, and a packet arrives on every call.
    def note_arrival(self, now: float) -> None:
        if not now - self._window_start < self.measure_interval:
            self._roll(now)
        self._arrivals += 1

    def note_drop(self, now: float) -> None:
        if not now - self._window_start < self.measure_interval:
            self._roll(now)
        self._drops += 1

    def _roll(self, now: float) -> None:
        """Close the measurement window (its interval has elapsed)."""
        if self._arrivals > 0:
            measured = self._drops / self._arrivals
            # EWMA so one quiet interval does not reopen the gates.
            self._loss_rate += 0.5 * (measured - self._loss_rate)
        self._arrivals = 0
        self._drops = 0
        self._window_start = now

    @property
    def loss_rate(self) -> float:
        """Smoothed drop-rate estimate at the queue."""
        return self._loss_rate

    # ------------------------------------------------------------------
    # Admission decisions
    # ------------------------------------------------------------------
    def admits(self, pool_id: int, now: float) -> bool:
        """Decide whether a packet of *pool_id* may enter the system.

        Pool id -1 (no pool information) is always admitted — admission
        control only acts on traffic that carries session identity.
        """
        if pool_id == -1:
            return True
        self._gc(now)
        if pool_id in self.admitted:
            # To the end of the table: it stays in last-activity order.
            del self.admitted[pool_id]
            self.admitted[pool_id] = now
            return True
        if self._loss_rate < self.p_thresh * self.safety_margin:
            self._admit(pool_id, now)
            return True
        # Guaranteed admission after t_wait, paced at one pool per
        # t_wait so the waiting queue drains instead of stampeding.
        waited_since = self.waiting.get(pool_id)
        if (
            waited_since is not None
            and now - waited_since >= self.t_wait
            and now - self._last_force_admit >= self.t_wait
        ):
            self._admit(pool_id, now)
            self.force_admitted += 1
            self._last_force_admit = now
            return True
        self.waiting.setdefault(pool_id, now)
        self.refused += 1
        return False

    def _admit(self, pool_id: int, now: float) -> None:
        self.admitted[pool_id] = now
        self.waiting.pop(pool_id, None)

    # ------------------------------------------------------------------
    # User feedback (§4.3: "maintaining a visible queue of requests with
    # expected wait times and finish times for each browsing request" —
    # the hook a RuralCafe-style proxy or a spoofed HTTP 503 would use).
    # ------------------------------------------------------------------
    def expected_wait(self, pool_id: int, now: float) -> float:
        """Seconds until *pool_id* is guaranteed admission.

        0 for admitted (or unpooled) traffic.  For a waiting pool: its
        FIFO position in the drain queue times the pacing interval, plus
        the time until the next force-admission slot opens.  A pool not
        yet enqueued gets the estimate as if it asked right now.
        """
        if pool_id == -1 or pool_id in self.admitted:
            return 0.0
        if (
            pool_id not in self.waiting
            and self._loss_rate < self.p_thresh * self.safety_margin
        ):
            return 0.0  # the gate is open: a new pool walks right in
        ordered = sorted(self.waiting.items(), key=lambda item: item[1])
        position = len(ordered)  # default: joins at the tail
        for index, (pool, _since) in enumerate(ordered):
            if pool == pool_id:
                position = index
                break
        # The queue starts draining when the pacing slot opens AND the
        # head pool has ripened; each position behind waits one more
        # t_wait.  A pool is never admitted before its own ripeness.
        next_slot = max(0.0, self._last_force_admit + self.t_wait - now)
        head_since = ordered[0][1] if ordered else now
        head_ripeness = max(0.0, head_since + self.t_wait - now)
        estimate = max(next_slot, head_ripeness) + position * self.t_wait
        since = self.waiting.get(pool_id)
        own_ripeness = max(0.0, since + self.t_wait - now) if since is not None else 0.0
        return max(own_ripeness, estimate)

    def queue_snapshot(self, now: float) -> list:
        """The visible waiting queue: ``[(pool, waited_s, expected_s)]``
        in FIFO order."""
        ordered = sorted(self.waiting.items(), key=lambda item: item[1])
        return [
            (pool, now - since, self.expected_wait(pool, now))
            for pool, since in ordered
        ]

    def _gc(self, now: float) -> None:
        """Forget the pools idle for longer than ``pool_idle_timeout``.

        ``admitted`` is in last-activity order: an admission appends, a
        refresh moves its pool to the end, and the clock never runs
        backwards.  So the idle pools are a prefix of the table, and the
        scan stops at the first live one.
        """
        stale = []
        for pool, last in self.admitted.items():
            if not now - last > self.pool_idle_timeout:
                break
            stale.append(pool)
        for pool in stale:
            del self.admitted[pool]
