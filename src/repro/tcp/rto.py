"""RFC 6298 retransmission-timer estimation with exponential backoff.

The RTO machinery is the heart of the paper's problem statement: in
small packet regimes flows live in the timeout states, and each
*repetitive* timeout doubles the backoff, producing the long silence
periods the Markov model's ``b*`` states aggregate.  The estimator here
implements the standard algorithm:

- first sample ``R``:       ``SRTT = R``, ``RTTVAR = R/2``
- later samples:            ``RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|``,
                            ``SRTT = 7/8 SRTT + 1/8 R``
- ``RTO = SRTT + max(G, 4 * RTTVAR)`` clamped to ``[min_rto, max_rto]``
- Karn's algorithm: no samples from retransmitted segments (enforced by
  the sender, which only feeds unambiguous samples here)
- backoff: ``RTO *= 2`` per timeout, collapsing back to the computed
  value when a new sample arrives.
"""

from __future__ import annotations


class RtoEstimator:
    """Retransmission timeout estimator.

    Parameters
    ----------
    min_rto:
        Lower clamp on the timeout.  RFC 6298 says 1 second; Linux uses
        200 ms.  The paper's idealized model corresponds to
        ``T0 = 2 * RTT``, so experiments targeting the model sometimes
        set this to twice the propagation RTT.
    max_rto:
        Upper clamp (RFC allows >= 60 s).
    granularity:
        Clock granularity ``G`` in the RTO formula.
    max_backoff:
        Cap on the exponential backoff multiplier exponent, mirroring
        the bounded retry behaviour of real stacks.
    """

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0

    def __init__(
        self,
        min_rto: float = 1.0,
        max_rto: float = 60.0,
        granularity: float = 0.0,
        max_backoff: int = 16,
    ) -> None:
        if min_rto <= 0 or max_rto < min_rto:
            raise ValueError("require 0 < min_rto <= max_rto")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.granularity = granularity
        self.max_backoff = max_backoff
        self.srtt: float = 0.0
        self.rttvar: float = 0.0
        self.has_sample = False
        self.backoff_exponent = 0
        self._base_rto = min_rto if min_rto >= 1.0 else 1.0  # RFC 6298 initial 1s
        #: Current retransmission timeout, backoff applied, clamped.  A
        #: plain attribute, not a property: every timer (re)start reads
        #: it, and only the mutators below move its inputs.
        self.rto = 0.0
        self._refresh()

    # ------------------------------------------------------------------
    def sample(self, rtt: float) -> None:
        """Feed a round-trip-time measurement (seconds).

        Also collapses any accumulated backoff, per RFC 6298 §5.7: a new
        measurement means fresh information about the path.
        """
        if rtt < 0:
            raise ValueError("negative RTT sample")
        if not self.has_sample:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
            self.has_sample = True
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - rtt)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self._base_rto = self.srtt + max(self.granularity, 4.0 * self.rttvar)
        self.backoff_exponent = 0
        self._refresh()

    def backoff(self) -> None:
        """Double the timeout after a retransmission timeout fires."""
        if self.backoff_exponent < self.max_backoff:
            self.backoff_exponent += 1
            self._refresh()

    def reset_backoff(self) -> None:
        """Collapse backoff without a new sample (used on forward progress)."""
        self.backoff_exponent = 0
        self._refresh()

    def cap_backoff(self, cap: int) -> None:
        """Lower the backoff cap to *cap*, pulling the current exponent
        down to it (SPR mode's bounded doubling)."""
        self.max_backoff = cap
        if self.backoff_exponent > cap:
            self.backoff_exponent = cap
        self._refresh()

    def _refresh(self) -> None:
        """Recompute :attr:`rto` from the base timeout and the backoff."""
        value = self._base_rto * (2 ** self.backoff_exponent)
        # min(max_rto, max(min_rto, value)) without the two builtin calls.
        if not value > self.min_rto:
            value = self.min_rto
        self.rto = value if value < self.max_rto else self.max_rto

    @property
    def base_rto(self) -> float:
        """Timeout before backoff, clamped."""
        return min(self.max_rto, max(self.min_rto, self._base_rto))
