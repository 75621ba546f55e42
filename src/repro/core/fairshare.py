"""Fair-share computation for the Below/Above split (§4.2, §4.3).

TAQ supports:

- the standard **fair-queuing** model (every active flow gets
  ``capacity / n_active``) — what the paper evaluates;
- the **proportional** model (shares proportional to ``1/RTT``, so
  shorter-RTT flows — which TCP itself favours — keep proportionally
  larger allocations; §4.2's footnote);
- **pool granularity** (§4.3: "TAQ can implement fair sharing across
  flow pools instead of across individual flows to maintain fairness
  across applications"): capacity splits equally across active pools,
  then equally among each pool's active flows, so a browser opening 8
  connections gets no more than one opening 2.
"""

from __future__ import annotations

from repro.core.tracker import FlowRecord, FlowTracker


class FairShareEstimator:
    """A flow's fair share, against which ``TAQQueue.enqueue`` classifies
    it as below or above (``rate_bps > share * headroom``).

    Parameters
    ----------
    tracker:
        The flow table (provides activity census and rate estimates).
    capacity_bps:
        Bottleneck capacity.  Usually injected by the owning TAQ queue
        once it is attached to a link.
    model:
        ``"fair-queuing"`` (default) or ``"proportional"``.
    granularity:
        ``"flow"`` (default) or ``"pool"`` — the §4.3 per-application
        fairness.  Flows without pool identity (pool -1) each count as
        their own pool.
    headroom:
        A flow is "above" its share only beyond ``share * headroom``,
        keeping flows hovering at their share from flapping between
        queues.
    """

    def __init__(
        self,
        tracker: FlowTracker,
        capacity_bps: float = 0.0,
        model: str = "fair-queuing",
        granularity: str = "flow",
        headroom: float = 1.1,
    ) -> None:
        if model not in ("fair-queuing", "proportional"):
            raise ValueError(f"unknown fairness model {model!r}")
        if granularity not in ("flow", "pool"):
            raise ValueError(f"unknown fairness granularity {granularity!r}")
        self.tracker = tracker
        self.capacity_bps = capacity_bps
        self.model = model
        self.granularity = granularity
        self.headroom = headroom

    # ------------------------------------------------------------------
    def fair_share_bps(self, record: FlowRecord, now: float) -> float:
        """This flow's fair share under the configured model."""
        tracker = self.tracker
        if self.granularity == "pool":
            census = tracker.active_per_pool(now)
            n_pools = max(1, len(census))
            flows_in_pool = max(1, census.get(record.census_key(), 1))
            return self.capacity_bps / n_pools / flows_in_pool
        equal_share = self.capacity_bps / tracker.active_flows(now)
        if self.model == "fair-queuing":
            return equal_share
        # Proportional: weight by 1/RTT, normalized across active flows.
        # A float sum in table order, so it stays a walk: a running
        # add/subtract total would not be bit-identical.  The census
        # was just brought to *now*, so ``active`` is the predicate.
        inverse_rtt_sum = 0.0
        for other in self.tracker.flows.values():
            if other.active:
                inverse_rtt_sum += 1.0 / max(1e-3, other.epoch_length)
        if inverse_rtt_sum <= 0:
            return equal_share
        weight = (1.0 / max(1e-3, record.epoch_length)) / inverse_rtt_sum
        return self.capacity_bps * weight
