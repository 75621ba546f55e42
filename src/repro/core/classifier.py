"""Epoch-boundary state classification (the Fig 7 transition rules).

The classifier is a pure function from one epoch's observations (plus
the previous state) to the next state, and the one place the rules are
written.  It reads the observation's six fields by name and nothing
else, so at the epoch boundary the tracker passes its
:class:`~repro.core.tracker.FlowRecord`, which carries them, as the
observation; :class:`EpochObservation` is the same input spelled out,
for every other caller.  It encodes §3.3/§4.1:

- growth in new packets across epochs distinguishes SLOW_START from
  NORMAL;
- a drop at the TAQ queue moves the flow into LOSS_RECOVERY, where the
  middlebox expects mostly retransmissions until the deficit clears;
- silence following losses is TIMEOUT_SILENCE; retransmissions arriving
  after a silence are TIMEOUT_RECOVERY; silence lasting multiple epochs
  is EXTENDED_SILENCE (repetitive timeouts);
- silence with no loss history is DORMANT (nothing to send).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.states import FlowState

#: New-packet growth ratio above which an epoch looks like slow start.
SLOW_START_GROWTH = 1.5
#: Consecutive silent epochs after a timeout before the silence counts
#: as "extended" (repetitive timeouts).
EXTENDED_SILENCE_EPOCHS = 2


@dataclass
class EpochObservation:
    """What the middlebox saw from one flow during one epoch."""

    new_packets: int = 0
    retransmissions: int = 0
    drops: int = 0
    prev_new_packets: int = 0
    #: Dropped packets not yet seen retransmitted (recovery deficit).
    outstanding_drops: int = 0
    #: Consecutive fully-silent epochs ending with this one.
    silent_epochs: int = 0


def classify_epoch(state: FlowState, obs: EpochObservation) -> FlowState:
    """Next state of a flow given its previous *state* and one epoch's
    observations *obs*."""
    active = obs.new_packets + obs.retransmissions > 0

    if not active:
        return _classify_silent(state, obs)

    if obs.retransmissions > 0:
        # Retransmissions after a silence mean the RTO fired and the
        # flow is climbing out; otherwise it is ordinary loss recovery.
        if state in (
            FlowState.TIMEOUT_SILENCE,
            FlowState.EXTENDED_SILENCE,
            FlowState.TIMEOUT_RECOVERY,
        ):
            return FlowState.TIMEOUT_RECOVERY
        return FlowState.LOSS_RECOVERY

    if obs.drops > 0 or obs.outstanding_drops > 0:
        return FlowState.LOSS_RECOVERY

    # Loss-free, new data only.
    if state == FlowState.TIMEOUT_RECOVERY:
        # Successful retransmissions recovered the flow: slow start.
        return FlowState.SLOW_START
    prev = obs.prev_new_packets
    if obs.new_packets > (prev if prev > 1 else 1) * SLOW_START_GROWTH:
        return FlowState.SLOW_START
    return FlowState.NORMAL


def _classify_silent(state: FlowState, obs: EpochObservation) -> FlowState:
    if state in (FlowState.NORMAL, FlowState.SLOW_START) and obs.outstanding_drops == 0:
        # No loss history: the application simply has nothing to send.
        return FlowState.DORMANT
    if state == FlowState.DORMANT:
        return FlowState.DORMANT
    if obs.silent_epochs >= EXTENDED_SILENCE_EPOCHS or state in (
        FlowState.TIMEOUT_SILENCE,
        FlowState.EXTENDED_SILENCE,
    ):
        return FlowState.EXTENDED_SILENCE
    return FlowState.TIMEOUT_SILENCE
