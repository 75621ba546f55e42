"""The mean-field fluid integrator — window-state histograms over time.

The packet backend simulates every packet of every flow; this module
simulates the *distribution* of flows over the partial model's window
states (McDonald–Reynier, PAPERS.md).  Flows are grouped into
*classes* (same RTT, exchangeable within the class); each class carries
a histogram ``h[c, s]`` = expected number of class-``c`` flows in chain
state ``s``, and one shared bottleneck queue level ``q`` couples the
classes.  Everything advances by explicit fixed-step Euler updates:

- the per-class epoch length is ``R[c] = rtt_c + q / capacity_pps``
  (propagation plus queueing delay);
- each state offers ``sent[s]`` packets per epoch, so the offered rate
  is ``rate[c, s] = h[c, s] * sent[s] / R[c]`` packets/second;
- the queue *discipline* (see :mod:`repro.fluid.disciplines`) turns the
  offered load and queue level into a per-class, per-state drop
  probability ``p[c, s]``;
- the queue integrates ``dq/dt = accepted - served`` clipped to the
  buffer, and each histogram relaxes toward its chain one epoch per
  ``R[c]`` seconds: ``h += (dt / R[c]) * (h @ T(p[c]) - h)`` — the
  uniformized continuous-time version of the per-epoch jump chain,
  which preserves the chain's stationary distribution exactly (that is
  what makes the fluid-vs-:mod:`repro.model` cross-check principled).

Cost per step is ``O(classes * wmax^2)`` — independent of the number of
flows, which is why N = 10^6 runs in milliseconds per simulated second
where the packet backend would need days.

Drop probabilities are used twice at different clips: the *accounting*
probability ``p_queue`` (whatever the discipline said, up to 1) drives
loss-rate and goodput bookkeeping, while the *chain* probability is
clipped to :data:`repro.model.population.P_CHAIN_MAX` before building
the transition matrix (the chain diverges at 0.5).  Any step where the
two disagree marks the run as outside the validity envelope
(``FluidResult.valid = False``); see ``docs/fluid.md``.

Conservation is monitored, not assumed: every step checks that each
class's histogram mass still equals its flow count, stays nonnegative,
and remains finite, and that the queue respects its bounds.  Breaches
are recorded as :class:`repro.check.monitors.Violation` objects so the
fuzzer and CI treat fluid invariants exactly like packet invariants.
The ``fault_leak`` knob deliberately bleeds mass each step so the tests
can prove the monitor actually fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.check.monitors import Violation
from repro.model.population import (
    P_CHAIN_MAX,
    packets_per_state,
    slice_moments,
    state_layout,
    transition_matrix,
)

#: Relative tolerance for the histogram-mass conservation monitor.
#: Euler steps multiply by a row-stochastic matrix, so mass is conserved
#: to float rounding (~1e-16/step); 1e-6 over any realistic step count
#: only trips on real leaks (or the injected ``fault_leak``).
MASS_RTOL = 1e-6

#: Violations recorded before the monitors go quiet (a leaking update
#: would otherwise produce one violation per step).
MAX_VIOLATIONS = 50


@dataclass(frozen=True)
class FluidClass:
    """One exchangeable group of flows: same RTT, shared histogram.

    ``parked`` flows exist but offer no load (TAQ admission control
    holding them at the gate); they count as zero-goodput members of
    the population in every fairness metric.
    """

    name: str
    n_flows: float
    rtt: float
    parked: float = 0.0

    def __post_init__(self) -> None:
        if self.n_flows < 0:
            raise ValueError("n_flows must be >= 0")
        if self.rtt <= 0:
            raise ValueError("rtt must be positive")
        if self.parked < 0:
            raise ValueError("parked must be >= 0")


@dataclass
class LinkState:
    """What a discipline sees each step (one bottleneck's instant)."""

    #: Current queue level, packets.
    q: float
    #: Total offered load, packets/second.
    offered_pps: float
    #: Per-class, per-state offered rate, packets/second.
    rate: np.ndarray
    #: Packets sent per epoch from each state (state-layout order).
    sent: np.ndarray
    #: Per-class epoch length, seconds.
    R: np.ndarray
    #: Integration step, seconds.
    dt: float
    #: Bottleneck service rate, packets/second.
    capacity_pps: float
    #: Buffer limit, packets.
    buffer_pkts: float
    #: Per-class fair-share window, packets per epoch.
    fair_window: np.ndarray
    #: Simulated time at the start of the step.
    time: float


#: A discipline maps the link state to per-class/state drop
#: probabilities — shape ``(n_classes, n_states)`` (or broadcastable).
Discipline = Callable[[LinkState], np.ndarray]


@dataclass
class FluidResult:
    """Summary metrics of one fluid run — the packet backend's set."""

    duration: float
    dt: float
    steps: int
    wmax: int
    capacity_pps: float
    buffer_pkts: float
    #: dropped / offered, over the whole run.
    loss_rate: float
    offered_pkts: float
    dropped_pkts: float
    delivered_pkts: float
    #: Time-average queue level, packets.
    mean_queue_pkts: float
    #: ``{"p50": ..., "p90": ..., "p99": ...}`` of the queue samples.
    queue_percentiles: Dict[str, float]
    #: served / (capacity * duration).
    utilization: float
    #: Per-class goodput, packets/second (admitted flows only).
    per_class_goodput_pps: Dict[str, float]
    short_term_jain: float
    long_term_jain: float
    #: Expected retransmission timeouts over the run (population total).
    timeouts: float
    #: False when any step's drop probability exceeded the chain's
    #: validity clip (:data:`P_CHAIN_MAX`) — metrics are then
    #: extrapolations, not model predictions.
    valid: bool
    #: Flows held at the gate by admission control (zero goodput).
    parked_flows: float
    #: Final per-class histograms, rows summing to each class's count.
    final_histogram: np.ndarray
    violations: List[Violation] = field(default_factory=list)


class FluidModel:
    """Deterministic fixed-step integrator for one bottleneck.

    Parameters
    ----------
    classes:
        Flow classes sharing the bottleneck.  Internally sorted by
        ``(rtt, n_flows, name)`` so results are bit-identical under any
        input permutation (summation order is part of the float
        contract).
    capacity_pps, buffer_pkts:
        Bottleneck service rate and buffer, in packets.
    discipline:
        Drop model (see :mod:`repro.fluid.disciplines`).
    wmax:
        Maximum congestion window of the underlying chain.
    dt:
        Euler step.  Defaults to ``min(rtt) / 8`` — comfortably inside
        the ``dt <= min(R)`` positivity bound of the uniformized update.
    fault_leak:
        *Deliberate* bug injection for the test campaign: bleed this
        fraction of histogram mass per second so the conservation
        monitor provably fires.
    """

    def __init__(
        self,
        classes: Sequence[FluidClass],
        capacity_pps: float,
        buffer_pkts: float,
        discipline: Discipline,
        *,
        wmax: int = 6,
        dt: Optional[float] = None,
        slice_seconds: float = 20.0,
        fault_leak: float = 0.0,
    ) -> None:
        if not classes:
            raise ValueError("at least one flow class is required")
        if capacity_pps <= 0:
            raise ValueError("capacity_pps must be positive")
        if buffer_pkts < 0:
            raise ValueError("buffer_pkts must be >= 0")
        self.classes = tuple(sorted(classes, key=lambda c: (c.rtt, c.n_flows, c.name)))
        self.capacity_pps = float(capacity_pps)
        self.buffer_pkts = float(buffer_pkts)
        self.discipline = discipline
        self.wmax = int(wmax)
        self.slice_seconds = float(slice_seconds)
        self.fault_leak = float(fault_leak)

        self.states = state_layout(self.wmax)
        self.sent = packets_per_state(self.wmax)
        self._i_s2 = self.states.index("S2")
        self._i_timeout = np.array(
            [self.states.index("b0"), self.states.index("b*")]
        )
        self.rtts = np.array([c.rtt for c in self.classes])
        self.counts = np.array([c.n_flows for c in self.classes])
        self.parked = np.array([c.parked for c in self.classes])
        if dt is None:
            dt = float(self.rtts.min()) / 8.0
        if dt <= 0:
            raise ValueError("dt must be positive")
        if dt > float(self.rtts.min()):
            raise ValueError(
                "dt must not exceed the smallest RTT (the uniformized "
                "update moves at most one epoch of mass per step)"
            )
        self.dt = float(dt)

        # State: every admitted flow starts in S2 (the sender's
        # initial_cwnd is 2 segments), queue empty, clocks at zero.
        self.h = np.zeros((len(self.classes), len(self.states)))
        self.h[:, self._i_s2] = self.counts
        self.q = 0.0
        self.time = 0.0
        self.steps = 0
        self.valid = True
        self.violations: List[Violation] = []
        self._suppressed_violations = 0
        #: The observer slot (:mod:`repro.sim.observe`): ``step`` fires
        #: after each integrator step.  Subscribers only *read* state,
        #: so armed and unarmed integrations are bit-identical.
        self.obs = None

        # Accounting integrals.
        self._offered_pkts = 0.0
        self._dropped_pkts = 0.0
        self._delivered = np.zeros(len(self.classes))
        self._served_pkts = 0.0
        self._timeouts = 0.0
        self._queue_sum = 0.0
        self._queue_samples: List[float] = []
        # Time integrals of the histogram and chain drop vector: the
        # fairness moments use *time-averaged* dynamics, not the final
        # instant — disciplines with limit cycles (RED's EWMA ramp)
        # would otherwise be sampled at an arbitrary phase.
        self._h_time = np.zeros_like(self.h)
        self._p_chain_time = np.zeros_like(self.h)

    # ------------------------------------------------------------------
    def _record(self, monitor: str, message: str, **context: Any) -> None:
        if len(self.violations) >= MAX_VIOLATIONS:
            self._suppressed_violations += 1
            return
        self.violations.append(
            Violation(monitor=monitor, message=message, time=self.time,
                      context=dict(context))
        )

    def _check_invariants(self) -> None:
        if not np.all(np.isfinite(self.h)) or not math.isfinite(self.q):
            self._record(
                "fluid-finite",
                "histogram or queue became non-finite",
                queue=self.q,
            )
            # Non-finite state never recovers; freeze it to NaN-safe
            # zeros so the run terminates with the violation on record.
            self.h = np.nan_to_num(self.h, nan=0.0, posinf=0.0, neginf=0.0)
            self.q = min(max(0.0, np.nan_to_num(self.q)), self.buffer_pkts)
            return
        mass = self.h.sum(axis=1)
        scale = np.maximum(self.counts, 1.0)
        drift = np.abs(mass - self.counts) / scale
        worst = int(np.argmax(drift))
        if drift[worst] > MASS_RTOL:
            self._record(
                "fluid-mass",
                f"class {self.classes[worst].name!r} histogram mass "
                f"{mass[worst]:.9g} != flow count {self.counts[worst]:.9g}",
                class_name=self.classes[worst].name,
                mass=float(mass[worst]),
                expected=float(self.counts[worst]),
            )
        if np.any(self.h < -MASS_RTOL * scale[:, None]):
            self._record(
                "fluid-mass",
                "histogram went negative (step too large or bad update)",
                min_entry=float(self.h.min()),
            )
        if self.q < -1e-9 or self.q > self.buffer_pkts + 1e-9:
            self._record(
                "fluid-queue-bounds",
                f"queue level {self.q:.9g} outside [0, {self.buffer_pkts:.9g}]",
                queue=self.q,
                buffer_pkts=self.buffer_pkts,
            )

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the model by one Euler step of ``self.dt``."""
        dt = self.dt
        R = self.rtts + self.q / self.capacity_pps
        rate = self.h * self.sent[None, :] / R[:, None]
        offered_pps = float(rate.sum())
        fair_window = self.capacity_pps * R / max(float(self.counts.sum()), 1.0)
        link = LinkState(
            q=self.q,
            offered_pps=offered_pps,
            rate=rate,
            sent=self.sent,
            R=R,
            dt=dt,
            capacity_pps=self.capacity_pps,
            buffer_pkts=self.buffer_pkts,
            fair_window=fair_window,
            time=self.time,
        )
        p_queue = np.broadcast_to(
            np.clip(np.asarray(self.discipline(link), dtype=float), 0.0, 1.0),
            self.h.shape,
        )
        p_chain = np.minimum(p_queue, P_CHAIN_MAX)
        clipped = bool(np.any(p_queue > P_CHAIN_MAX))
        if clipped:
            self.valid = False

        accepted = (1.0 - p_queue) * rate
        accepted_pps = float(accepted.sum())
        served_pps = (
            self.capacity_pps
            if self.q > 0.0
            else min(accepted_pps, self.capacity_pps)
        )
        self.q = min(
            max(0.0, self.q + (accepted_pps - served_pps) * dt), self.buffer_pkts
        )

        # Accounting before the state moves (left-endpoint rule, fixed).
        self._offered_pkts += offered_pps * dt
        self._dropped_pkts += float((p_queue * rate).sum()) * dt
        self._delivered += accepted.sum(axis=1) * dt
        self._served_pkts += served_pps * dt
        self._queue_sum += self.q * dt
        self._queue_samples.append(self.q)

        # Window evolution: one uniformized jump-chain epoch per R[c].
        for c in range(len(self.classes)):
            T = transition_matrix(p_chain[c], self.wmax)
            flow = self.h[c] @ T
            # Entries into b0/b* (including the b* self-loop) are RTO
            # firings — the fluid analogue of sender.stats.timeouts.
            self._timeouts += (
                float((self.h[c] * T[:, self._i_timeout].sum(axis=1)).sum())
                * dt / R[c]
            )
            self.h[c] += (dt / R[c]) * (flow - self.h[c])
        if self.fault_leak > 0.0:
            self.h *= 1.0 - self.fault_leak * dt
        self._h_time += self.h * dt
        self._p_chain_time += p_chain * dt

        self.time += dt
        self.steps += 1
        self._check_invariants()
        if self.obs is not None:
            self.obs.step(self, p_queue, rate, clipped)

    def run(self, duration: float) -> "FluidResult":
        """Integrate for *duration* seconds and summarize.

        The step count is ``ceil(duration / dt)`` with a uniform step —
        the run covers at least *duration* and every step is identical,
        which keeps halving-``dt`` comparisons clean.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        n_steps = max(1, int(math.ceil(duration / self.dt - 1e-9)))
        for _ in range(n_steps):
            self.step()
        if self._suppressed_violations:
            self._record(
                "fluid-monitor",
                f"{self._suppressed_violations} further violations suppressed",
            )
        return self._summarize(duration)

    # ------------------------------------------------------------------
    def _class_moments(self, c: int, window: float) -> Tuple[float, float]:
        """(mean, var) of one flow's delivered packets over *window*.

        Uses the run's time-averaged histogram, drop vector, and queue
        (robust to disciplines whose dynamics settle into a limit cycle
        rather than a fixed point).
        """
        n = self.counts[c]
        if n <= 0:
            return 0.0, 0.0
        elapsed = self.steps * self.dt
        mean_q = self._queue_sum / elapsed
        R = float(self.rtts[c] + mean_q / self.capacity_pps)
        epochs = max(1, int(round(window / R)))
        p_bar = np.minimum(self._p_chain_time[c] / elapsed, P_CHAIN_MAX)
        T = transition_matrix(p_bar, self.wmax)
        rewards = self.sent * (1.0 - p_bar)
        pi = np.clip(self._h_time[c] / elapsed, 0.0, None)
        total = pi.sum()
        pi = pi / total if total > 0 else np.full_like(pi, 1.0 / len(pi))
        return slice_moments(T, rewards, epochs, pi)

    def _population_jain(self, window: float) -> float:
        """Jain over the whole population (parked flows count as 0)."""
        total = float(self.counts.sum() + self.parked.sum())
        if total <= 0:
            return 1.0
        ex = 0.0
        ex2 = 0.0
        for c in range(len(self.classes)):
            mean, var = self._class_moments(c, window)
            ex += self.counts[c] * mean
            ex2 += self.counts[c] * (mean * mean + var)
        ex /= total
        ex2 /= total
        if ex <= 0.0:
            return 1.0
        return ex * ex / ex2

    def _summarize(self, duration: float) -> FluidResult:
        elapsed = self.steps * self.dt
        samples = np.array(self._queue_samples)
        percentiles = {
            f"p{p}": float(np.percentile(samples, p)) for p in (50, 90, 99)
        }
        goodput = {
            cls.name: float(self._delivered[c]) / elapsed
            for c, cls in enumerate(self.classes)
        }
        loss = (
            self._dropped_pkts / self._offered_pkts
            if self._offered_pkts > 0
            else 0.0
        )
        return FluidResult(
            duration=duration,
            dt=self.dt,
            steps=self.steps,
            wmax=self.wmax,
            capacity_pps=self.capacity_pps,
            buffer_pkts=self.buffer_pkts,
            loss_rate=loss,
            offered_pkts=self._offered_pkts,
            dropped_pkts=self._dropped_pkts,
            delivered_pkts=float(self._delivered.sum()),
            mean_queue_pkts=self._queue_sum / elapsed,
            queue_percentiles=percentiles,
            utilization=self._served_pkts / (self.capacity_pps * elapsed),
            per_class_goodput_pps=goodput,
            short_term_jain=self._population_jain(self.slice_seconds),
            long_term_jain=self._population_jain(duration),
            timeouts=self._timeouts,
            valid=self.valid,
            parked_flows=float(self.parked.sum()),
            final_histogram=np.array(self.h),
            violations=list(self.violations),
        )
