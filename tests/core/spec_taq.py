"""TAQ's rules as docs/taq.md states them (``§`` cites the paper): full scans, no caches."""

from collections import Counter, deque

from repro.core.classifier import classify_epoch
from repro.core.scheduler import PacketClass
from repro.core.states import FlowState
from repro.core.tracker import ACTIVITY_HORIZON_EPOCHS
from repro.net.packet import ACK, DATA, SYN, SYNACK

RECOVERY, NEW, OVER, BELOW, ABOVE = PacketClass  # in definition order
ALPHA, MIN_EPOCH, MAX_EPOCH, BURST_GAP, PENDING = 0.25, 0.01, 5.0, 0.5, 64  # §3.3 estimator
NEW_FLOW_EPOCHS, HEADROOM, LEVEL2 = 4, 1.1, (BELOW, NEW, OVER)  # §4.2; Level 2 in rotation
GROUPS = ((ABOVE,), (NEW, BELOW, OVER))  # §4.2 push-out, lowest first; ABOVE reaches its own
DEVIATIONS = (  # (section, what the shipped queue does beyond it)
    ("§3.3", "Epochs roll on the flow's next arrival, 256 at most; a push-out joins the open one."),
    ("§3.3", "Flows idle over idle_timeout are forgotten, checked on data once per idle_timeout."),
    ("§4.3", "A SYN refused admission is a drop that neither flow table nor loss rate sees."),
)


def scan_active(flows, now):  # the census, of FlowTracker records too: seen in ten epochs
    return [f for f in flows if now - f.last_seen <= ACTIVITY_HORIZON_EPOCHS * f.epoch_length]


def scan_per_pool(flows, now):
    return dict(Counter(flow.census_key for flow in scan_active(flows, now)))


def scan_fair_share(flows, flow, now, capacity_bps, model, granularity):
    """§4.2's equal split or its footnote's 1/RTT-weighted one; §4.3's by pool first."""
    active, inverse_rtt_sum = scan_active(flows, now), 0.0
    if granularity == "pool":
        census = Counter(other.census_key for other in active)
        return capacity_bps / max(1, len(census)) / max(1, census[flow.census_key])
    for other in active:  # in table order: a float sum is order-sensitive
        inverse_rtt_sum += 1.0 / max(1e-3, other.epoch_length)
    if model == "fair-queuing" or inverse_rtt_sum <= 0:
        return capacity_bps / max(1, len(active))
    return capacity_bps * ((1.0 / max(1e-3, flow.epoch_length)) / inverse_rtt_sum)


class Flow:
    """§3.3: one flow's record, carrying classify_epoch's six fields by name."""
    new_packets = retransmissions = drops = bytes = prev_new_packets = prev_drops = epochs = 0
    outstanding_drops = cumulative_drops = silent_epochs = samples = 0
    state, highest_seq, rate_bps, syn_time, burst_start = FlowState.SLOW_START, -1, 0.0, None, None

    def __init__(self, packet, now, default_epoch):
        self.flow_id, self.epoch_length, self.pending = packet.flow_id, default_epoch, {}
        self.first_seen = self.last_seen = self.epoch_start = self.last_data_time = now
        self.census_key = packet.pool_id if packet.pool_id != -1 else -(packet.flow_id + 2)  # §4.3

    def feed(self, sample):  # §3.3: clamped; the first sample replaces the prior
        sample = min(MAX_EPOCH, max(MIN_EPOCH, sample))
        self.epoch_length = sample if self.samples == 0 else (
            self.epoch_length + ALPHA * (sample - self.epoch_length))
        self.samples += 1


class SpecTAQ:
    """TAQ's queue, configured as ``TAQQueue`` is; *obs* also hears each ``classified``."""

    def __init__(self, capacity_pkts, obs, **config):
        self.__dict__.update(config, capacity_pkts=capacity_pkts, obs=obs, flows={}, last_gc=0.0)
        self.served, self.level2_services = deque(maxlen=self.service_window), 0
        self.queues = {klass: [] for klass in PacketClass}  # (priority, packet), service order

    def __len__(self):
        return sum(map(len, self.queues.values()))

    def enqueue(self, packet, now):
        if self.admission and packet.kind == SYN and not self.admission.admits(packet.pool_id, now):
            self.obs.refused(self, packet, now)  # §4.3: refused before it takes buffer
            self.obs.dropped(self, packet, now)
            return False
        flow = self.flows.setdefault(packet.flow_id, Flow(packet, now, self.default_epoch))
        silence = max(0.0, now - flow.last_data_time) if self.silence_priority else 0.0  # §4.2
        for _ in range(256):  # §3.3, Fig 7: classify each elapsed epoch, shift its counters
            if now - flow.epoch_start < flow.epoch_length:
                break
            active = flow.new_packets + flow.retransmissions
            flow.silent_epochs = 0 if active else flow.silent_epochs + 1
            prev, flow.state = flow.state, classify_epoch(flow.state, flow)
            if flow.state is not prev:
                self.obs.flow_state(flow, prev, flow.epoch_start + flow.epoch_length)
            flow.rate_bps += 0.5 * (flow.bytes * 8.0 / flow.epoch_length - flow.rate_bps)
            flow.prev_new_packets, flow.prev_drops = flow.new_packets, flow.drops
            flow.new_packets = flow.retransmissions = flow.drops = flow.bytes = 0
            flow.epoch_start += flow.epoch_length
            flow.epochs += 1
        else:
            flow.epoch_start = now
        flow.last_seen, retransmission = now, False
        flow.syn_time = now if packet.kind == SYN else flow.syn_time
        if packet.kind == DATA:
            # §3.3 one-way: SYN to first data, then burst starts (gaps over BURST_GAP x epoch).
            if flow.highest_seq < 0:
                if flow.syn_time is not None:
                    flow.feed(now - flow.syn_time)
            elif now - flow.last_data_time > BURST_GAP * flow.epoch_length:
                if flow.burst_start is not None:
                    flow.feed(now - flow.burst_start)
                flow.burst_start = now
            elif flow.burst_start is None:
                flow.burst_start = now
            if len(flow.pending) < PENDING:
                flow.pending.setdefault(packet.seq, now)
            retransmission = packet.seq <= flow.highest_seq  # §3.3: inferred; settles a drop
            flow.highest_seq = max(flow.highest_seq, packet.seq)
            flow.retransmissions += retransmission
            flow.new_packets += not retransmission
            flow.outstanding_drops = max(0, flow.outstanding_drops - retransmission)
            flow.last_data_time, flow.bytes = now, flow.bytes + packet.size
            if now - self.last_gc >= self.idle_timeout:
                self.last_gc, self.flows = now, {
                    i: f for i, f in self.flows.items() if now - f.last_seen <= self.idle_timeout}
            if self.admission:
                self.admission.note_arrival(now)
        # The class: docs/taq.md's table, first match wins (§4.1, §4.2).
        if retransmission:
            klass = RECOVERY
        elif packet.kind == SYN or (flow.state is FlowState.SLOW_START and flow.epochs
                                    < NEW_FLOW_EPOCHS and flow.cumulative_drops == 0):
            klass = NEW
        elif flow.drops + flow.prev_drops >= 2:
            klass = OVER
            self.obs.penalized(self, packet, now)
        elif self.classify_fair_share and self.capacity_bps > 0 and flow.rate_bps > HEADROOM * (
                scan_fair_share(self.flows.values(), flow, now, self.capacity_bps,
                                self.fairness_model, self.fairness_granularity)):
            klass = ABOVE
        else:
            klass = BELOW
        self.obs.classified(self, packet, klass)
        dropped = self.buffer(packet, klass, silence)
        if dropped is packet:
            return self.drop(packet, now)
        if dropped is not None:
            self.obs.evicted(self, dropped, packet, now)
            self.drop(dropped, now)
        return True

    def observe_reverse(self, packet, now):
        """§3.3 two-way: sample against the newest data the ACK covers."""
        flow = self.flows.get(packet.flow_id)
        if packet.kind in (ACK, SYNACK) and flow is not None:
            covered = [seq for seq in flow.pending if 0 <= seq < packet.ack_seq]
            if covered:
                flow.feed(now - flow.pending[max(covered)])
                flow.pending = {s: t for s, t in flow.pending.items() if s >= packet.ack_seq}

    def drop(self, packet, now):  # §4.1: the deficit grows, the bytes did not go through
        flow = self.flows.setdefault(packet.flow_id, Flow(packet, now, self.default_epoch))
        flow.drops, flow.cumulative_drops, flow.outstanding_drops = (
            flow.drops + 1, flow.cumulative_drops + 1, flow.outstanding_drops + 1)
        flow.bytes = max(0, flow.bytes - packet.size)
        if self.admission and packet.kind == DATA:  # §4.3: the loss rate
            self.admission.note_drop(now)
        self.obs.dropped(self, packet, now)
        return False

    def buffer(self, packet, klass, silence):
        """§4.2: NewFlow caps buffered SYNs; a full buffer pushes out the tail of the longest
        queue (first on ties) of the lowest occupied group, or refuses an arrival for it."""
        queues, victim = self.queues, None
        refused = packet.kind == SYN and sum(
            p.kind == SYN for q in queues.values() for _, p in q) >= self.new_flow_capacity
        if not refused and len(self) >= self.capacity_pkts:
            longest = [max(group, key=lambda k: len(queues[k])) for group in GROUPS]
            victim = next((k for k in longest[:1 if klass is ABOVE else 2] if queues[k]), RECOVERY)
            refused = victim is klass if victim is not RECOVERY else (  # recovery yields only
                klass is not RECOVERY or silence <= queues[RECOVERY][-1][0])  # to longer silence
        if refused:
            return packet
        victim = victim and queues[victim].pop()[1]
        queue, priority = queues[klass], silence if klass is RECOVERY else 0.0
        queue.insert(sum(p >= priority for p, _ in queue), (priority, packet))  # service order
        return victim  # the packet dropped, if any

    def dequeue(self, now=None):
        """§4.2: Level 1 recovery under its service share or alone; Level 2 the
        longest backlog, ties in rotation; Level 3 above fair share."""
        queues, served, recovery = self.queues, self.served, self.queues[RECOVERY]
        longest = max(len(queues[k]) for k in LEVEL2)
        if recovery and (len(recovery) == len(self) or not served
                         or served.count(RECOVERY) / len(served) < self.recovery_service_share):
            klass = RECOVERY
        elif longest:
            self.level2_services += 1
            tied = [k for k in LEVEL2 if len(queues[k]) == longest]
            klass = tied[self.level2_services % len(tied)]
        elif queues[ABOVE]:
            klass = ABOVE
        else:
            return None
        served.append(klass)
        return queues[klass].pop(0)[1]
