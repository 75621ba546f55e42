"""A TAQ queue's flow tracker, fed the way it is in service.

The component tests of the tracker, the epoch estimator and the fair
share drive shipped code: arrivals go through ``TAQQueue.enqueue`` into
a buffer they never fill, ACKs through ``TAQQueue.observe_reverse``.
Everything else reads through to the queue's ``FlowTracker``.
"""

from __future__ import annotations

from repro.core.scheduler import PacketClass
from repro.core.taq import TAQQueue


class Middlebox:
    def __init__(self, default_epoch=0.2, idle_timeout=60.0, capacity_bps=0.0, **params):
        self.queue = TAQQueue(10_000, default_epoch=default_epoch, **params)
        self.queue.tracker.idle_timeout = idle_timeout
        self.queue.fairshare.capacity_bps = capacity_bps

    def __getattr__(self, name):
        return getattr(self.queue.tracker, name)

    def classify(self, packet, now):
        """Enqueue *packet*; the class TAQ queued it under."""
        stats = self.queue.scheduler.stats
        before = {klass: s.enqueued for klass, s in stats.items()}
        assert self.queue.enqueue(packet, now)
        (klass,) = [klass for klass, s in stats.items() if s.enqueued > before[klass]]
        return klass

    def observe_arrival(self, packet, now):
        """Enqueue *packet*; True when TAQ took it for a retransmission."""
        return self.classify(packet, now) is PacketClass.RECOVERY

    def observe_ack(self, packet, now):
        self.queue.observe_reverse(packet, now)
