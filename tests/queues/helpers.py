"""A drop log for the queue tests: the seam's ``dropped`` event, kept."""

from repro.sim.observe import Observer, subscribe


class DropLog(Observer):
    """Subscribed to *queue* on construction; ``drops`` holds one
    ``(packet, now)`` per drop, in order."""

    def __init__(self, queue):
        self.drops = []
        subscribe(queue, self)

    def dropped(self, queue, packet, now):
        self.drops.append((packet, now))

    @property
    def packets(self):
        return [packet for packet, _now in self.drops]
