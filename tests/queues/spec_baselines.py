"""The four baselines as their sources state them: plain lists, full scans, no counters.

DropTail is the FIFO every paper assumes.  RED cites Floyd & Jacobson 1993, Fig. 2
("Fig. 2"); SFQ cites McKenney 1990 ("McK"); FavorQueue cites Anelli, Diana & Lochin
2011 ("FQ").  A model holds its buffer, the packets it dropped and the packets it
served, so what it has ``enqueued`` is read off them (base.py's contract)."""

DEVIATIONS = (  # (source, what the shipped discipline does beyond or against it)
    ("Fig. 2", "Its buffer limit drops an arrival after avg is updated, before marking."),
    ("Fig. 2", "A forced mark (max_th <= avg) leaves count as it was; Fig. 2 sets count <- 0."),
    ("Fig. 2", "Idle decay is m + 1 factors of 1 - w_q: (1 - w_q)^m, then a step with q = 0."),
    ("Fig. 2", "Any arrival ends the idle period, a dropped one too; Fig. 2 keeps q_time."),
    ("McK", "An arrival whose own bucket is the longest swaps that bucket's tail for itself;"
            " with one bucket it is refused."),
    ("FQ", "A favored arrival at a full buffer pushes out the unfavored region's tail, if any."),
)


class SpecDropTail:
    """A full buffer drops the arrival; the rest is first in, first out."""

    def __init__(self, capacity):
        self.capacity, self.fifo, self.drops, self.served = capacity, [], [], []

    def __len__(self):
        return len(self.fifo)

    @property
    def enqueued(self):  # buffered and not dropped since: in the buffer or served
        return len(self.served) + len(self)

    def drop(self, packet):
        self.drops.append(packet)
        return False

    def serve(self, queue):
        if not queue:
            return None
        self.served.append(queue.pop(0))
        return self.served[-1]

    def enqueue(self, packet, now):
        if len(self) >= self.capacity:
            return self.drop(packet)
        self.fifo.append(packet)
        return True

    def dequeue(self, now):
        return self.serve(self.fifo)


class SpecRED(SpecDropTail):
    """Fig. 2, per arrival: update the average queue size, then mark (drop) by it."""

    def __init__(self, capacity, rng, min_th, max_th, max_p, w_q, tx_time):
        super().__init__(capacity)
        self.rng, self.min_th, self.max_th, self.max_p, self.w_q = rng, min_th, max_th, max_p, w_q
        self.tx_time = tx_time  # f(t) = t / tx_time: the small packets t could have carried
        self.avg, self.count, self.q_time = 0.0, -1, 0.0  # Fig. 2's initialization, idle at 0

    def enqueue(self, packet, now):
        q, w_q = len(self.fifo), self.w_q
        if q or self.q_time is None:  # nonempty: avg <- (1 - w_q) avg + w_q q, as REDQueue rounds
            self.avg += w_q * (q - self.avg)
        else:  # m <- f(time - q_time); avg <- (1 - w_q)^m avg (DEVIATIONS: and one step more)
            self.avg *= (1.0 - w_q) ** ((now - self.q_time) / self.tx_time)
            self.avg += w_q * (0.0 - self.avg)
        self.q_time = None  # DEVIATIONS: even if this arrival is dropped
        if q >= self.capacity:  # DEVIATIONS: the buffer limit, before marking
            return self.drop(packet)
        if self.max_th <= self.avg:  # mark the arriving packet (DEVIATIONS: count stays)
            return self.drop(packet)
        if self.min_th <= self.avg:  # min_th <= avg < max_th
            self.count += 1
            p_b = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
            denominator = 1.0 - self.count * p_b  # p_a <- p_b / (1 - count p_b), at most 1
            p_a = p_b / denominator if denominator > 0 else 1.0
            if self.rng.random() < p_a:  # with probability p_a: mark, count <- 0
                self.count = 0
                return self.drop(packet)
        else:
            self.count = -1
        self.fifo.append(packet)
        return True

    def dequeue(self, now):
        packet = self.serve(self.fifo)
        if packet is not None and not self.fifo:  # when the queue becomes empty
            self.q_time = now
        return packet


class SpecSFQ(SpecDropTail):
    """McK: a salted hash maps flows onto buckets served round-robin; a full buffer
    steals from the longest bucket; perturbing re-salts the hash."""

    def __init__(self, capacity, buckets, salt):
        super().__init__(capacity)
        self.buckets, self.salt, self.turn = [[] for _ in range(buckets)], salt, 0

    def __len__(self):
        return sum(map(len, self.buckets))

    def bucket_of(self, flow_id):  # a hash of (flow, salt): the shipped one, restated
        return ((flow_id * 2654435761 + self.salt * 40503) & 0xFFFFFFFF) % len(self.buckets)

    def perturb(self, salt):  # a new hash; what is queued stays in its bucket
        self.salt = salt

    def enqueue(self, packet, now):
        if len(self) >= self.capacity:
            if len(self.buckets) == 1:  # DEVIATIONS
                return self.drop(packet)
            self.drop(max(self.buckets, key=len).pop())  # the first longest (DEVIATIONS)
        self.buckets[self.bucket_of(packet.flow_id)].append(packet)
        return True

    def dequeue(self, now):  # the first nonempty bucket from the one after the last served
        n = len(self.buckets)
        for index in [(self.turn + k) % n for k in range(n)]:
            if self.buckets[index]:
                self.turn = (index + 1) % n
                return self.serve(self.buckets[index])
        return None


class SpecFavorQueue(SpecDropTail):
    """FQ: a packet is favored iff no packet of its flow is queued; favored packets
    are served first, each region in arrival order."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.favored, self.normal = [], []

    def __len__(self):
        return len(self.favored) + len(self.normal)

    def enqueue(self, packet, now):
        favored = all(p.flow_id != packet.flow_id for p in self.favored + self.normal)
        if len(self) >= self.capacity:
            if not (favored and self.normal):
                return self.drop(packet)
            self.drop(self.normal.pop())  # DEVIATIONS
        (self.favored if favored else self.normal).append(packet)
        return True

    def dequeue(self, now):
        return self.serve(self.favored or self.normal)
