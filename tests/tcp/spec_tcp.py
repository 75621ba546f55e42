"""The TCP sender's rules as RFC 5681, RFC 6582 (NewReno), RFC 6298 (the timer) and RFC 6675
(SACK) state them, per segment: one state variable, full scans.  Where ``TCPSender`` knowingly
departs from a clause the spec follows it and ``DEVIATIONS`` names the clause."""

import math

from repro.net.packet import ACK, DATA, FIN, SYN, SYNACK

CLOSED, SYN_SENT, DONE, FAILED = "closed", "syn_sent", "done", "failed"  # the connection
OPEN = (SS, CA, FR) = ("SS", "CA", "FR")  # RFC 5681 §3.1 slow start, avoidance; §3.2 recovery
DUPTHRESH, SYN_RETRIES, SYN_BACKOFF_CAP = 3, 6, 6  # RFC 5681 §3.2, RFC 6675 §2; (DEVIATIONS)
DEVIATIONS = (  # (clause, what TCPSender does instead)
    ("RFC 5681 §3.1", "max_cwnd caps cwnd itself as it grows, not just what is sent (rwnd)."),
    ("RFC 5681 §3.2 step 3", "Fast retransmit clamps ssthresh + 3 to max(max_cwnd, ssthresh)."),
    ("RFC 5681 §3.2 step 1", "No Limited Transmit (RFC 3042): dupACKs 1 and 2 send no new data."),
    ("RFC 5681 eq. (4)", "With SACK, ssthresh = max(pipe / 2, 2): un-SACKed, not FlightSize."),
    ("RFC 5681 §3.1", "An RTO of a segment the timer already resent recomputes ssthresh."),
    ("RFC 6582 §3.2 step 1", "3rd dupACK recovers without ack > recover; recover = snd_next - 1."),
    ("RFC 6582 §4", "An RTO leaves recover where it was, not at the highest segment sent."),
    ("RFC 6582 §3.2 step 5", "Deflation floors at ssthresh; dupacks restarts: 3 more to inflate."),
    ("RFC 6298 §2.4, §2.5", "RTO within [min_rto, max_rto]: runs set min_rto < 1 s (the T0)."),
    ("RFC 6298 §5.5", "Backoff doubles SRTT + 4 RTTVAR, then clamps; its exponent is capped."),
    ("RFC 6298 §5.1", "Fast retransmit restarts the running timer."),
    ("RFC 6298 §5.4", "Go-back-N after an RTO (ns2): resends below high_water in slow start."),
    ("RFC 6298 §5.7", "The SYN's own 1 s timer doubles to 64 s, 6 tries; no 3 s RTO after."),
    ("RFC 6675 §4 SetPipe", "pipe is un-SACKed segments sent: holes stay, resends add none."),
    ("RFC 6675 §4 NextSeg", "New data goes before lost holes; no hole past recover (rules 3-4)."),
    ("RFC 6675 §5 (2), (4.2)", "Only the third dupACK starts recovery, not IsLost(HighACK + 1);"
                               " cwnd = ssthresh + 3 and inflates per dupACK, as NewReno."),
)


class SpecTCP:
    """A sender configured as ``TCPSender`` is; ``sent`` gets (kind, seq, retransmit) and
    ``rounds`` (start, end, sent) per round, as ``RoundLog`` records them.  One timer runs at a
    time, the SYN's and then the retransmission timer: ``deadline`` is when it fires."""

    def __init__(self, total_segments=None, initial_cwnd=2.0, initial_ssthresh=64.0,
                 max_cwnd=None, sack=False, min_rto=1.0, max_rto=60.0, max_backoff=16):
        self.limit = math.inf if total_segments is None else total_segments
        self.rwnd = math.inf if max_cwnd is None else max_cwnd
        self.cwnd, self.ssthresh, self.sack = float(initial_cwnd), float(initial_ssthresh), sack
        self.min_rto, self.max_rto, self.max_backoff = min_rto, max_rto, max_backoff
        self.state, self.now, self.sent, self.rounds = CLOSED, 0.0, [], []
        self.snd_una = self.snd_next = self.high_water = self.dupacks = self.syn_retries = 0
        self.recover, self.sacked, self.retransmitted = -1, set(), set()
        self.srtt = self.rttvar = self.timed = self.deadline = None
        self.base, self.backoff = max(1.0, min_rto), 0  # RFC 6298 §2.1: 1 s before a sample
        self.round_anchor = self.round_sent = 0

    @property
    def rto(self):  # RFC 6298 §5.5 doubling, §2.4-2.5 bounds (DEVIATIONS)
        return min(self.max_rto, max(self.min_rto, self.base * 2 ** self.backoff))

    def sample(self, r):  # RFC 6298 §2.2-2.3; a sample ends the backoff (the note after §5.7)
        if self.srtt is None:
            self.srtt, self.rttvar = r, r / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - r)
            self.srtt = 0.875 * self.srtt + 0.125 * r
        self.base, self.backoff = self.srtt + 4 * self.rttvar, 0  # G = 0: the clock has no tick

    def advance(self, t):
        """The clock reaches *t*, firing the timer at its deadline whenever that is due."""
        while self.deadline is not None and self.deadline <= t:
            self.now, self.deadline = self.deadline, None
            self.syn_timeout() if self.state == SYN_SENT else self.timeout()
        self.now = t

    def open(self):
        if self.state == CLOSED:
            self.state = SYN_SENT
            self.send_syn()

    def send_syn(self):  # RFC 6298 §5.7 (DEVIATIONS)
        self.syn_sent_at = self.now
        self.sent.append((SYN, -1, False))
        self.deadline = self.now + 2.0 ** min(self.syn_retries, SYN_BACKOFF_CAP)

    def send(self, seq, retransmit):
        """RFC 6298 §5.1: any data segment starts the timer if it is off.  §3, Karn: one first
        transmission is timed at a time, and resending it voids the timing."""
        if retransmit and seq == self.timed:
            self.timed = None
        elif not retransmit and self.timed is None:
            self.timed, self.timed_at = seq, self.now
        if self.round_sent == 0:
            self.round_start = self.now
        self.round_sent += 1
        self.sent.append((DATA, seq, retransmit))
        if self.deadline is None:
            self.deadline = self.now + self.rto

    def pipe(self):  # RFC 6675 §4 SetPipe (DEVIATIONS); FlightSize when nothing is SACKed
        return sum(seq not in self.sacked for seq in range(self.snd_una, self.snd_next))

    def try_send(self):
        """RFC 5681 §3.1: send while pipe < min(cwnd, rwnd) in whole segments, one at least,
        skipping SACKed data; then RFC 6675 §4 NextSeg rule 1: lost holes (IsLost) not resent."""
        window = max(1, int(min(self.cwnd, self.rwnd)))
        while self.state in OPEN and self.snd_next < self.limit and self.pipe() < window:
            seq, self.snd_next = self.snd_next, self.snd_next + 1
            if seq not in self.sacked:
                self.send(seq, seq < self.high_water)
                self.high_water = max(self.high_water, seq + 1)
        if self.state == FR and self.sack and self.pipe() < window:
            for seq in range(self.snd_una, self.recover + 1):
                if seq in self.sacked or seq in self.retransmitted:
                    continue
                if sum(s > seq for s in self.sacked) < DUPTHRESH:
                    break
                self.retransmitted.add(seq)
                self.send(seq, True)

    def restart(self):  # RFC 6298 §5.2-5.3: run afresh while data is out, else stop
        self.deadline = self.now + self.rto if self.snd_next > self.snd_una else None

    def close_round(self):
        if self.round_sent:
            self.rounds.append((self.round_start, self.now, self.round_sent))
        self.round_sent = 0

    def complete(self):
        self.state, self.deadline = DONE, None
        self.sent.append((FIN, -1, False))

    def receive(self, kind, ack_seq=-1, blocks=()):  # RFC 5681 §2: new data acked, or a dupACK
        if kind == SYNACK and self.state == SYN_SENT:
            self.deadline, self.state = None, SS if self.cwnd < self.ssthresh else CA
            if self.syn_retries == 0:  # Karn: not from a resent SYN
                self.sample(self.now - self.syn_sent_at)
            return self.complete() if self.limit == 0 else self.try_send()
        if kind != ACK or self.state not in OPEN:
            return
        if self.sack:  # RFC 6675 §5: the scoreboard first
            self.sacked |= {seq for lo, hi in blocks for seq in range(lo, hi)}
        if ack_seq > self.snd_una:
            self.new_ack(ack_seq)
        elif ack_seq == self.snd_una and self.snd_next > self.snd_una:
            self.dupack()
        self.try_send()

    def new_ack(self, ack_seq):
        if ack_seq > self.round_anchor:  # the round ends at the ACK of its first segment
            self.close_round()
            self.round_anchor = self.snd_next
        if self.timed is not None and ack_seq > self.timed:  # RFC 6298 §3
            self.sample(self.now - self.timed_at)
            self.timed = None
        newly, self.snd_una, self.dupacks = ack_seq - self.snd_una, ack_seq, 0
        self.snd_next = max(self.snd_next, ack_seq)
        self.sacked = {seq for seq in self.sacked if seq >= ack_seq}
        if self.state == FR and ack_seq > self.recover:  # RFC 6582 §3.2 step 3: full ACK
            self.state, self.cwnd, self.retransmitted = CA, self.ssthresh, set()
        elif self.state == FR:  # step 5: partial ACK, deflate (DEVIATIONS), resend the next
            self.cwnd = max(self.ssthresh, self.cwnd - newly + 1)
            if not self.sack:  # RFC 6675 §5 (C) resends through NextSeg instead
                self.send(self.snd_una, True)
        elif self.state == SS:  # RFC 5681 §3.1 eq. (2), one segment an ACK
            self.cwnd = min(self.cwnd + 1, self.rwnd)
            self.state = CA if self.cwnd >= self.ssthresh else SS
        else:  # eq. (3)
            self.cwnd = min(self.cwnd + 1 / self.cwnd, self.rwnd)
        if self.snd_una >= self.limit:
            return self.complete()
        self.restart()

    def dupack(self):
        self.dupacks += 1
        if self.state != FR and self.dupacks == DUPTHRESH:  # RFC 5681 §3.2 step 2, RFC 6582
            self.ssthresh = max(self.pipe() / 2, 2.0)  # eq. (4)
            self.state, self.recover, self.retransmitted = FR, self.snd_next - 1, {self.snd_una}
            self.cwnd = min(self.ssthresh + DUPTHRESH, max(self.rwnd, self.ssthresh))
            self.send(self.snd_una, True)
            self.restart()
        elif self.state == FR and self.dupacks > DUPTHRESH:  # step 4: inflate
            self.cwnd += 1

    def timeout(self):
        """RFC 6298 §5.4-5.6: resend the earliest, back off, restart; RFC 5681 §3.1: ssthresh
        by eq. (4), cwnd = LW = 1; RFC 6582 §4: recovery ends (DEVIATIONS: go-back-N)."""
        self.close_round()
        self.round_anchor, self.backoff = self.snd_una, min(self.backoff + 1, self.max_backoff)
        self.ssthresh, self.cwnd, self.state = max(self.pipe() / 2, 2.0), 1.0, SS
        self.dupacks, self.retransmitted, self.timed = 0, set(), None
        self.snd_next = self.snd_una + 1
        self.send(self.snd_una, True)
        self.restart()

    def syn_timeout(self):
        if self.syn_retries >= SYN_RETRIES:
            self.state = FAILED
        else:
            self.syn_retries += 1
            self.send_syn()
