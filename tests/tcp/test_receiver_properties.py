"""Property tests: the receiver reassembles any arrival order.

Whatever order (with duplication) segments arrive in, the receiver's
in-order prefix must equal the set of contiguous segments received, the
SACK blocks must exactly describe the out-of-order buffer, and delivery
callbacks must be monotone.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import DATA, Packet
from repro.tcp.receiver import TCPReceiver


def deliver_sequence(seqs, sack=False):
    acks = []
    deliveries = []
    receiver = TCPReceiver(
        1, send=acks.append, sack=sack,
        delivery_log=deliveries,
    )
    for i, seq in enumerate(seqs):
        receiver.receive(Packet(1, DATA, seq=seq, size=500), float(i))
    return receiver, acks, [n for _, n in deliveries]


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(12))))
def test_property_any_permutation_reassembles(seqs):
    receiver, acks, deliveries = deliver_sequence(seqs)
    assert receiver.rcv_next == 12
    assert receiver.out_of_order == set()
    assert acks[-1].ack_seq == 12
    # Delivery progress is strictly monotone.
    assert deliveries == sorted(deliveries)
    assert len(set(deliveries)) == len(deliveries)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60))
def test_property_arbitrary_arrivals_invariants(seqs):
    receiver, acks, _ = deliver_sequence(seqs, sack=True)
    seen = set(seqs)
    # rcv_next is exactly the length of the contiguous prefix received.
    expected_next = 0
    while expected_next in seen:
        expected_next += 1
    assert receiver.rcv_next == expected_next
    # The out-of-order buffer holds exactly the received-but-gapped seqs.
    assert receiver.out_of_order == {s for s in seen if s > expected_next}
    # One ACK per data packet (no delayed acks), cumulative field sane.
    assert len(acks) == len(seqs)
    for ack in acks:
        assert 0 <= ack.ack_seq <= 16


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60))
def test_property_sack_blocks_describe_buffer(seqs):
    receiver, acks, _ = deliver_sequence(seqs, sack=True)
    blocks = acks[-1].sack
    buffered = receiver.out_of_order
    if not buffered:
        assert blocks is None
        return
    covered = set()
    previous_hi = None
    for lo, hi in blocks:
        assert lo < hi
        if previous_hi is not None:
            assert lo > previous_hi  # disjoint, ordered, non-adjacent
        previous_hi = hi
        covered.update(range(lo, hi))
    # Blocks may be capped at 3, but everything they claim is buffered.
    assert covered <= buffered
    if len(blocks) < 3:
        assert covered == buffered


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=5, max_size=80),
)
def test_property_duplicates_counted(seqs):
    receiver, _, _ = deliver_sequence(seqs)
    # Every arrival beyond the first per seq is a duplicate.
    from collections import Counter

    counts = Counter(seqs)
    expected_duplicates = sum(c - 1 for c in counts.values())
    assert receiver.duplicate_segments == expected_duplicates
