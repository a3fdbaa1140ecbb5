"""Replicated sharing: reconstruction, local algebra, the AND round, zero-shares."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivgm import rss
from oblivgm.bits import BitVector, mask_tail, one_hot_rows, pack_bits, words_for
from oblivgm.net import ProtocolError, run_local_trio
from oblivgm.rss import MatchTable, ZeroShareContext


def bv(bits):
    return BitVector.from_bits(bits)


def test_share_reconstruct_exhaustive_up_to_16_bits():
    # short lengths fully enumerated; 16-bit space swept in bulk via vectorized
    # sharing of every value packed into one long vector
    rng = np.random.default_rng(0)
    for n in range(1, 11):
        for value in range(1 << n):
            x = BitVector.from_int(value, n)
            assert rss.reconstruct(rss.share(x, rng)) == x
    all16 = np.arange(1 << 16, dtype=np.uint64)
    shifts = np.arange(16, dtype=np.uint64)
    bulk = BitVector.from_bits(
        ((all16[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1))
    assert rss.reconstruct(rss.share(bulk, rng)) == bulk


def test_share_reconstruct_randomized_long():
    rng = np.random.default_rng(7)
    for n in (64, 257, 1000):
        x = BitVector.random(n, rng)
        shares = rss.share(x, rng)
        assert rss.reconstruct(shares) == x
        for pair in ((0, 1), (1, 2), (0, 2)):
            assert rss.reconstruct([shares[pair[0]], shares[pair[1]]]) == x


def test_share_zero_and_single_bit():
    rng = np.random.default_rng(0)
    assert rss.reconstruct(rss.share(BitVector.zeros(8), rng)).is_zero()
    one = bv([1])
    assert rss.reconstruct(rss.share(one, rng)) == one


def test_share_rejects_empty():
    with pytest.raises(ValueError):
        rss.share(BitVector.zeros(0), np.random.default_rng(0))


def test_reconstruct_needs_all_indices():
    rng = np.random.default_rng(1)
    shares = rss.share(bv([1, 0, 1]), rng)
    with pytest.raises(ValueError, match="cover"):
        rss.reconstruct([shares[0]])


def test_reconstruct_rejects_length_mismatch():
    rng = np.random.default_rng(1)
    a = rss.share(bv([1, 0, 1]), rng)
    b = rss.share(bv([1, 0]), rng)
    with pytest.raises(ValueError, match="length"):
        rss.reconstruct([a[0], b[1]])


def test_reconstruct_rejects_inconsistent_copies():
    rng = np.random.default_rng(1)
    s1, s2, s3 = rss.share(bv([1, 0, 1, 1]), rng)
    corrupt = rss.MatchTable(2, 4, s2.share_a ^ bv([1, 0, 0, 0]).words, s2.share_b)
    with pytest.raises(ValueError, match="inconsistent"):
        rss.reconstruct([s1, corrupt, s3])


def test_xor_local_identities():
    rng = np.random.default_rng(3)
    x = BitVector.random(96, rng)
    sx = rss.share(x, rng)
    zeros = rss.share(BitVector.zeros(96), rng)
    assert rss.reconstruct([s.xor(s) for s in sx]).is_zero()
    assert rss.reconstruct([a.xor(z) for a, z in zip(sx, zeros)]) == x


def test_xor_local_random_pairs():
    rng = np.random.default_rng(4)
    x, y = BitVector.random(130, rng), BitVector.random(130, rng)
    sx, sy = rss.share(x, rng), rss.share(y, rng)
    assert rss.reconstruct([a.xor(b) for a, b in zip(sx, sy)]) == (x ^ y)


def test_xor_local_party_mismatch():
    rng = np.random.default_rng(5)
    sx = rss.share(bv([1, 1]), rng)
    with pytest.raises(ValueError, match="different parties"):
        sx[0].xor(sx[1])


def test_and_gate_absorbing_and_identity_bits():
    rng = np.random.default_rng(6)
    cases = [([0], [1], [0]), ([1], [1], [1]), ([1, 0, 1, 1], [1, 1, 0, 1], [1, 0, 0, 1])]
    for xb, yb, want in cases:
        sx, sy = rss.share(bv(xb), rng), rss.share(bv(yb), rng)
        out = run_local_trio(lambda rt: rss.and_gate(rt, sx[rt.index - 1], sy[rt.index - 1]))
        assert rss.reconstruct(out) == bv(want)


def test_and_gate_random_and_comm_accounting():
    rng = np.random.default_rng(8)
    x, y = BitVector.random(64, rng), BitVector.random(64, rng)
    sx, sy = rss.share(x, rng), rss.share(y, rng)

    def worker(rt):
        z = rss.and_gate(rt, sx[rt.index - 1], sy[rt.index - 1])
        return z, rt.meter.total.logical_bits

    out = run_local_trio(worker)
    assert rss.reconstruct([o[0] for o in out]) == (x & y)
    assert all(o[1] == 64 for o in out)  # exactly n bits per party per AND


def additive_and(a_plain, a_width, b_plain, b_width, rng, a_masks=False):
    """The XOR of the three parties' :func:`rss.and_terms` of fresh sharings of a and b.

    With ``a_masks``, ``a`` is a column of 1-bit rows that each party turns
    into 0/0xFFFFFFFF word masks, as the population gate and a unique root's
    fold do.
    """
    total = 0
    for ta, tb in zip(rss.share_rows(a_plain, a_width, rng), rss.share_rows(b_plain, b_width, rng)):
        a = [np.negative(m) if a_masks else m for m in (ta.share_a, ta.share_b)]
        total = total ^ rss.and_terms(*a, tb.share_a, tb.share_b)
    return mask_tail(total, b_width)


def random_rows(rng, rows, width):
    return mask_tail(rng.integers(0, 1 << 32, (rows, words_for(width)), dtype=np.uint32), width)


@pytest.mark.parametrize("width", [1, 31, 32, 33])
def test_and_terms_of_one_row_by_one_row_xor_to_the_and(width):
    rng = np.random.default_rng(width)
    for _ in range(20):
        a, b = random_rows(rng, 1, width), random_rows(rng, 1, width)
        assert np.array_equal(additive_and(a, width, b, width, rng), a & b)


@pytest.mark.parametrize("rows", [0, 1, 7])
@pytest.mark.parametrize("width", [1, 31, 32, 33])
def test_and_terms_of_row_flag_masks_by_rows_xor_to_the_gated_rows(width, rows):
    rng = np.random.default_rng(rows * 40 + width)
    flags = rng.integers(0, 2, (rows, 1), dtype=np.uint32)
    plain = random_rows(rng, rows, width)
    got = additive_and(flags, 1, plain, width, rng, a_masks=True)
    assert got.shape == plain.shape
    assert np.array_equal(got, np.where(flags == 1, plain, 0))


@pytest.mark.parametrize("rows", [0, 1, 7])
@pytest.mark.parametrize("width", [1, 31, 32, 33])
def test_and_terms_of_many_one_hot_rows_by_one_flag_row_xor_to_the_gated_ids(width, rows):
    # sec_access's gated ids: each one-hot row, or the zero row, ANDed with the flags
    rng = np.random.default_rng(rows * 40 + width + 1000)
    hot = rng.integers(0, width, rows)
    one_hot = one_hot_rows(rows, width, np.arange(rows), hot)
    one_hot[rng.random(rows) < 0.3] = 0  # padding selects the zero row
    flags = random_rows(rng, 1, width)
    got = additive_and(one_hot, width, flags, width, rng)
    assert got.shape == one_hot.shape
    assert np.array_equal(got, one_hot & flags)


def test_open_everywhere_and_label_guard():
    rng = np.random.default_rng(9)
    x = bv([0, 1, 1, 0])
    sx = rss.share(x, rng)

    def worker(rt):
        return rss.open_shared(rt, sx[rt.index - 1])

    assert all(o == x for o in run_local_trio(worker))

    def skewed(rt):
        # parties disagree on what they are opening: their labels are out of step
        for _ in range(rt.index):
            rt.alloc_open_label()
        return rss.open_shared(rt, sx[rt.index - 1])

    with pytest.raises(ProtocolError, match="label"):
        run_local_trio(skewed)


def test_open_additive_reveals_the_xor_of_the_three_shares():
    rng = np.random.default_rng(17)
    for n in (1, 31, 32, 33, 1000):
        parts = [BitVector.random(n, rng) for _ in range(3)]
        want = parts[0] ^ parts[1] ^ parts[2]

        def worker(rt):
            opened = rss.open_additive(rt, parts[rt.index - 1], slots=[(5, (n,))])
            return opened, rt.opened, rt.meter.total

        for opened, ledger, sent in run_local_trio(worker):
            assert opened == want
            assert [(e.label, e.slot, e.segments, e.bits) for e in ledger] == [(1, 5, (n,), want)]
            # one blinded share to each peer, in one round
            assert (sent.frames_sent, sent.logical_bits) == (2, 2 * n)


def test_open_additive_frames_move_with_the_zero_sharing_but_not_the_value():
    rng = np.random.default_rng(18)
    parts = [BitVector.random(70, rng) for _ in range(3)]

    def run(counter):
        """Open at the given zero-share counter; returns the values and every sent payload."""
        sent = {}

        def worker(rt):
            rt.zs.counter = counter  # the parties' counters stay aligned
            for name in ("send_next", "send_prev"):
                def logged(op, payload, logical_bits=0, send=getattr(rt, name), name=name):
                    sent[(rt.index, name)] = payload
                    return send(op, payload, logical_bits)
                setattr(rt, name, logged)
            return rss.open_additive(rt, parts[rt.index - 1])

        return run_local_trio(worker), sent

    (first, frames), (second, other) = run(0), run(7)
    assert first == second == [parts[0] ^ parts[1] ^ parts[2]] * 3
    assert len(frames) == 6 and all(frames[k] != other[k] for k in frames)
    for p in (1, 2, 3):  # one frame to both peers, and never the share itself
        assert frames[(p, "send_next")] == frames[(p, "send_prev")]
        assert frames[(p, "send_next")][4:] != parts[p - 1].words.tobytes()


@pytest.mark.parametrize("tamper,message", [
    (lambda payload: payload[:-4], "open message has 8 bytes, expected 12"),
    (lambda payload: payload + bytes(4), "open message has 16 bytes, expected 12"),
    (lambda payload: (9).to_bytes(4, "little") + payload[4:],
     "open label mismatch: local 1, peer 9"),
], ids=["short", "long", "label"])
def test_open_additive_refuses_a_wrong_label_or_length(tamper, message):
    share = BitVector.random(70, np.random.default_rng(19))  # three words

    def worker(rt):
        if rt.index == 1:  # party 2 receives party 1's frame damaged
            send = rt.send_next
            rt.send_next = lambda op, payload, logical_bits=0: send(op, tamper(payload),
                                                                    logical_bits)
        return rss.open_additive(rt, share)

    # a protocol fault, which the CLI reports with exit code 3
    with pytest.raises(ProtocolError, match=message):
        run_local_trio(worker, recv_timeout=5)


def shared_table(rows, rng, segments=None):
    """The three parties' tables of plaintext rows, each row shared on its own."""
    per_row = [rss.share(r, rng) for r in rows]
    return [replace(MatchTable.from_rows([shares[p] for shares in per_row]), segments=segments)
            for p in range(3)]


def test_table_xor_acts_on_every_row_and_keeps_segments():
    rng = np.random.default_rng(14)
    xs = [BitVector.random(37, rng) for _ in range(5)]
    ys = [BitVector.random(37, rng) for _ in range(5)]
    tx, ty = shared_table(xs, rng, (2, 3)), shared_table(ys, rng, (2, 3))
    assert tx[0].logical_len == 5 * 37
    summed = [a.xor(b) for a, b in zip(tx, ty)]
    assert [BitVector(r, 37) for r in rss.reconstruct_rows(summed)] == [
        x ^ y for x, y in zip(xs, ys)]
    assert all(t.segments == (2, 3) for t in summed)


def test_table_xor_refuses_other_party_or_shape():
    rng = np.random.default_rng(15)
    tx = shared_table([BitVector.random(37, rng) for _ in range(5)], rng)
    with pytest.raises(ValueError, match="different parties"):
        tx[0].xor(tx[1])
    with pytest.raises(ValueError, match="length"):
        tx[0].xor(tx[0].take(slice(0, 4)))
    with pytest.raises(ValueError, match="length"):
        tx[0].xor(shared_table([BitVector.random(36, rng) for _ in range(5)], rng)[0])
    with pytest.raises(ValueError, match="party_index"):
        MatchTable(4, 37, tx[0].share_a, tx[0].share_b)


def test_from_rows_of_shared_rows_reconstructs_each_row():
    rng = np.random.default_rng(16)
    rows = [BitVector.random(70, rng) for _ in range(6)]
    tables = shared_table(rows, rng)
    assert [rss.reconstruct([t.row(i) for t in tables]) for i in range(6)] == rows
    with pytest.raises(ValueError, match="width and party"):
        MatchTable.from_rows([tables[0].row(0), tables[1].row(0)])


def make_zero_contexts():
    keys = [bytes([i + 1]) * 16 for i in range(3)]
    return [
        ZeroShareContext(keys[0], keys[2]),
        ZeroShareContext(keys[1], keys[0]),
        ZeroShareContext(keys[2], keys[1]),
    ]


def test_zero_share_cancels_and_counts():
    ctxs = make_zero_contexts()
    for j in range(50):
        outs = [c.next_share(77) for c in ctxs]
        assert (outs[0] ^ outs[1] ^ outs[2]).is_zero()
    assert all(c.counter == 50 for c in ctxs)


def test_zero_share_deterministic_and_counter_sensitive():
    ctxs = make_zero_contexts()
    ctxs[0].counter = 7
    a = ctxs[0].next_share(256)
    again = make_zero_contexts()[0]
    again.counter = 7
    assert again.next_share(256) == a
    b = ctxs[0].next_share(256)  # counter 8
    assert a != b  # 256 bits differ with overwhelming probability


def test_single_party_pair_distribution_is_independent_of_secret():
    # Exact check over all randomness for a 1-bit secret: the multiset of
    # pairs any one party can see is the same whether x=0 or x=1.
    def pairs_for(x, party):
        seen = []
        for s1 in (0, 1):
            for s2 in (0, 1):
                parts = {1: s1, 2: s2, 3: x ^ s1 ^ s2}
                seen.append((parts[party], parts[party % 3 + 1]))
        return sorted(seen)

    for party in (1, 2, 3):
        assert pairs_for(0, party) == pairs_for(1, party)
        # and the marginal is uniform over the four possible pairs
        assert pairs_for(0, party) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_reshare_rows_carries_tables_of_mixed_widths_in_one_message():
    rng = np.random.default_rng(13)
    specs = [(3, 5), (1, 70), (0, 9), (4, 33), (2, 32)]  # (rows, width) per table
    plain = [pack_bits(rng.integers(0, 2, (rows, w), dtype=np.uint8)) for rows, w in specs]
    additive = []  # three-out-of-three shares, with junk past each width
    for mat in plain:
        a1, a2 = (rng.integers(0, 1 << 32, mat.shape, dtype=np.uint32) for _ in range(2))
        additive.append((a1, a2, mat ^ a1 ^ a2))

    def worker(rt):
        parts = [(adds[rt.index - 1], w) for adds, (_, w) in zip(additive, specs)]
        return rss.reshare_rows(rt, *parts[0], more=parts[1:]), rt.meter.total

    out = run_local_trio(worker)
    for k, mat in enumerate(plain):
        assert [t[k].width for t, _ in out] == [specs[k][1]] * 3
        assert np.array_equal(rss.reconstruct_rows([t[k] for t, _ in out]), mat)
    # one frame per party: the tables' words end to end, none padded to another's width
    words = sum(rows * words_for(w) for rows, w in specs)
    for _, total in out:
        assert total.frames_sent == 1
        assert total.logical_bits == sum(rows * w for rows, w in specs)
        assert total.bytes_sent == 18 + 4 * words
    # a lone table comes back bare, as before
    lone = run_local_trio(lambda rt: rss.reshare_rows(rt, additive[0][rt.index - 1], 5))
    assert np.array_equal(rss.reconstruct_rows(lone), plain[0])


def test_share_rows_draws_every_run_as_one_call_per_run_and_component_would():
    # runs of irregular lengths, one empty, rows of three words (70 bits), and
    # rows 0, 9 and 15-16 outside every run
    runs = [(1, 3), (4, 0), (5, 4), (10, 1), (12, 3)]
    rows, width = 17, 70
    rng = np.random.default_rng(21)
    plain = pack_bits(rng.integers(0, 2, (rows, width), dtype=np.uint8))
    outside = np.ones(rows, bool)
    for lo, n in runs:
        outside[lo:lo + n] = False
    plain[outside] = 0
    drawn = np.random.default_rng(5)
    tables = rss.share_rows(plain, width, drawn, runs)
    # the reference: x1's rows then x2's, one call per run
    ref = np.random.default_rng(5)
    x1, x2 = np.zeros_like(plain), np.zeros_like(plain)
    for lo, n in runs:
        for comp in (x1, x2):
            comp[lo:lo + n] = ref.integers(0, 1 << 32, size=(n, plain.shape[1]), dtype=np.uint32)
    held = {1: (x1, x2), 2: (x2, plain ^ x1 ^ x2), 3: (plain ^ x1 ^ x2, x1)}
    for t in tables:
        want_a, want_b = (mask_tail(c.copy(), width) for c in held[t.party_index])
        assert np.array_equal(t.share_a, want_a) and np.array_equal(t.share_b, want_b)
        assert not t.share_a[outside].any() and not t.share_b[outside].any()
    assert np.array_equal(rss.reconstruct_rows(tables), plain)
    # and leaves the generator where the reference does
    assert np.array_equal(drawn.integers(0, 1 << 32, 4, dtype=np.uint32),
                          ref.integers(0, 1 << 32, 4, dtype=np.uint32))
