"""Replicated sharing: reconstruction, local algebra, the AND round, zero-shares."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivgm import rss
from oblivgm.bits import BitVector, mask_tail, one_hot_rows, pack_bits, unpack_bits, words_for
from oblivgm.net import ProtocolError, run_local_trio
from oblivgm.rss import MatchTable, ZeroShareContext
from oblivgm.shuffle import sec_shuffle
from tests.conftest import plain_bits, share_bits


def random_bits(n, rng):
    return rng.integers(0, 2, n, dtype=np.uint8)


def test_share_reconstruct_exhaustive_up_to_16_bits():
    # short lengths fully enumerated; 16-bit space swept in bulk via vectorized
    # sharing of every value packed into one long vector
    rng = np.random.default_rng(0)
    for n in range(1, 11):
        for value in range(1 << n):
            x = (value >> np.arange(n)) & 1
            assert np.array_equal(plain_bits(rss.share(BitVector.from_bits(x), rng)), x)
    all16 = np.arange(1 << 16, dtype=np.uint64)
    shifts = np.arange(16, dtype=np.uint64)
    bulk = ((all16[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)
    assert np.array_equal(plain_bits(rss.share(BitVector.from_bits(bulk), rng)), bulk)


def test_share_reconstruct_randomized_long():
    rng = np.random.default_rng(7)
    for n in (64, 257, 1000):
        x = random_bits(n, rng)
        shares = share_bits(x, rng)
        assert np.array_equal(plain_bits(shares), x)
        for pair in ((0, 1), (1, 2), (0, 2)):
            assert np.array_equal(plain_bits([shares[pair[0]], shares[pair[1]]]), x)


def test_share_zero_and_single_bit():
    rng = np.random.default_rng(0)
    assert not plain_bits(share_bits(np.zeros(8), rng)).any()
    assert plain_bits(rss.share(BitVector.from_bits([1]), rng)).tolist() == [1]


def test_share_rejects_empty():
    with pytest.raises(ValueError):
        rss.share(BitVector.from_bits([]), np.random.default_rng(0))


def test_reconstruct_needs_all_indices():
    rng = np.random.default_rng(1)
    shares = share_bits([1, 0, 1], rng)
    with pytest.raises(ValueError, match="cover"):
        rss.reconstruct_rows([shares[0]])


def test_reconstruct_rejects_length_mismatch():
    rng = np.random.default_rng(1)
    a = share_bits([1, 0, 1], rng)
    b = share_bits([1, 0], rng)
    with pytest.raises(ValueError, match="length"):
        rss.reconstruct_rows([a[0], b[1]])


def test_reconstruct_rejects_inconsistent_copies():
    rng = np.random.default_rng(1)
    s1, s2, s3 = share_bits([1, 0, 1, 1], rng)
    corrupt = rss.MatchTable(2, 4, s2.share_a ^ pack_bits(np.array([1, 0, 0, 0], np.uint8)),
                             s2.share_b)
    with pytest.raises(ValueError, match="inconsistent"):
        rss.reconstruct_rows([s1, corrupt, s3])


def test_xor_local_identities():
    rng = np.random.default_rng(3)
    x = random_bits(96, rng)
    sx = share_bits(x, rng)
    zeros = share_bits(np.zeros(96), rng)
    assert not plain_bits([s.xor(s) for s in sx]).any()
    assert np.array_equal(plain_bits([a.xor(z) for a, z in zip(sx, zeros)]), x)


def test_xor_local_random_pairs():
    rng = np.random.default_rng(4)
    x, y = random_bits(130, rng), random_bits(130, rng)
    sx, sy = share_bits(x, rng), share_bits(y, rng)
    assert np.array_equal(plain_bits([a.xor(b) for a, b in zip(sx, sy)]), x ^ y)


def test_xor_local_party_mismatch():
    rng = np.random.default_rng(5)
    sx = share_bits([1, 1], rng)
    with pytest.raises(ValueError, match="different parties"):
        sx[0].xor(sx[1])


def test_and_gate_absorbing_and_identity_bits():
    rng = np.random.default_rng(6)
    cases = [([0], [1], [0]), ([1], [1], [1]), ([1, 0, 1, 1], [1, 1, 0, 1], [1, 0, 0, 1])]
    for xb, yb, want in cases:
        sx, sy = share_bits(xb, rng), share_bits(yb, rng)
        out = run_local_trio(lambda rt: rss.and_gate(rt, sx[rt.index - 1], sy[rt.index - 1]))
        assert plain_bits(out).tolist() == want


def test_and_gate_random_and_comm_accounting():
    rng = np.random.default_rng(8)
    x, y = random_bits(64, rng), random_bits(64, rng)
    sx, sy = share_bits(x, rng), share_bits(y, rng)

    def worker(rt):
        z = rss.and_gate(rt, sx[rt.index - 1], sy[rt.index - 1])
        return z, rt.meter.total.logical_bits

    out = run_local_trio(worker)
    assert np.array_equal(plain_bits([o[0] for o in out]), x & y)
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
    x = [0, 1, 1, 0]
    sx = share_bits(x, rng)

    def worker(rt):
        return rss.open_shared(rt, sx[rt.index - 1])

    assert all(o.tolist() == x for o in run_local_trio(worker))

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
        parts = [random_bits(n, rng) for _ in range(3)]
        want = parts[0] ^ parts[1] ^ parts[2]

        def worker(rt):
            opened = rss.open_additive(rt, parts[rt.index - 1], slots=[(5, (n,))])
            return opened, rt.opened, rt.meter.total

        for opened, ledger, sent in run_local_trio(worker):
            assert np.array_equal(opened, want)
            assert [(e.label, e.slot, e.segments, e.bits.tolist()) for e in ledger] == [
                (1, 5, (n,), want.tolist())]
            # one blinded share to each peer, in one round
            assert (sent.frames_sent, sent.logical_bits) == (2, 2 * n)


def test_open_additive_frames_move_with_the_zero_sharing_but_not_the_value():
    rng = np.random.default_rng(18)
    parts = [random_bits(70, rng) for _ in range(3)]

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
    want = (parts[0] ^ parts[1] ^ parts[2]).tolist()
    assert [o.tolist() for o in first] == [o.tolist() for o in second] == [want] * 3
    assert len(frames) == 6 and all(frames[k] != other[k] for k in frames)
    for p in (1, 2, 3):  # one frame to both peers, and never the share itself
        assert frames[(p, "send_next")] == frames[(p, "send_prev")]
        assert frames[(p, "send_next")][4:] != pack_bits(parts[p - 1]).tobytes()


@pytest.mark.parametrize("tamper,message", [
    (lambda payload: payload[:-4], "open message has 8 bytes, expected 12"),
    (lambda payload: payload + bytes(4), "open message has 16 bytes, expected 12"),
    (lambda payload: (9).to_bytes(4, "little") + payload[4:],
     "open label mismatch: local 1, peer 9"),
], ids=["short", "long", "label"])
def test_open_additive_refuses_a_wrong_label_or_length(tamper, message):
    share = random_bits(70, np.random.default_rng(19))  # three words

    def worker(rt):
        if rt.index == 1:  # party 2 receives party 1's frame damaged
            send = rt.send_next
            rt.send_next = lambda op, payload, logical_bits=0: send(op, tamper(payload),
                                                                    logical_bits)
        return rss.open_additive(rt, share)

    # a protocol fault, which the CLI reports with exit code 3
    with pytest.raises(ProtocolError, match=message):
        run_local_trio(worker, recv_timeout=5)


# (slot, segments) runs of one 14-bit open, an empty group among them
RUNS = [(4, (3, 2)), (9, (1,)), (2, (4, 0, 4))]


@pytest.mark.parametrize("opener", ["open_shared", "open_additive", "sec_shuffle"])
def test_every_open_returns_a_0_1_array_and_enters_its_runs_in_the_ledger(opener):
    rng = np.random.default_rng(23)
    plain = random_bits(14, rng)
    shares = share_bits(plain, rng)
    additive = [random_bits(14, rng), random_bits(14, rng)]
    additive.append(plain ^ additive[0] ^ additive[1])
    # for the shuffle: one table per slot, the plain bits as bit 0 of its rows of 3 bits
    bounds = np.cumsum([0] + [sum(segments) for _, segments in RUNS])
    rows = np.concatenate([plain[:, None], random_bits((14, 2), rng)], axis=1)
    tables = [shared_table(rows[lo:hi], rng, segments)
              for (_, segments), lo, hi in zip(RUNS, bounds[:-1], bounds[1:])]

    def worker(rt):
        i = rt.index - 1
        if opener == "open_shared":
            return rss.open_shared(rt, shares[i], slots=RUNS), None, rt.opened
        if opener == "open_additive":
            return rss.open_additive(rt, additive[i], slots=RUNS), None, rt.opened
        shuffled, flags = sec_shuffle(rt, tables[0][i], more=[t[i] for t in tables[1:]],
                                      open_flags=True, slots=[slot for slot, _ in RUNS])
        return flags, shuffled, rt.opened

    out = run_local_trio(worker)
    want = plain
    if opener == "sec_shuffle":  # each group's flags come back in its shuffled order
        want = np.concatenate([unpack_bits(rss.reconstruct_rows([o[1][k] for o in out]), 3)[:, 0]
                               for k in range(len(RUNS))])
        ends = np.cumsum([0] + [n for _, segments in RUNS for n in segments])
        for lo, hi in zip(ends[:-1], ends[1:]):
            assert sorted(want[lo:hi]) == sorted(plain[lo:hi])
    for opened, _, ledger in out:
        assert isinstance(opened, np.ndarray) and opened.dtype == np.uint8
        assert opened.tolist() == want.tolist()
        assert all(isinstance(e.bits, np.ndarray) and e.bits.dtype == np.uint8 for e in ledger)
        assert [(e.label, e.slot, e.segments, e.bits.tolist()) for e in ledger] == [
            (1, slot, segments, want[lo:hi].tolist())
            for (slot, segments), lo, hi in zip(RUNS, bounds[:-1], bounds[1:])]


def shared_table(rows, rng, segments=None):
    """The three parties' tables of a 0/1 matrix's rows, each row shared on its own."""
    per_row = [share_bits(r, rng) for r in rows]
    return [replace(MatchTable.from_rows([shares[p] for shares in per_row]), segments=segments)
            for p in range(3)]


def test_table_xor_acts_on_every_row_and_keeps_segments():
    rng = np.random.default_rng(14)
    xs, ys = random_bits((5, 37), rng), random_bits((5, 37), rng)
    tx, ty = shared_table(xs, rng, (2, 3)), shared_table(ys, rng, (2, 3))
    assert tx[0].logical_len == 5 * 37
    summed = [a.xor(b) for a, b in zip(tx, ty)]
    assert np.array_equal(unpack_bits(rss.reconstruct_rows(summed), 37), xs ^ ys)
    assert all(t.segments == (2, 3) for t in summed)


def test_table_xor_refuses_other_party_or_shape():
    rng = np.random.default_rng(15)
    tx = shared_table(random_bits((5, 37), rng), rng)
    with pytest.raises(ValueError, match="different parties"):
        tx[0].xor(tx[1])
    with pytest.raises(ValueError, match="length"):
        tx[0].xor(tx[0].take(slice(0, 4)))
    with pytest.raises(ValueError, match="length"):
        tx[0].xor(shared_table(random_bits((5, 36), rng), rng)[0])
    with pytest.raises(ValueError, match="party_index"):
        MatchTable(4, 37, tx[0].share_a, tx[0].share_b)


def test_from_rows_of_shared_rows_reconstructs_each_row():
    rng = np.random.default_rng(16)
    rows = random_bits((6, 70), rng)
    tables = shared_table(rows, rng)
    for i in range(6):
        assert np.array_equal(plain_bits([t.take(slice(i, i + 1)) for t in tables]), rows[i])
    with pytest.raises(ValueError, match="width and party"):
        MatchTable.from_rows([tables[0].take(slice(0, 1)), tables[1].take(slice(0, 1))])


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
        assert outs[0].shape == (words_for(77),) and not (outs[0] >> 13)[-1]  # tail bits zero
        assert not (outs[0] ^ outs[1] ^ outs[2]).any()
    assert all(c.counter == 50 for c in ctxs)


def test_zero_share_deterministic_and_counter_sensitive():
    ctxs = make_zero_contexts()
    ctxs[0].counter = 7
    a = ctxs[0].next_share(256)
    again = make_zero_contexts()[0]
    again.counter = 7
    assert np.array_equal(again.next_share(256), a)
    b = ctxs[0].next_share(256)  # counter 8
    assert not np.array_equal(a, b)  # 256 bits differ with overwhelming probability


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
