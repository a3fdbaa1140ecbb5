"""Replicated sharing: reconstruction, local algebra, the AND round, zero-shares."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivgm import rss
from oblivgm.bits import BitVector, pack_bits, words_for
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


def test_xor_public_constant():
    rng = np.random.default_rng(10)
    x = BitVector.random(40, rng)
    c = BitVector.random(40, rng)
    sx = rss.share(x, rng)
    assert rss.reconstruct([s.xor_public(c) for s in sx]) == (x ^ c)


def shared_table(rows, rng, segments=None):
    """The three parties' tables of plaintext rows, each row shared on its own."""
    per_row = [rss.share(r, rng) for r in rows]
    return [replace(MatchTable.from_rows([shares[p] for shares in per_row]), segments=segments)
            for p in range(3)]


def test_table_xor_and_xor_public_act_on_every_row_and_keep_segments():
    rng = np.random.default_rng(14)
    xs = [BitVector.random(37, rng) for _ in range(5)]
    ys = [BitVector.random(37, rng) for _ in range(5)]
    tx, ty = shared_table(xs, rng, (2, 3)), shared_table(ys, rng, (2, 3))
    assert tx[0].logical_len == 5 * 37
    summed = [a.xor(b) for a, b in zip(tx, ty)]
    assert [BitVector(r, 37) for r in rss.reconstruct_rows(summed)] == [
        x ^ y for x, y in zip(xs, ys)]
    c = BitVector.random(37, rng)
    shifted = [t.xor_public(c) for t in tx]
    assert [BitVector(r, 37) for r in rss.reconstruct_rows(shifted)] == [x ^ c for x in xs]
    assert all(t.segments == (2, 3) for t in summed + shifted)


def test_table_xor_refuses_other_party_or_shape():
    rng = np.random.default_rng(15)
    tx = shared_table([BitVector.random(37, rng) for _ in range(5)], rng)
    with pytest.raises(ValueError, match="different parties"):
        tx[0].xor(tx[1])
    with pytest.raises(ValueError, match="length"):
        tx[0].xor(tx[0].take(slice(0, 4)))
    with pytest.raises(ValueError, match="length"):
        tx[0].xor(shared_table([BitVector.random(36, rng) for _ in range(5)], rng)[0])
    with pytest.raises(ValueError, match="length"):
        tx[0].xor_public(BitVector.random(36, rng))
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
        assert (total.frames_sent, total.rounds) == (1, 1)
        assert total.logical_bits == sum(rows * w for rows, w in specs)
        assert total.bytes_sent == 18 + 4 * words
    # a lone table comes back bare, as before
    lone = run_local_trio(lambda rt: rss.reshare_rows(rt, additive[0][rt.index - 1], 5))
    assert np.array_equal(rss.reconstruct_rows(lone), plain[0])
