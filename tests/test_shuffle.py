"""Shuffle: multiset preservation, simulator agreement, seed obliviousness."""

import numpy as np
import pytest

from oblivgm import rss
from oblivgm.bits import mask_tail, pack_bits, unpack_bits, words_for
from oblivgm.net import OP_SHUFFLE, ProtocolError, local_runtimes, make_session_configs, run_trio
from oblivgm.shuffle import (MatchTable, UnitVectors, composed_permutation, sec_shuffle,
                             simulate_shuffle, simulate_unit_vectors, translate_rows)
from tests.conftest import listed, share_bits


def code_rows(codes, width):
    """The 0/1 rows of ``width``-bit codes."""
    return ((np.asarray(codes)[:, None] >> np.arange(width)) & 1).astype(np.uint8)


def run_shuffle(plain_rows, master=b"\x07" * 16, table_rounds=1, segments=None):
    """Shuffle the rows of a 0/1 matrix, each row shared on its own; returns the rebuilt matrix."""
    rng = np.random.default_rng(1234)
    shares = [share_bits(r, rng) for r in plain_rows]
    configs = make_session_configs(master)
    runtimes = local_runtimes(configs)

    def worker(rt):
        out = None
        for _ in range(table_rounds):
            table = MatchTable.from_rows([shares[i][rt.index - 1] for i in range(len(plain_rows))])
            if segments:
                table = MatchTable(table.party_index, table.width, table.share_a,
                                   table.share_b, segments)
            out = sec_shuffle(rt, table)
        return out

    outs = run_trio(worker, runtimes)
    if segments:
        # one shuffle's three messages, however many segments ride in them
        assert [rt.meter.total.frames_sent for rt in runtimes] == [1, 2, 1]
    rebuilt = unpack_bits(rss.reconstruct_rows(outs), plain_rows.shape[1])
    return rebuilt, outs, configs


def test_single_row_table():
    row = np.array([[1, 0, 1, 1, 0]], np.uint8)
    rebuilt, _, _ = run_shuffle(row)
    assert np.array_equal(rebuilt, row)


def test_multiset_preserved_and_simulator_agrees_small_sizes():
    rng = np.random.default_rng(5)
    for n in (2, 3, 8, 17, 32):
        rows = rng.integers(0, 2, (n, 45), dtype=np.uint8)
        rebuilt, _, cfg = run_shuffle(rows)
        want = simulate_shuffle(cfg[0].seed_with_next, cfg[1].seed_with_next,
                                cfg[2].seed_with_next, 0, rows)
        assert np.array_equal(rebuilt, want)
        assert sorted(rebuilt.tolist()) == sorted(rows.tolist())


def test_segments_shuffle_as_consecutive_tables_in_one_batch():
    rng = np.random.default_rng(8)
    segments = (3, 1, 6, 2)
    rows = rng.integers(0, 2, (sum(segments), 37), dtype=np.uint8)
    rebuilt, outs, cfg = run_shuffle(rows, segments=segments)
    seeds = (cfg[0].seed_with_next, cfg[1].seed_with_next, cfg[2].seed_with_next)
    start = 0
    for tid, n in enumerate(segments):
        assert np.array_equal(rebuilt[start:start + n],
                              simulate_shuffle(*seeds, tid, rows[start:start + n]))
        start += n
    assert all(out.segments == segments for out in outs)


def test_output_is_valid_replicated_sharing():
    rng = np.random.default_rng(6)
    rows = rng.integers(0, 2, (9, 70), dtype=np.uint8)
    _, outs, _ = run_shuffle(rows)
    for i in range(9):
        # pairwise replication: party p's second component equals next party's first
        for p in range(3):
            assert np.array_equal(outs[p].share_b[i], outs[(p + 1) % 3].share_a[i])
    # and row tails are clean (valid sharings of 70-bit rows)
    for out in outs:
        for mat in (out.share_a, out.share_b):
            assert np.array_equal(mask_tail(mat.copy(), 70), mat)


def test_distinct_seeds_give_distinct_orders():
    rows = code_rows(np.arange(1, 9), 32)
    first, _, _ = run_shuffle(rows, master=b"\x01" * 16)
    second, _, _ = run_shuffle(rows, master=b"\x02" * 16)
    first, second = pack_bits(first)[:, 0].tolist(), pack_bits(second)[:, 0].tolist()
    assert sorted(first) == sorted(second)
    assert first != second


def test_table_id_advances_permutation():
    rows = code_rows(np.arange(1, 9), 16)
    once, _, cfg = run_shuffle(rows, table_rounds=1)
    twice, _, _ = run_shuffle(rows, table_rounds=2)
    p0 = composed_permutation(cfg[0].seed_with_next, cfg[1].seed_with_next,
                              cfg[2].seed_with_next, 0, 8)
    p1 = composed_permutation(cfg[0].seed_with_next, cfg[1].seed_with_next,
                              cfg[2].seed_with_next, 1, 8)
    assert np.array_equal(once, rows[p0])
    assert np.array_equal(twice, rows[p1])


def test_single_party_obliviousness_structure():
    # Party 1's whole transcript does not involve the one seed it lacks (s23):
    # resampling it leaves party 1's view byte-identical, while the parties
    # that do use it see diverging messages.
    base = make_session_configs(b"\x21" * 16)
    variant = make_session_configs(b"\x21" * 16)
    variant[1].seed_with_next = b"\xee" * 16   # s23 at party 2
    variant[2].seed_with_prev = b"\xee" * 16   # s23 at party 3

    def transcripts(configs):
        rng = np.random.default_rng(99)
        rows = rng.integers(0, 2, (12, 33), dtype=np.uint8)
        runtimes = local_runtimes(configs)

        def worker(rt):
            table = MatchTable.from_rows(
                [share_bits(r, np.random.default_rng(50 + i))[rt.index - 1]
                 for i, r in enumerate(rows)])
            sec_shuffle(rt, table)
            return rt.transcript_digest()

        return run_trio(worker, runtimes)

    t_base = transcripts(base)
    t_variant = transcripts(variant)
    assert t_base[0] == t_variant[0]  # party 1 cannot tell s23 changed
    assert t_base[1] != t_variant[1]
    assert t_base[2] != t_variant[2]
    # structural isolation: each party's runtime holds only its two seeds
    rts = local_runtimes(base)
    held = [{rt.seed_with_next, rt.seed_with_prev} for rt in rts]
    s12, s23, s31 = base[0].seed_with_next, base[1].seed_with_next, base[2].seed_with_next
    assert held[0] == {s12, s31} and held[1] == {s23, s12} and held[2] == {s31, s23}


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(3)
    rows = [share_bits(rng.integers(0, 2, 16), rng)[0],
            share_bits(rng.integers(0, 2, 24), rng)[0]]
    with pytest.raises(ValueError, match="width"):
        MatchTable.from_rows(rows)
    table = MatchTable.from_rows(rows[:1])
    with pytest.raises(ValueError, match="segments"):
        MatchTable(table.party_index, table.width, table.share_a, table.share_b, (1, 1))


def test_tables_of_different_widths_shuffle_in_one_call():
    rng = np.random.default_rng(11)
    specs = [(37, (3, 1)), (5, (4,)), (70, (2, 2, 1)), (1, (1,))]  # (width, segments)
    plain = [rng.integers(0, 2, (sum(segs), w), dtype=np.uint8) for w, segs in specs]
    shares = [[share_bits(r, rng) for r in rows] for rows in plain]
    configs = make_session_configs(b"\x09" * 16)
    runtimes = local_runtimes(configs)

    def worker(rt):
        tables = []
        for (w, segs), rows in zip(specs, shares):
            t = MatchTable.from_rows([r[rt.index - 1] for r in rows])
            tables.append(MatchTable(rt.index, w, t.share_a, t.share_b, segs))
        return sec_shuffle(rt, tables[0], more=tables[1:])

    outs = run_trio(worker, runtimes)
    # still the one shuffle's frames, each all tables' words end to end, unpadded
    assert [rt.meter.total.frames_sent for rt in runtimes] == [1, 2, 1]
    words = sum(len(rows) * words_for(w) for (w, _), rows in zip(specs, plain))
    assert runtimes[0].meter.total.bytes_sent == 18 + 4 + 4 * words
    seeds = tuple(c.seed_with_next for c in configs)
    tid = 0
    for k, ((w, segs), rows) in enumerate(zip(specs, plain)):
        assert all((out[k].width, out[k].segments) == (w, segs) for out in outs)
        rebuilt = unpack_bits(rss.reconstruct_rows([out[k] for out in outs]), w)
        start = 0
        for n in segs:  # every segment of every table under the next table id
            assert np.array_equal(rebuilt[start:start + n],
                                  simulate_shuffle(*seeds, tid, rows[start:start + n]))
            start, tid = start + n, tid + 1


def sec_unit_vectors(rt, codes, sizes):
    """:class:`UnitVectors` of replicated codes: the masks' round, then the open's.

    A replicated table's first component is the party's additive share.
    """
    units = UnitVectors(rt, [(t.rows, t.width) for t in codes])
    units.send_masks()
    return units.expand([(t.share_a, t.width) for t in codes], sizes)


def test_unit_vectors_exhaustive_widths():
    """Id widths 1..4: every code, 0 included, expands to its unit vector; 0 to a zero row.

    Each population of 1..15 vertices runs alone under its own table id, and
    then all of them together in one expansion, rows of four widths padded
    to the widest one's 16 positions. Every opened d is the reference's.
    """
    for master in (b"\x71" * 16, b"\x72" * 16):
        configs = make_session_configs(master)
        seeds = tuple(c.seed_with_next for c in configs)
        rng = np.random.default_rng(master[0])
        sizes = list(range(1, 16))
        codes = [rng.permutation(n + 1).astype(np.uint32) for n in sizes]  # every code 0..n
        widths = [n.bit_length() for n in sizes]
        shares = [rss.share_rows(c[:, None], w, rng) for c, w in zip(codes, widths)]

        def worker(rt):
            mine = [tables[rt.index - 1] for tables in shares]
            alone = [sec_unit_vectors(rt, [t], [n]) for t, n in zip(mine, sizes)]
            return alone + [sec_unit_vectors(rt, mine, sizes)], rt.opened

        runtimes = local_runtimes(configs)
        outs = run_trio(worker, runtimes)
        # expansion k draws its masks under table id k
        runs = [[i] for i in range(len(sizes))] + [list(range(len(sizes)))]
        for k, which in enumerate(runs):
            row_widths = np.concatenate([[widths[i]] * len(codes[i]) for i in which])
            all_codes = np.concatenate([codes[i] for i in which])
            d, hot = simulate_unit_vectors(*seeds, k, row_widths, all_codes)
            start = 0
            for j, i in enumerate(which):
                tables = [out[0][k][j] for out in outs]
                assert all((t.rows, t.width) == (len(codes[i]), sizes[i]) for t in tables)
                got = unpack_bits(rss.reconstruct_rows(tables), sizes[i])
                want = np.zeros((len(codes[i]), sizes[i]), np.uint8)
                hit = codes[i] > 0
                want[np.nonzero(hit)[0], codes[i][hit].astype(np.int64) - 1] = 1
                assert np.array_equal(got, want)
                assert np.array_equal(got, hot[start:start + len(codes[i]), :sizes[i]])
                for p in range(3):  # a valid replicated sharing
                    assert np.array_equal(tables[p].share_b, tables[(p + 1) % 3].share_a)
                start += len(codes[i])
            # the open of this run's d, the same at every party
            (entry,) = [e for e in outs[0][1] if e.label == k + 1]
            assert all(listed([out[1][k]]) == listed([entry]) for out in outs)
            opened = np.concatenate([unpack_bits(np.array([[v]], np.uint32), int(w))[0]
                                     for v, w in zip(d.tolist(), row_widths)])
            assert np.array_equal(entry.bits, opened)
        # per expansion two rounds: three mask frames, and the open's six,
        # each party's blinded share to both peers
        sent = [rt.meter.total for rt in runtimes]
        assert sum(m.frames_sent for m in sent) == 9 * len(runs)


@pytest.mark.parametrize("sender,tamper,message", [
    (1, lambda payload: payload[:-4], "shuffle message has 8 bytes, expected 12"),
    (1, lambda payload: payload + bytes(4), "shuffle message has 16 bytes, expected 12"),
    (1, lambda payload: (4).to_bytes(4, "little") + payload[4:], "table id mismatch: 4 != 3"),
    (3, lambda payload: payload[:-4], "shuffle message has 8 bytes, expected 12"),
], ids=["short", "long", "table-id", "party-3-short"])
def test_unit_vector_frames_of_the_wrong_length_or_table_id_are_refused(sender, tamper, message):
    # three 5-bit codes take mask rows of 32 positions, one word each. Party 2
    # receives a mask frame damaged: party 1's, sent with its open frames, or
    # party 3's, sent alone in the step before the open
    runtimes = local_runtimes(make_session_configs(b"\x64" * 16), recv_timeout=5)
    codes = rss.share_rows(np.array([[1], [6], [20]], np.uint32), 5, np.random.default_rng(3))

    def worker(rt):
        for _ in range(3):  # the expansion draws table id 3
            rt.alloc_table_id()
        if rt.index == sender:  # only the mask frame to party 2 is damaged
            name = "send_next" if sender == 1 else "send_prev"
            send = getattr(rt, name)
            setattr(rt, name, lambda op, payload, logical_bits=0: send(
                op, tamper(payload) if op == OP_SHUFFLE else payload, logical_bits))
        return sec_unit_vectors(rt, [codes[rt.index - 1]], [20])

    with pytest.raises(ProtocolError, match=message):
        run_trio(worker, runtimes)


def test_translation_is_an_involution_that_moves_each_row_by_its_offset():
    rng = np.random.default_rng(9)
    for width in (1, 2, 16, 64, 512):
        bits = rng.integers(0, 2, (7, width), dtype=np.uint8)
        offsets = rng.integers(0, width, 7).astype(np.uint32)
        moved = translate_rows(pack_bits(bits), width, offsets)
        j = np.arange(width)
        assert all(np.array_equal(unpack_bits(moved, width)[k, j ^ offsets[k]], bits[k])
                   for k in range(7))
        assert np.array_equal(translate_rows(moved, width, offsets), pack_bits(bits))
