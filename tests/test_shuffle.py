"""Shuffle: multiset preservation, simulator agreement, seed obliviousness."""

import numpy as np
import pytest

from oblivgm import rss
from oblivgm.bits import BitVector, mask_tail, words_for
from oblivgm.net import local_runtimes, make_session_configs, run_trio
from oblivgm.shuffle import (MatchTable, composed_permutation, sec_shuffle,
                             simulate_shuffle)


def run_shuffle(plain_rows, master=b"\x07" * 16, table_rounds=1, segments=None):
    rng = np.random.default_rng(1234)
    shares = [rss.share(r, rng) for r in plain_rows]
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
    rebuilt = [
        rss.reconstruct([outs[0].row(i), outs[1].row(i), outs[2].row(i)])
        for i in range(len(plain_rows))
    ]
    return rebuilt, outs, configs


def test_single_row_table():
    row = BitVector.from_bits([1, 0, 1, 1, 0])
    rebuilt, _, _ = run_shuffle([row])
    assert rebuilt == [row]


def test_multiset_preserved_and_simulator_agrees_small_sizes():
    rng = np.random.default_rng(5)
    for n in (2, 3, 8, 17, 32):
        rows = [BitVector.random(45, rng) for _ in range(n)]
        rebuilt, _, cfg = run_shuffle(rows)
        want = simulate_shuffle(cfg[0].seed_with_next, cfg[1].seed_with_next,
                                cfg[2].seed_with_next, 0, rows)
        assert rebuilt == want
        assert sorted(r.words.tobytes() for r in rebuilt) == sorted(
            r.words.tobytes() for r in rows)


def test_segments_shuffle_as_consecutive_tables_in_one_batch():
    rng = np.random.default_rng(8)
    segments = (3, 1, 6, 2)
    rows = [BitVector.random(37, rng) for _ in range(sum(segments))]
    rebuilt, outs, cfg = run_shuffle(rows, segments=segments)
    seeds = (cfg[0].seed_with_next, cfg[1].seed_with_next, cfg[2].seed_with_next)
    start = 0
    for tid, n in enumerate(segments):
        assert rebuilt[start:start + n] == simulate_shuffle(*seeds, tid, rows[start:start + n])
        start += n
    assert all(out.segments == segments for out in outs)


def test_output_is_valid_replicated_sharing():
    rng = np.random.default_rng(6)
    rows = [BitVector.random(70, rng) for _ in range(9)]
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
    rng = np.random.default_rng(7)
    rows = [BitVector.from_int(i + 1, 32) for i in range(8)]
    first, _, _ = run_shuffle(rows, master=b"\x01" * 16)
    second, _, _ = run_shuffle(rows, master=b"\x02" * 16)
    assert sorted(r.to_int() for r in first) == sorted(r.to_int() for r in second)
    assert [r.to_int() for r in first] != [r.to_int() for r in second]


def test_table_id_advances_permutation():
    rows = [BitVector.from_int(i + 1, 16) for i in range(8)]
    once, _, cfg = run_shuffle(rows, table_rounds=1)
    twice, _, _ = run_shuffle(rows, table_rounds=2)
    p0 = composed_permutation(cfg[0].seed_with_next, cfg[1].seed_with_next,
                              cfg[2].seed_with_next, 0, 8)
    p1 = composed_permutation(cfg[0].seed_with_next, cfg[1].seed_with_next,
                              cfg[2].seed_with_next, 1, 8)
    assert [r.to_int() for r in once] == [rows[i].to_int() for i in p0]
    assert [r.to_int() for r in twice] == [rows[i].to_int() for i in p1]


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
        rows = [BitVector.random(33, rng) for _ in range(12)]
        runtimes = local_runtimes(configs)

        def worker(rt):
            table = MatchTable.from_rows(
                [rss.share(r, np.random.default_rng(50 + i))[rt.index - 1]
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
    rows = [rss.share(BitVector.random(16, rng), rng)[0],
            rss.share(BitVector.random(24, rng), rng)[0]]
    with pytest.raises(ValueError, match="width"):
        MatchTable.from_rows(rows)
    table = MatchTable.from_rows(rows[:1])
    with pytest.raises(ValueError, match="segments"):
        MatchTable(table.party_index, table.width, table.share_a, table.share_b, (1, 1))


def test_tables_of_different_widths_shuffle_in_one_call():
    rng = np.random.default_rng(11)
    specs = [(37, (3, 1)), (5, (4,)), (70, (2, 2, 1)), (1, (1,))]  # (width, segments)
    plain = [[BitVector.random(w, rng) for _ in range(sum(segs))] for w, segs in specs]
    shares = [[rss.share(r, rng) for r in rows] for rows in plain]
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
        rebuilt = [rss.reconstruct([out[k].row(i) for out in outs]) for i in range(len(rows))]
        start = 0
        for n in segs:  # every segment of every table under the next table id
            assert rebuilt[start:start + n] == simulate_shuffle(*seeds, tid, rows[start:start + n])
            start, tid = start + n, tid + 1
