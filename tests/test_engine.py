"""Engine components against plaintext oracles, plus end-to-end equivalence."""

import copy
import math
import re
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from oblivgm import engine, fss, rss
from oblivgm.bits import BitVector, mask_tail, pack_bits, unpack_bits, words_for
from oblivgm.engine import (RecordTable, combine_predicates,
                            open_results, sec_eval, sec_fetch_multi,
                            sec_fetch_unique, sec_match, _bit_field, _pack_fields)
from oblivgm.graphs import (GraphSchema, TypeSchema, build_schema, encrypt_graph,
                            parse_graph_text)
from oblivgm.net import (OP_OPEN, OP_RESHARE, OP_SHUFFLE, ProtocolError, local_runtimes,
                         make_session_configs, run_trio)
from oblivgm.oracle import _Matcher, oracle_match
from oblivgm.query import QueryFormatError, gen_token, load_query
from oblivgm.rss import MatchTable
from oblivgm.shuffle import simulate_unit_vectors
from tests.conftest import (CAMPUS_GRAPH, TWO_PERSON_QUERY, chainmap_assemble, depth_stamper,
                            expected_access_segments, expected_open_counts, opened_counts,
                            plain_bits, row_code, run_secure_query, share_bits)


def make_group(values, domain, rng, ids_domain=None):
    """One root candidate group per party from plaintext attr indices; id i is one-hot at i."""
    count = len(values)
    ids_domain = ids_domain or count
    id_bits = np.zeros((count, ids_domain), np.uint8)
    for i in range(count):
        id_bits[i, i] = 1
    attr_bits = np.zeros((count, domain), np.uint8)
    for i, v in enumerate(values):
        if v is not None:  # None models a dummy (all-zero) value
            attr_bits[i, v] = 1
    id_words = pack_bits(id_bits)
    attr_words = pack_bits(attr_bits)
    id_shares = [np.zeros_like(id_words) for _ in range(3)]
    attr_shares = [np.zeros_like(attr_words) for _ in range(3)]
    for mats, shares in ((id_words, id_shares), (attr_words, attr_shares)):
        s1 = rng.integers(0, 1 << 32, size=mats.shape, dtype=np.uint32)
        s2 = rng.integers(0, 1 << 32, size=mats.shape, dtype=np.uint32)
        shares[0][:], shares[1][:], shares[2][:] = s1, s2, mats ^ s1 ^ s2
    groups = []
    for p in range(3):
        nxt = (p + 1) % 3
        groups.append(RecordTable(
            MatchTable(p + 1, ids_domain, id_shares[p], id_shares[nxt]),
            {"a": MatchTable(p + 1, domain, attr_shares[p], attr_shares[nxt])},
            np.full(count, -1),
        ))
    return groups


def trio_keys(kind, operands, domain, rng):
    (k11, k21), (k12, k22), (k13, k23) = (fss.key_pair_gen(kind, operands, domain, rng)
                                          for _ in range(3))
    return [(k11, k12), (k22, k13), (k23, k21)]


def run_eval(values, domain, kind, operands, master=b"\x31" * 16):
    rng = np.random.default_rng(9)
    groups = make_group(values, domain, rng)
    keys = trio_keys(kind, operands, domain, rng)
    runtimes = local_runtimes(make_session_configs(master))

    def worker(rt):
        key_a, key_b = keys[rt.index - 1]
        indicators = fss.full_domain_eval(key_a, domain, more=[(key_b, domain)])
        return sec_eval(rt, [(groups[rt.index - 1].attrs["a"],
                              tuple(pack_bits(i)[None] for i in indicators))])[0]

    shares = run_trio(worker, runtimes)
    return plain_bits(shares), runtimes


def hop_graph_text(n: int) -> str:
    """Three types of ``n`` vertices, each with four ``x0`` values held ``n / 4`` times.

    Every ``A`` vertex has two ``B`` and two ``C`` neighbours, and every
    ``B`` vertex two ``C`` neighbours, as in the benchmark's hop workload.
    """
    lines = [f"V {t} {t.lower()}{i} x0={i % 4}" for t in "ABC" for i in range(n)]
    lines += [f"E {a.lower()}{i} {b.lower()}{(i + off) % n}"
              for a, b in ("AB", "AC", "BC") for i in range(n) for off in (0, 7)]
    return "\n".join(lines) + "\n"


def skew_graph_text(n: int, seed: int = 0) -> str:
    """The vertices of :func:`hop_graph_text`, with Zipf-skewed edges.

    Each type pair (A-B, A-C, B-C) draws ``3 * n`` edges: the first end with
    weight ``1 / (i + 1) ** 0.9`` for vertex ``i``, the second uniformly, a
    repeated edge counting once. A few first ends get most of the edges, so
    their type's padded lengths toward the second type are far from even.
    """
    rng = np.random.default_rng(seed)
    lines = [f"V {t} {t.lower()}{i} x0={i % 4}" for t in "ABC" for i in range(n)]
    weights = 1.0 / np.arange(1, n + 1) ** 0.9
    edges = {}
    for a, b in ("AB", "AC", "BC"):
        for x, y in zip(rng.choice(n, 3 * n, p=weights / weights.sum()),
                        rng.integers(0, n, 3 * n)):
            edges.setdefault(f"E {a.lower()}{x} {b.lower()}{y}")
    return "\n".join(lines + list(edges)) + "\n"


HOP_QUERY = ("Q s0 A x0 in 2 2\nQ s1 B x0 >= 1\nQ s2 C x0 >= {c}\nQ s3 C x0 >= {c}\n"
             "QE s0 s1\nQE s0 s2\nQE s1 s3\n")


# on skew_graph_text(24), A's padded lengths toward B are far from even, so
# the inner slot s1 is fetched though its one child is a leaf
SKEW_CHAIN = "Q s0 A x0 in 1 2\nQ s1 B x0 >= 1\nQ s2 C x0 >= 1\nQE s0 s1\nQE s1 s2\n"


def test_sec_eval_equality_hits_and_misses():
    bits, _ = run_eval([5, 7, 5, 0], 16, "eq", (5,))
    assert bits.tolist() == [1, 0, 1, 0]


def test_sec_eval_interval_filter_of_100_candidates():
    rng = np.random.default_rng(3)
    ages = rng.integers(0, 128, size=100).tolist()
    bits, runtimes = run_eval(ages, 128, "iv", (30, 40))
    assert bits.tolist() == [1 if 30 <= a <= 40 else 0 for a in ages]
    # an interval key is evaluated in one pass: one bit re-shared per candidate
    assert all(rt.meter.total.logical_bits == 100 for rt in runtimes)


def test_sec_eval_equality_communication_is_one_bit_per_candidate():
    bits, runtimes = run_eval([3, 9, 3], 16, "eq", (3,))
    assert all(rt.meter.total.logical_bits == 3 for rt in runtimes)


def test_sec_eval_dummy_candidates_never_match():
    bits, _ = run_eval([None, 2, None], 8, "ge", (0,))  # x >= 0 matches any real value
    assert bits.tolist() == [0, 1, 0]


def combine_worker(values_by_party, combiner):
    runtimes = local_runtimes(make_session_configs(b"\x32" * 16))

    def worker(rt):
        bits = values_by_party[rt.index - 1]
        return combine_predicates(rt, [bits], [combiner])[0]

    return plain_bits(run_trio(worker, runtimes))


def shared_bits(columns, rng):
    """Share p predicate columns (each a list of bits) into per-party lists."""
    per_party = [[], [], []]
    for col in columns:
        shares = share_bits(col, rng)
        for p in range(3):
            per_party[p].append(shares[p])
    return per_party


@pytest.mark.parametrize("combiner,table", [
    ("ALL", lambda a, b: a & b),
    ("ANY", lambda a, b: a | b),
])
def test_combine_two_predicates_truth_table(combiner, table):
    rng = np.random.default_rng(5)
    a = [0, 0, 1, 1]
    b = [0, 1, 0, 1]
    per_party = shared_bits([a, b], rng)
    got = combine_worker(per_party, combiner)
    assert got.tolist() == [table(x, y) for x, y in zip(a, b)]


def test_combine_three_all_and_single_identity():
    rng = np.random.default_rng(6)
    cols = [[1, 1, 0], [1, 0, 1], [1, 1, 1]]
    per_party = shared_bits(cols, rng)
    assert combine_worker(per_party, "ALL").tolist() == [1, 0, 0]
    single = shared_bits([[1, 0, 1]], rng)
    assert combine_worker(single, "ALL").tolist() == [1, 0, 1]
    with pytest.raises(ValueError):
        combine_worker([[], [], []], "ALL")


@pytest.mark.parametrize("count", [2, 3, 4, 5, 8])
def test_combining_is_a_balanced_fold(count):
    # j predicates take ceil(log2 j) AND re-shares, whatever the combiner; a
    # slot with fewer predicates rides along in the same messages
    rng = np.random.default_rng(count)
    cols = rng.integers(0, 2, (count, 16)).tolist()
    slots = [(cols, "ALL"), (cols, "ANY"), (cols[:2], "ANY")]
    per_slot = [shared_bits(c, rng) for c, _ in slots]
    runtimes = local_runtimes(make_session_configs(b"\x35" * 16))
    out = run_trio(lambda rt: combine_predicates(rt, [bits[rt.index - 1] for bits in per_slot],
                                                 [combiner for _, combiner in slots]), runtimes)
    got = [plain_bits([o[k] for o in out]).tolist() for k in range(len(slots))]
    want = [(np.all if combiner == "ALL" else np.any)(c, axis=0) for c, combiner in slots]
    assert got == [w.astype(int).tolist() for w in want]
    assert all(rt.meter.total.frames_sent == math.ceil(math.log2(count)) for rt in runtimes)


@pytest.mark.parametrize("combiner,preds", [
    ("ALL", ("age >= 31", "age <= 52", "age > 30", "age in 30 45")),
    ("ANY", ("age = 35", "age = 52", "age < 31", "age in 39 41")),
])
def test_a_four_predicate_slot_takes_two_and_rounds(combiner, preds):
    query = ("".join(f"Q p P {pred}\n" for pred in preds)
             + f"QC p {combiner}\nQ c C field = Internet\nQE p c\n")
    sent, stamp = depth_stamper()
    res = run_secure_query(CAMPUS_GRAPH, query, attach=stamp)
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) != set()
    # the evaluation's re-share, then two AND re-shares, one frame each per party
    depths = [depth for log in sent.values() for phase, _, _, depth in log if phase == "secEval"]
    assert sorted(depths) == [1, 1, 1, 2, 2, 2, 3, 3, 3]


def run_fetch(values, domain, flag_bits, unique, master=b"\x33" * 16, public_ids=False):
    """Fetch one root group.

    ``public_ids`` gives it a multi-route root's public codes ``c + 1`` in
    place of one-hot ids, and expands the kept rows' codes into one-hot ids
    afterwards, as a root with children does before its accesses.
    """
    rng = np.random.default_rng(8)
    groups = make_group(values, domain, rng)
    ts = TypeSchema([f"v{i}" for i in range(len(values))], {}, [], [], {})
    if public_ids:
        groups = [replace(g, ids=engine._root_ids(g.ids.party_index, ts)) for g in groups]
    flag_shares = share_bits(flag_bits, rng)
    runtimes = local_runtimes(make_session_configs(master))

    def worker(rt):
        group = groups[rt.index - 1]
        group = replace(group, attrs={a: engine._codes(t) for a, t in group.attrs.items()})
        flags = flag_shares[rt.index - 1]
        if unique:  # a root's row c is vertex c: its one-hot id is the flag vector
            return sec_fetch_unique(rt, group, flags)[0], []
        fetched = sec_fetch_multi(rt, [group], [engine._flag_column(flags)])[0]
        if public_ids:
            fetched = replace(fetched, ids=engine._unit_ids(rt, fetched.ids, ts))
        return fetched, rt.opened

    out = run_trio(worker, runtimes)
    return out, runtimes


def decode_records(per_party_records, domain):
    tables = [per_party_records[p][0] for p in range(3)]
    assert all(t.parent_record.tolist() == [-1] * t.rows for t in tables)
    assert all(t.attrs["a"].width == domain.bit_length() for t in tables)  # values as codes
    ids = unpack_bits(rss.reconstruct_rows([t.ids for t in tables]), tables[0].ids.width)
    decoded = []
    for i in range(tables[0].rows):
        (hot,) = np.nonzero(ids[i])
        assert len(hot) <= 1  # a one-hot id, or the zero row of a dummy record
        val = row_code([t.attrs["a"] for t in tables], i)  # value code
        decoded.append((int(hot[0]) if len(hot) else None, val - 1 if val else None))
    return decoded


def test_fetch_unique_selects_the_single_match():
    out, runtimes = run_fetch([4, 9, 2, 7], 16, [0, 0, 1, 0], unique=True)
    assert decode_records(out, 16) == [(2, 2)]  # candidate 2 carries value 2
    # zero matches fold to the all-zero dummy record
    out, _ = run_fetch([4, 9, 2, 7], 16, [0, 0, 0, 0], unique=True)
    assert decode_records(out, 16) == [(None, None)]
    # nothing is ever opened in the unique route
    assert all(not rt.opened for rt in runtimes)


def test_fetch_multi_keeps_exactly_the_matches():
    out, runtimes = run_fetch([4, 9, 2, 7, 9], 16, [0, 1, 0, 1, 1], unique=False)
    got = sorted(decode_records(out, 16))
    assert got == [(1, 9), (3, 7), (4, 9)]
    # every party opened the same shuffled mask with three ones
    for rt in runtimes:
        assert len(rt.opened) == 1
        assert int(rt.opened[0].bits.sum()) == 3


def test_fetch_multi_zero_and_all_matches():
    out, _ = run_fetch([4, 9], 16, [0, 0], unique=False)
    assert decode_records(out, 16) == []
    out, _ = run_fetch([4, 9, 2], 16, [1, 1, 1], unique=False)
    assert sorted(decode_records(out, 16)) == [(0, 4), (1, 9), (2, 2)]


def test_public_root_codes_expand_to_their_one_hot_ids():
    # a root's rows are its vertices: it shuffles their public codes c + 1,
    # and the kept rows' codes expand to their own one-hot ids. K = N keeps
    # every row; with K = 0 the expansion sends no frame and opens nothing
    for flags, want in (([1, 1, 1, 1, 1], [(0, 4), (1, 9), (2, 2), (3, 7), (4, 9)]),
                        ([0, 0, 0, 0, 0], [])):
        out, runtimes = run_fetch([4, 9, 2, 7, 9], 16, flags, unique=False, public_ids=True)
        assert sorted(decode_records(out, 16)) == want
        # the shuffle's four frames and the flag open's three; for kept rows,
        # the three mask frames and the six of the masked codes' open, each
        # party's blinded share to both peers
        assert sum(rt.meter.total.frames_sent for rt in runtimes) == 7 + 9 * bool(want)
        # the flag open, then each kept record's masked 3-bit code under the root
        ledger = out[0][1]
        assert [(e.label, e.slot, e.segments) for e in ledger] == (
            [(1, None, (5,))] + [(2, 0, (3,) * 5)] * bool(want))


def test_fetch_multi_audit_mask_matches_plaintext_filter():
    flags = [1, 0, 0, 1, 0, 1, 1]
    out, _ = run_fetch(list(range(7)), 8, flags, unique=False)
    records, ledger = out[0]
    assert len(ledger) == 1
    assert sorted(ledger[0].bits.tolist()) == sorted(flags)


def test_word_level_fields_match_bit_level_packing():
    rng = np.random.default_rng(12)
    for _ in range(50):
        widths = [int(w) for w in rng.integers(1, 140, size=rng.integers(1, 5))]
        # share words carry arbitrary bits past each field's width
        mats = [rng.integers(0, 1 << 32, (4, words_for(w)), dtype=np.uint32) for w in widths]
        rows = _pack_fields(list(zip(mats, widths)))
        want = pack_bits(np.concatenate([unpack_bits(m, w) for m, w in zip(mats, widths)], axis=1))
        assert np.array_equal(rows, want)
        pos = 0
        for m, w in zip(mats, widths):
            assert np.array_equal(_bit_field(rows, pos, w), pack_bits(unpack_bits(m, w)))
            pos += w


def test_id_codes_map_one_hot_ids_locally():
    # the map is GF(2)-linear: a row opens to the XOR of c + 1 over its set
    # bits, so e_c -> c + 1, the zero row -> 0, and each party maps alone
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 31, 32, 33, 64, 70, 500):
        ts = TypeSchema([f"v{c}" for c in range(n)], {}, [], [], {})
        assert ts.id_width == n.bit_length()
        plain = np.concatenate([np.eye(n, dtype=np.uint8), np.zeros((1, n), np.uint8),
                                rng.integers(0, 2, (5, n), dtype=np.uint8)])
        want = [int(np.bitwise_xor.reduce(np.nonzero(row)[0] + 1, initial=0)) for row in plain]
        comps = [rng.integers(0, 1 << 32, (len(plain), words_for(n)), dtype=np.uint32)
                 for _ in range(2)]
        comps.append(pack_bits(plain) ^ comps[0] ^ comps[1])
        segments = (3, len(plain) - 3)
        codes = [engine._codes(MatchTable(p + 1, n, comps[p], comps[(p + 1) % 3], segments))
                 for p in range(3)]
        assert all(t.width == ts.id_width and t.segments == segments for t in codes)
        # a component's bits past the width do not enter its code
        assert np.array_equal(engine._code_words(comps[0], n),
                              engine._code_words(mask_tail(comps[0].copy(), n), n))
        assert [row_code(codes, i) for i in range(len(plain))] == want
        # a leaf root slot's public ids: the codes 1..n
        coded = [row_code([engine._root_ids(p, ts) for p in (1, 2, 3)], c) for c in range(n)]
        assert coded == list(range(1, n + 1))


def test_reshare_matrix_rejects_a_short_payload():
    rng = np.random.default_rng(2)
    shared = share_bits(rng.integers(0, 2, 40), rng)
    zeros = BitVector.from_bits(np.zeros(40))
    cases = [
        (lambda rt: rss.reshare_rows(rt, np.zeros((3, 2), np.uint32), 40),
         "re-share message has 20 bytes, expected 24"),
        (lambda rt: rss.reshare(rt, zeros), "re-share message has 4 bytes, expected 8"),
        (lambda rt: rss.open_shared(rt, shared[rt.index - 1]), "open message has 4 bytes, expected 8"),
    ]
    for call, message in cases:
        runtimes = local_runtimes(make_session_configs(b"\x34" * 16), recv_timeout=5)

        def worker(rt):
            if rt.index == 1:  # a re-share's party 2, or an open's party 3, receives a short frame
                for name in ("send_next", "send_prev"):
                    send = getattr(rt, name)
                    setattr(rt, name, lambda op, payload, logical_bits=0, send=send:
                            send(op, payload[:-4], logical_bits))
            return call(rt)

        # a protocol fault, not a validation error (the CLI exits 3, not 2)
        with pytest.raises(ProtocolError, match=message):
            run_trio(worker, runtimes)


# ---------------------------------------------------------------------------
# sec_access and the full walk
# ---------------------------------------------------------------------------


def test_access_discards_dummies_and_fetches_true_attributes():
    # p-vertices with degrees 3 and 1 toward C; k-padding makes both lists
    # length 3, so p2's access selects 2 padding rows. Every leaf predicate
    # below accepts the whole domain, so a padding row that passed one would
    # keep a non-zero id code through the leaf's gate, not become a dummy.
    text = """
V P p1 a=1
V P p2 a=2
V C c1 z=10
V C c2 z=20
V C c3 z=30
E p1 c1
E p1 c2
E p1 c3
E p2 c2
"""
    whole = ["Q leaf C z >= 10\n", "Q leaf C z <= 30\n", "Q leaf C z in 10 30\n"]
    leaves = whole + [whole[0] + whole[1] + "QC leaf ANY\n", "".join(whole) + "QC leaf ANY\n"]
    for root, want in (("1", {("p1", "c1"), ("p1", "c2"), ("p1", "c3")}), ("2", {("p2", "c2")})):
        for leaf in leaves:
            res = run_secure_query(text, f"Q root P a = {root}\n{leaf}QE root leaf\n")
            assert res["matches"] == want
            # the leaf is gated: it opens nothing and returns all 3 rows, the
            # non-matches as id code 0
            assert not [e for rt in res["runtimes"] for e in rt.opened if e.phase == "secFetch"]
            assert all(r.records[1].rows == 3 for r in res["results"])
            codes = rss.reconstruct_rows([r.records[1].ids for r in res["results"]])[:, 0]
            assert np.count_nonzero(codes) == len(res["matches"])


def test_all_dummy_posting_list_yields_empty_branch():
    text = """
V P p1 a=1
V P p2 a=2
V C c1 z=10
V C c2 z=20
E p2 c1
E p2 c2
"""
    res = run_secure_query(text, "Q root P a = 1\nQ leaf C z >= 10\nQE root leaf\n")
    assert res["matches"] == set()


def test_end_to_end_campus_equals_oracle():
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    want = oracle_match(res["graph"], res["query"], res["schema"])
    assert res["matches"] == want == {
        ("u1", "p1", "p3", "c1", "c2"),
        ("u1", "p2", "p3", "c1", "c2"),
    }


def test_end_to_end_any_combiner_modes():
    text = """
V P p1 a=1 b=1
V P p2 a=1 b=5
V P p3 a=3 b=1
V P p4 a=3 b=5
E p1 p2
E p3 p4
"""
    res = run_secure_query(text, "Q root P a = 1\nQ root P b = 1\nQC root ANY\n")
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"])
    assert res["matches"] == {("p1",), ("p2",), ("p3",)}  # p1 holds both predicates


def test_fetch_route_dispatch_follows_schema_unique_flag():
    # 'age' values repeat -> equality must take the shuffled route (flags opened);
    # distinct values -> the local unique route (nothing opened).
    repeated = """
V P p1 a=1
V P p2 a=1
V P p3 a=2
V P p4 a=2
E p1 p2
E p3 p4
"""
    res = run_secure_query(repeated, "Q root P a = 1\n")
    assert res["matches"] == {("p1",), ("p2",)}
    assert all(len(rt.opened) == 1 for rt in res["runtimes"])
    res = run_secure_query(CAMPUS_GRAPH, "Q root P age = 35\n")
    assert res["matches"] == {("p1",)}
    assert all(not rt.opened for rt in res["runtimes"])


def test_opened_bits_accounting():
    # fetches open flags, one bit per candidate, and accesses their masked
    # codes, id_width bits per selected row; on the skewed graph the inner
    # slot s1 is fetched, so it opens its flags too
    res = run_secure_query(skew_graph_text(24), SKEW_CHAIN)
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) != set()
    for rt in res["runtimes"]:
        assert {e.slot for e in rt.opened if e.phase == "secFetch"} == {0, 1}
        # one entry per slot an open spans, in slot order; labels count up from 1
        labels = [e.label for e in rt.opened]
        assert sorted(set(labels)) == list(range(1, labels[-1] + 1)) and labels == sorted(labels)
        assert {e.phase for e in rt.opened} == {"secFetch", "secAccess"}
        assert all(len(e.bits) == sum(e.segments) for e in rt.opened)
        assert {e.slot: e.segments for e in rt.opened
                if e.phase == "secAccess"} == expected_access_segments(res)
        for label in set(labels):
            slots = [e.slot for e in rt.opened if e.label == label]
            assert slots == sorted(set(slots))
    # all parties opened identical values in identical order
    seq = [[e.bits.tolist() for e in rt.opened] for rt in res["runtimes"]]
    assert seq[0] == seq[1] == seq[2]


def test_unsatisfiable_root_short_circuits():
    res = run_secure_query(CAMPUS_GRAPH, "Q u U place = Beijing\nQ p P age > 100\nQE u p\n")
    assert res["matches"] == set()


def test_end_to_end_conjunction_on_one_attribute():
    res = run_secure_query(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age >= 35\nQ p P age <= 40\nQE u p\n")
    want = oracle_match(res["graph"], res["query"], res["schema"])
    assert res["matches"] == want == {("u1", "p1"), ("u1", "p3")}


def test_end_to_end_repeated_categorical_values():
    # non-ordinal, non-unique dictionary: equality routes through the shuffled
    # fetch and still matches the oracle
    text = """
V S s1 city=harbin
V S s2 city=beijing
V S s3 city=harbin
V S s4 city=harbin
V T t1 tier=gold
V T t2 tier=gold
E s1 t1
E s3 t1
E s4 t2
E s2 t2
"""
    res = run_secure_query(text, "Q a S city = harbin\nQ b T tier = gold\nQE a b\n")
    want = oracle_match(res["graph"], res["query"], res["schema"])
    assert res["matches"] == want == {("s1", "t1"), ("s3", "t1"), ("s4", "t2")}
    assert any(rt.opened for rt in res["runtimes"])  # shuffled route taken


def test_single_value_dictionary_degenerate_domain():
    text = """
V S s1 c=only
V S s2 c=only
V T t1 z=1
V T t2 z=2
E s1 t1
E s2 t2
"""
    res = run_secure_query(text, "Q a S c = only\nQ b T z >= 1\nQE a b\n")
    want = oracle_match(res["graph"], res["query"], res["schema"])
    assert res["matches"] == want == {("s1", "t1"), ("s2", "t2")}


def test_unique_chain_opens_only_masked_codes():
    # every slot takes the local fetch route, and its padding rows fold away
    # in the child's fetch; the only opens are each access's masked codes
    res = run_secure_query(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\n"
        "QE u p\nQE p c\n")
    want = oracle_match(res["graph"], res["query"], res["schema"])
    assert res["matches"] == want == {("u1", "p3", "c2")}
    for rt in res["runtimes"]:
        assert [(e.label, e.phase, e.slot) for e in rt.opened] == [(1, "secAccess", 1),
                                                                   (2, "secAccess", 2)]


def test_every_opened_code_is_masked_by_the_three_pair_pads(monkeypatch):
    # an access opens d = c ^ r12 ^ r23 ^ r31 for every selected code c, one
    # pad from each pair seed: no party holds all three, so d is uniform to it;
    # so does a range root with children, for its kept records' own codes
    tids = []

    class Recording(engine.UnitVectors):
        def __init__(self, rt, shapes):
            super().__init__(rt, shapes)
            if rt.index == 1:
                tids.append(self.table_id)

    monkeypatch.setattr(engine, "UnitVectors", Recording)
    master = b"\x21" * 16
    s12, s23, s31 = (c.seed_with_next for c in make_session_configs(master))
    hop_query = ("Q s0 A x0 in 2 2\nQ s1 B x0 >= 1\nQ s2 C x0 >= 1\nQ s3 C x0 >= 1\n"
                 "QE s0 s1\nQE s0 s2\nQE s1 s3\n")
    checked, roots = 0, 0
    for graph_text, query_text in (
            (CAMPUS_GRAPH, TWO_PERSON_QUERY),
            (CAMPUS_GRAPH, "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\n"
                           "QE u p\nQE p c\n"),
            (hop_graph_text(12), hop_query)):
        tids.clear()
        res = run_secure_query(graph_text, query_text, master=master)
        graph, schema, results = res["graph"], res["schema"], res["results"]
        slots = results[0].structure["slots"]
        parent = {c: s for s, slot in enumerate(slots) for c in slot["children"]}
        ledger = [e for e in res["runtimes"][0].opened if e.phase == "secAccess"]
        labels = sorted({e.label for e in ledger})
        assert len(labels) == len(tids)  # one open per access level, and the root's
        for label, tid in zip(labels, tids):
            widths, codes, got = [], [], []
            for e in (e for e in ledger if e.label == label):
                got.append(e.bits)
                if e.slot == 0:  # the kept root records' own codes c + 1
                    root = rss.reconstruct_rows([r.records[0].ids for r in results])[:, 0]
                    codes += root.tolist()
                    widths += [schema.types[slots[0]["type"]].id_width] * len(root)
                    roots += 1
                    continue
                s, child_type = parent[e.slot], slots[e.slot]["type"]
                parent_ts, width = schema.types[slots[s]["type"]], schema.types[child_type].id_width
                members = graph.type_members[child_type]
                for code in rss.reconstruct_rows([r.records[s].ids for r in results])[:, 0]:
                    ext = parent_ts.ext_ids[code - 1] if code else None  # code 0: a dummy
                    plist = graph.posting_list(graph.index_of[ext], child_type) if ext else []
                    padded = [members.index(n) + 1 for n in plist]
                    codes += padded + [0] * (parent_ts.max_padded(child_type) - len(padded))
                widths += [width] * (len(codes) - len(widths))
            d, _ = simulate_unit_vectors(s12, s23, s31, tid, widths, codes)
            want = np.concatenate([unpack_bits(np.array([[v]], np.uint32), w)[0]
                                   for v, w in zip(d.tolist(), widths)])
            assert np.array_equal(np.concatenate(got), want)
            checked += len(codes)
    assert checked > 30 and roots == 1


def test_random_corpus_with_any_combiners_and_k3():
    from oblivgm.datagen import random_graph, random_query_text
    from oblivgm.graphs import build_schema
    from oblivgm.query import load_query

    for trial in range(10):
        rng = np.random.default_rng(7000 + trial)
        graph = random_graph(rng, n_vertices=int(rng.integers(90, 180)),
                             n_types=2, avg_degree=5.0)
        k = (2, 3)[trial % 2]
        schema = build_schema(graph, k)
        qtext = random_query_text(rng, schema, n_targets=3,
                                  kinds=("eq", "lt", "iv"), multi_pred_prob=0.8)
        query = load_query(qtext, schema)
        res = run_secure_query(None, qtext, graph=graph, k=k, seed=trial,
                               master=bytes([60 + trial]) * 16)
        assert res["matches"] == oracle_match(graph, query, schema)


def test_results_consistent_across_party_pairs():
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    for pair in ((0, 1), (1, 2), (0, 2)):
        matches, _ = open_results([res["results"][pair[0]], res["results"][pair[1]]],
                                  res["schema"])
        assert set(matches) == res["matches"]
    matches, _ = open_results(list(res["results"]), res["schema"])
    assert set(matches) == res["matches"]


def random_record_tree(rng):
    """A breadth-first query tree of 1-4 levels, fan-out up to 3, and its records.

    Every record of a slot gets 0-2 rows in each child slot, so slots may be
    empty and a record may have rows in one child slot but none in another.
    """
    levels = int(rng.integers(1, 5))
    slots, depth, s = [{"children": []}], [0], 0
    while s < len(slots):
        if depth[s] + 1 < levels:
            for _ in range(int(rng.integers(0, 4))):
                slots[s]["children"].append(len(slots))
                slots.append({"children": []})
                depth.append(depth[s] + 1)
        s += 1
    parents = [np.full(int(rng.integers(0, 5)), -1)]
    for s, slot in enumerate(slots):
        for c in slot["children"]:
            parents.append(np.repeat(np.arange(len(parents[s])),
                                     rng.integers(0, 3, len(parents[s]))))
    return slots, [RecordTable(None, {}, p.astype(np.int64)) for p in parents]


def test_assemble_equals_the_recursive_reference_in_order():
    rng = np.random.default_rng(14)
    seen = set()
    for _ in range(300):
        slots, records = random_record_tree(rng)
        got = engine.assemble(slots, records)
        assert got == chainmap_assemble(slots, records)
        assert all(type(sg) is tuple and all(type(r) is int for r in sg) for sg in got)
        kept_roots = {sg[0] for sg in got}
        seen.add("one slot" if len(slots) == 1 else "ten slots or more" if len(slots) >= 10
                 else "other")
        seen.add("no root rows" if not records[0].rows
                 else "every root pruned" if not got
                 else "some roots pruned" if len(kept_roots) < records[0].rows
                 else "no root pruned")
    assert seen == {"one slot", "ten slots or more", "other", "no root rows",
                    "every root pruned", "some roots pruned", "no root pruned"}


def test_schema_digest_mismatch_rejected():
    res = run_secure_query(CAMPUS_GRAPH, "Q a P age = 35\n")
    # same plaintext, different padding parameter -> different public schema
    other = run_secure_query(CAMPUS_GRAPH + "V U u3 place=Xian\nV C c3 field=retail\n"
                             "V P p5 age=29\nE u3 p5\nE p5 c3\n",
                             "Q a P age = 35\n", k=3, seed=2)
    runtimes = local_runtimes(make_session_configs(b"\x40" * 16))

    def worker(rt):
        return sec_match(rt, res["tokens"][rt.index - 1], other["shares"][rt.index - 1])

    with pytest.raises(ValueError, match="different schemas"):
        run_trio(worker, runtimes)


def test_another_partys_share_or_token_is_refused_before_any_frame():
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    tokens, shares = res["tokens"], res["shares"]
    own, other = (lambda i: i - 1), (lambda i: i % 3)  # every party gets the next party's
    for token_of, share_of, message in ((own, other, "given the graph share of party"),
                                        (other, own, "run at party")):
        runtimes = local_runtimes(make_session_configs(b"\x42" * 16))

        def worker(rt):
            return sec_match(rt, tokens[token_of(rt.index)], shares[share_of(rt.index)])

        with pytest.raises(QueryFormatError, match=message):
            run_trio(worker, runtimes)
        assert [rt.meter.total.frames_sent for rt in runtimes] == [0, 0, 0]


def test_token_that_does_not_fit_the_schema_is_refused():
    res = run_secure_query(CAMPUS_GRAPH, "Q a P age = 35\nQ b C field = software\nQE a b\n")
    token, gshare = res["tokens"][0], res["shares"][0]
    engine.check_token(token, gshare)

    def damaged(path, value):
        structure = copy.deepcopy(token.structure)
        *head, last = path
        target = structure["slots"]
        for step in head:
            target = target[step]
        target[last] = value
        return replace(token, structure=structure)

    for bad in (damaged([0, "type"], "X"), damaged([1, "type"], "P"),
                damaged([0, "preds", 0, "attr"], "place")):
        with pytest.raises(QueryFormatError, match="does not fit the schema"):
            engine.check_token(bad, gshare)


def test_schema_digest_is_taken_once_per_share(monkeypatch):
    # sec_match compares the token's digest with the one the share's schema
    # took on its first use; no later query serializes the schema again
    res = run_secure_query(CAMPUS_GRAPH, "Q a P age = 35\n")
    assert all(gs.schema is res["schema"] for gs in res["shares"])

    def no_json(self):
        raise AssertionError("schema serialized during a query")

    monkeypatch.setattr(GraphSchema, "to_json", no_json)
    runtimes = local_runtimes(make_session_configs(b"\x41" * 16))
    results = run_trio(lambda rt: sec_match(rt, res["tokens"][rt.index - 1],
                                            res["shares"][rt.index - 1]), runtimes)
    assert ([[t.parent_record.tolist() for t in r.records] for r in results]
            == [[t.parent_record.tolist() for t in r.records] for r in res["results"]])


def test_open_results_refuses_bad_id_and_value_codes_and_split_provenance():
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    schema = res["schema"]

    def fresh():
        return copy.deepcopy(list(res["results"][:2]))

    # slot 1 (pa) is type P: 4 vertices, 3-bit codes; party 1 alone holds share 1
    r1, r2 = fresh()
    code = row_code([r1.records[1].ids, r2.records[1].ids], 0)
    r1.records[1].ids.share_a[0, 0] ^= np.uint32(7 ^ code)
    with pytest.raises(ValueError, match="slot 1 record 0: id code 7 exceeds the 4 vertices"):
        open_results([r1, r2], schema)
    # record 2's age code past the dictionary: the all-ones code of its width
    r1, r2 = fresh()
    ages = r1.records[1].attrs["age"]
    size = schema.types["P"].attrs["age"].domain_size
    top = (1 << ages.width) - 1
    assert ages.width == size.bit_length() and top > size
    code = row_code([ages, r2.records[1].attrs["age"]], 2)
    ages.share_a[2, 0] ^= np.uint32(top ^ code)
    with pytest.raises(ValueError, match=f"slot 1 record 2: attribute 'age' code {top} exceeds "
                                         f"the {size} values"):
        open_results([r1, r2], schema)
    # the parties disagree on which root record slot 1's last record descends from
    r1, r2 = fresh()
    assert r2.records[1].parent_record.tolist() == [0, 0, 0]
    r2.records[1].parent_record[2] = 1
    with pytest.raises(ValueError, match="record provenance differs between parties"):
        open_results([r1, r2], schema)
    # untouched copies still open
    assert set(open_results(fresh(), schema)[0]) == res["matches"]


def test_frames_follow_query_shape_not_match_count():
    # roots p1..p3 (three matches) against p4 alone: every slot still runs
    # one batch, so each party sends the same number of frames
    shape = "Q p P age in {lo} {hi}\nQ c C field = Internet\nQ u U place = Harbin\n" \
            "QE p c\nQE p u\n"
    many = run_secure_query(CAMPUS_GRAPH, shape.format(lo=30, hi=40))
    one = run_secure_query(CAMPUS_GRAPH, shape.format(lo=50, hi=60))
    assert many["results"][0].records[0].rows == 3
    assert one["results"][0].records[0].rows == 1
    frames = [[rt.meter.total.frames_sent for rt in res["runtimes"]] for res in (many, one)]
    assert frames[0] == frames[1]


@pytest.mark.parametrize("query_text", [
    # a chain: A's and B's skewed padding keeps s1 and s2 shuffled, each
    # root record giving s1 a group and each s1 record s2 one; the leaf s3
    # is gated and opens nothing
    pytest.param(SKEW_CHAIN.replace("QE", "Q s3 A x0 >= 1\nQE", 1) + "QE s2 s3\n",
                 id="skew-chain"),
    # a tree: s1 is shuffled, and the leaves s2 and s3 are gated
    pytest.param(HOP_QUERY.format(c=1).replace("x0 in 2 2", "x0 in 1 2"), id="skew-tree"),
])
def test_opened_flag_segments_count_each_group(monkeypatch, query_text):
    calls = []
    shuffle = engine.sec_shuffle

    def recording(rt, table, **kwargs):
        if rt.index == 1:
            calls.append([t.segments for t in [table, *(kwargs.get("more") or ())]])
        return shuffle(rt, table, **kwargs)

    monkeypatch.setattr(engine, "sec_shuffle", recording)
    res = run_secure_query(skew_graph_text(24), query_text)
    want = expected_open_counts(res)
    assert ("secFetch", 1) in want
    for rt in res["runtimes"]:
        # each open's entries carry the segments of one shuffle call's tables, in order
        fetches = [e for e in rt.opened if e.phase == "secFetch"]
        labels = sorted({e.label for e in fetches})
        assert [[e.segments for e in fetches if e.label == label] for label in labels] == calls
        assert {(e.phase, e.slot): opened_counts(e) for e in fetches} == want
        assert len(fetches) == len(want)
    assert any(len(segs) > 1 for call in calls for segs in call)
    # the last leaf is gated: no shuffle, no open, and every padded row returned
    leaf = len(res["query"].parent) - 1
    assert ("secFetch", leaf) not in want and sum(map(len, calls)) == len(want)
    slots = res["results"][0].structure["slots"]
    padded = res["schema"].types[slots[res["query"].parent[leaf]]["type"]].max_padded(
        slots[leaf]["type"])
    assert all(r.records[leaf].rows == r.records[res["query"].parent[leaf]].rows * padded
               for r in res["results"])
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"])


def test_rounds_follow_tree_depth_not_slot_count():
    # the two-person tree (depth 2, two branches) and one of its branches as a
    # chain run the same steps per level, so their deepest frames sit at the
    # same chain depth; one more level sits deeper
    runs = []
    for query in (TWO_PERSON_QUERY,
                  "Q u U place = Harbin\nQ pa P age in 30 40\n"
                  "Q ca C field = software\nQE u pa\nQE pa ca\n",
                  "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\n"
                  "Q c C field = software\nQE u p\nQE p q\nQE q c\n"):
        sent, stamp = depth_stamper()
        res = run_secure_query(CAMPUS_GRAPH, query, attach=stamp)
        runs.append((res, max(depth for log in sent.values() for *_, depth in log)))
    (tree, tree_depth), (chain, chain_depth), (_, deeper_depth) = runs
    assert tree_depth == chain_depth > 0
    assert deeper_depth > tree_depth
    # the tree sends more bytes for its extra slots, in as many frames
    frames = [[rt.meter.total.frames_sent for rt in res["runtimes"]] for res in (tree, chain)]
    assert frames[0] == frames[1]
    assert all(t.meter.total.bytes_sent > c.meter.total.bytes_sent
               for t, c in zip(tree["runtimes"], chain["runtimes"]))


def test_an_access_level_takes_two_rounds():
    # the open of the masked codes, straight from the selection, and the
    # attribute re-share: the masks' first step rides in the unique root's
    # fold, a fetch message, and their second in the open
    graph = parse_graph_text(CAMPUS_GRAPH)
    rng = np.random.default_rng(6)
    schema, shares = encrypt_graph(graph, 2, rng)
    tokens = gen_token(load_query("Q u U place = Harbin\nQ p P age >= 30\nQE u p\n", schema),
                       schema, rng)
    runtimes = local_runtimes(make_session_configs(b"\x45" * 16))
    frames, stamp = depth_stamper()

    def worker(rt):
        stamp(rt)
        return sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1])

    run_trio(worker, runtimes)
    sent = [(phase, op, depth) for log in frames.values() for phase, op, _, depth in log]
    depths = [(depth, op) for phase, op, depth in sent if phase == "secAccess"]
    start = min(depths)[0] - 1
    access = sorted({(depth - start, op) for depth, op in depths})
    assert access == [(1, OP_OPEN), (1, OP_SHUFFLE), (2, OP_RESHARE)]
    assert sum(op == OP_SHUFFLE for phase, op, _ in sent if phase == "secAccess") == 1
    assert sorted((op, depth) for phase, op, depth in sent if phase == "secFetch") == (
        [(OP_RESHARE, 2)] * 3 + [(OP_SHUFFLE, 2)] * 2)


def test_a_fetched_inner_slot_sends_its_masks_in_a_round_of_their_own():
    # on the skewed graph the inner slot s1 is fetched: its record count
    # comes with its flag open, so its access's masks go out after that
    # open, and the mask frame party 2 sends in the round of the masked
    # codes' open reaches party 1 a round later. s1's access then takes
    # three rounds after its flags, where a gated slot's takes two, and the
    # tree 14: evaluation 1, the root's shuffle 3, its masks 1, its codes'
    # open 1, its access 2, s1's shuffle 3 and its access 3
    sent, stamp = depth_stamper()
    res = run_secure_query(skew_graph_text(64), HOP_QUERY.format(c=1), attach=stamp)
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) != set()
    assert {e.slot for e in res["runtimes"][0].opened if e.phase == "secFetch"} == {0, 1}
    frames = [(phase, op, depth) for log in sent.values() for phase, op, _, depth in log]
    assert max(depth for *_, depth in frames) == 14
    flags = max(depth for phase, op, depth in frames if phase == "secFetch" and op == OP_OPEN)
    assert sorted({(depth - flags, op) for phase, op, depth in frames
                   if phase == "secAccess" and depth > flags}) == [
        (1, OP_OPEN), (1, OP_SHUFFLE), (2, OP_RESHARE), (2, OP_SHUFFLE), (3, OP_RESHARE)]


def test_a_one_slot_range_query_takes_four_rounds():
    # the evaluation's re-share, then the shuffle's three rounds, whose last
    # carries the flag open: party 1 sends its flag column with its shuffle
    # frame, party 3 both of its columns with its own, and party 2 none
    sent, stamp = depth_stamper()
    res = run_secure_query(CAMPUS_GRAPH, "Q p P age in 30 40\n", attach=stamp)
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) != set()
    assert max(depth for log in sent.values() for *_, depth in log) == 4
    assert {p: [(op, depth) for phase, op, _, depth in log if phase == "secFetch"]
            for p, log in sent.items()} == {
        1: [(OP_SHUFFLE, 2), (OP_OPEN, 2)],
        2: [(OP_SHUFFLE, 3), (OP_SHUFFLE, 3)],
        3: [(OP_SHUFFLE, 4), (OP_OPEN, 4), (OP_OPEN, 4)]}
    assert all([e.label for e in rt.opened] == [1] for rt in res["runtimes"])


def test_range_root_expands_only_the_kept_codes():
    # the root shuffles flag || x0 || its 7-bit code (12 bits), not its 64
    # one-hot id bits, and the 16 kept codes expand to one-hot rows over the
    # 128 positions of 7-bit codes: three mask frames of 16 * 4 words, twice
    # the ceil(64 / 32) words a row of the population takes, since 64 is a
    # power of two, and six open frames of 16 * 7 masked bits. A's skewed
    # padding toward B keeps the inner slot s1 on the shuffle
    n, kept, width = 64, 16, 7
    query_text = HOP_QUERY.format(c=1)
    graph = parse_graph_text(skew_graph_text(n))
    rng = np.random.default_rng(4)
    schema, shares = encrypt_graph(graph, 2, rng)
    query = load_query(query_text, schema)
    tokens = gen_token(query, schema, rng)
    runtimes = local_runtimes(make_session_configs(b"\x44" * 16))
    sent, stamp = depth_stamper()  # per party, every frame's (phase, op, payload bytes, depth)
    meter = {}  # per party, its secFetch counts when the root level's fetch ends

    def attach(rt):
        """Stamp each frame with its chain depth, and snapshot the meter after the root fetch."""
        stamp(rt)
        phase = rt.meter.phase

        @contextmanager
        def snapshot(name):
            with phase(name):
                yield
            if name == "secFetch" and rt.index not in meter:
                stats = rt.meter.phases[name]
                meter[rt.index] = (stats.frames_sent, stats.bytes_sent)

        rt.meter.phase = snapshot

    def worker(rt):
        attach(rt)
        return sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1])

    results = run_trio(worker, runtimes)
    assert set(open_results(results[:2], schema)[0]) == oracle_match(graph, query, schema)
    assert results[0].records[0].rows == kept
    # the root level: its fetch is every secFetch frame before the first
    # secAccess frame, and its codes' expansion and its access's open every
    # secAccess frame before the party's attribute re-share
    levels = {}
    for p, frames in sent.items():
        at = [f[0] for f in frames].index("secAccess")
        select = at + [f[1] for f in frames[at:]].index(OP_RESHARE)
        levels[p] = ([f for f in frames[:at] if f[0] == "secFetch"], frames[at:select],
                     frames[select])
    shuffle = (OP_SHUFFLE, 4 + 4 * n * words_for(1 + 4 + width))
    flags = (OP_OPEN, 4 + 4 * words_for(n))
    masks = (OP_SHUFFLE, 4 + 4 * kept * words_for(1 << width))
    codes = (OP_OPEN, 4 + 4 * words_for(kept * width))
    # the access selects max_padded codes toward B and C per kept record,
    # 7 bits each too: its masks ride in the open of the root's codes
    selected = kept * sum(schema.types["A"].max_padded(t) for t in "BC")
    access_masks = (OP_SHUFFLE, 4 + 4 * selected * words_for(1 << width))
    access_codes = (OP_OPEN, 4 + 4 * words_for(selected * width))
    # the leaves s2 and s3 gate their population's 3-bit x0 codes, a bit row
    # each, in a re-share sent in the shuffle's rounds
    gate = (OP_RESHARE, 2 * 4 * words_for(n * 3))
    assert masks[1] == 4 + 4 * kept * 4 and codes[1] == 4 + 4 * 4
    assert {p: ([f[1:3] for f in fetch], [f[1:3] for f in expand])
            for p, (fetch, expand, _) in levels.items()} == {
        1: ([shuffle, flags, gate],
            [masks, codes, codes, access_masks, access_codes, access_codes]),
        2: ([shuffle, shuffle, gate],
            [codes, codes, masks, access_codes, access_codes, access_masks]),
        3: ([shuffle, gate, flags, flags],
            [masks, codes, codes, access_masks, access_codes, access_codes])}
    for rt in runtimes:  # one open of every kept code under the root, 7 bits each
        (entry,) = [e for e in rt.opened if e.phase == "secAccess" and e.slot == 0]
        assert entry.segments == (width,) * kept
        assert {e.slot for e in rt.opened if e.phase == "secFetch"} == {0, 1}
    # party 1 sends its masks the round after the flags, and the open of
    # its masked codes with them; party 2's mask frame, sent in that open's
    # round, gives party 1 its one-hot root ids a round later, so party 1
    # opens its access's codes 3 rounds after the flags, and the parties
    # that wait for that open re-share the selected attributes in the fourth
    flag_depth = max(fetch[-1][3] for fetch, _, _ in levels.values())
    assert [f[3] for f in levels[1][1] if f[1:3] == access_codes] == [flag_depth + 3] * 2
    assert max(select[3] for _, _, select in levels.values()) == flag_depth + 4
    # the fetch is three rounds deep, right after the root's one evaluation
    # round: party 1 sends its shuffle frame and its flags at depth 2, party 2
    # its two shuffle frames at 3, and party 3 its frame and both of its flag
    # columns at 4; each gate frame goes with its party's shuffle frames
    assert {p: [f[3] for f in fetch] for p, (fetch, _, _) in levels.items()} == {
        1: [2, 2, 2], 2: [3, 3, 3], 3: [4, 4, 4, 4]}
    # the meter agrees on the fetch
    assert meter == {p: (len(fetch), sum(18 + f[2] for f in fetch))
                     for p, (fetch, _, _) in levels.items()}


def gated_codes(res, slot: int) -> list[int]:
    """The id codes a gated slot's records must open to, from the plaintext graph.

    Each parent record gives ``max_padded`` rows in posting order: a member
    that satisfies the slot as its code, a non-member or a padding row as 0.
    A dummy parent record (code 0) gives only zeros.
    """
    graph, schema, query, results = res["graph"], res["schema"], res["query"], res["results"]
    slots = results[0].structure["slots"]
    matcher = _Matcher(graph, query, schema)
    parent, vtype = query.parent[slot], slots[slot]["type"]
    parent_ts = schema.types[slots[parent]["type"]]
    members = graph.type_members[vtype]
    want = []
    for code in rss.reconstruct_rows([r.records[parent].ids for r in results])[:, 0]:
        plist = (graph.posting_list(graph.index_of[parent_ts.ext_ids[code - 1]], vtype)
                 if code else [])
        want += [members.index(w) + 1 if matcher.vertex_ok(slot, w) else 0 for w in plist]
        want += [0] * (parent_ts.max_padded(vtype) - len(plist))
    return want


def test_gated_leaf_returns_every_padded_row_and_opens_nothing():
    # s2 and s3 are leaves below the root: each returns its parent records'
    # max_padded rows in posting order, a match as its id code and a
    # non-match or padding row as code 0, and neither opens its flags
    res = run_secure_query(hop_graph_text(12), HOP_QUERY.format(c=2))
    for leaf in (2, 3):
        got = rss.reconstruct_rows([r.records[leaf].ids for r in res["results"]])[:, 0]
        assert got.tolist() == gated_codes(res, leaf) and 0 < np.count_nonzero(got) < len(got)
    for rt in res["runtimes"]:  # the inner slot s1 is gated too: only the root opens its flags
        assert sorted(e.slot for e in rt.opened if e.phase == "secFetch") == [0]
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) != set()


def test_gated_inner_slot_drops_its_misses_subtrees_as_dummies():
    # every A vertex has two B neighbours, so the inner slot s1 is gated: it
    # keeps all of its root records' padded rows, a B vertex with x0 < 2 as
    # code 0, and the leaf s3 under such a row gets only zero rows. Nothing
    # below the root is opened but the accesses' masked codes
    res = run_secure_query(hop_graph_text(12),
                           HOP_QUERY.format(c=1).replace("B x0 >= 1", "B x0 >= 2"))
    schema, results = res["schema"], res["results"]
    assert engine.gates_inner_slot(schema.types["A"], results[0].structure["slots"], 1)
    for slot in (1, 3):
        got = rss.reconstruct_rows([r.records[slot].ids for r in results])[:, 0]
        assert got.tolist() == gated_codes(res, slot) and 0 < np.count_nonzero(got) < len(got)
    assert results[0].records[1].rows == results[0].records[0].rows * 2
    assert results[0].records[3].rows == results[0].records[1].rows * 2
    for rt in res["runtimes"]:
        assert [e.slot for e in rt.opened if e.phase == "secFetch"] == [0]
    assert res["matches"] == oracle_match(res["graph"], res["query"], schema) != set()


def test_the_gate_rule_holds_at_twice_the_mean_padded_length():
    # the rule reads only the padded lengths toward the slot's type: a
    # longest list of exactly twice the mean gates, one just above does not,
    # and a type without lists toward the slot gates
    slots = [{"type": "A", "children": [1]}, {"type": "B", "children": [2]},
             {"type": "C", "children": []}]

    def gates(lens, child_type="B"):
        parent = TypeSchema(["v"] * len(lens), {}, ["B"], [], {"B": lens})
        return engine.gates_inner_slot(parent, [*slots[:1], {**slots[1], "type": child_type},
                                                *slots[2:]], 1)

    assert gates([4, 1, 1, 2])  # 4 = 2 * 2
    assert not gates([5, 1, 1, 2])  # 5 > 2 * 2.25
    assert gates([3, 1, 1, 1])  # 3 = 2 * 1.5
    assert not gates([3, 1, 1, 0])  # 3 > 2 * 1.25
    assert gates([3, 3, 3])
    assert gates([0, 0])
    assert gates([1], "C")


def test_the_gate_rule_refuses_a_slot_with_an_inner_child():
    # gated rows would multiply over two levels, and the child's opened
    # counts would show which gated rows match: the slot is fetched, however
    # even the padding, and its child, whose children are leaves, is gated
    ts = TypeSchema(["v"] * 3, {}, ["A"], [], {"A": [2, 2, 2]})
    chain = [{"type": "A", "children": [c + 1] if c < 3 else []} for c in range(4)]
    assert [engine.gates_inner_slot(ts, chain, s) for s in (1, 2)] == [False, True]
    tree = [{"type": "A", "children": [1, 2]}, {"type": "A", "children": [3, 4]},
            {"type": "A", "children": [5]}, *({"type": "A", "children": []} for _ in range(3))]
    assert [engine.gates_inner_slot(ts, tree, s) for s in (1, 2)] == [True, True]
    tree[3]["children"] = [5]
    assert [engine.gates_inner_slot(ts, tree, s) for s in (1, 2)] == [False, True]


def test_gated_levels_do_not_compound_on_a_chain():
    # every vertex of the even hop graph has two neighbours of each other
    # type. On the chain s0 A -> s1 B -> s2 C -> s3 A only s2, whose one
    # child is a leaf, is gated: s1 is fetched and opens its group counts,
    # so s3 selects from s1's matched records' rows, not from every padded
    # row of every root record
    query = ("Q s0 A x0 in 1 2\nQ s1 B x0 >= 1\nQ s2 C x0 >= 1\nQ s3 A x0 >= 0\n"
             "QE s0 s1\nQE s1 s2\nQE s2 s3\n")
    res = run_secure_query(hop_graph_text(24), query)
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) != set()
    want = expected_open_counts(res)
    assert sorted(want) == [("secFetch", 0), ("secFetch", 1)]
    for rt in res["runtimes"]:
        fetches = [e for e in rt.opened if e.phase == "secFetch"]
        assert {(e.phase, e.slot): opened_counts(e) for e in fetches} == want
    rows = [res["results"][0].records[s].rows for s in range(4)]
    assert rows[2] == 2 * rows[1] and rows[3] == 2 * rows[2]
    assert rows[1] == sum(want[("secFetch", 1)]) < 2 * rows[0]


def test_skewed_padding_keeps_an_inner_slot_on_the_shuffle():
    # the same chain on the even hop graph and on the Zipf-skewed one: there
    # the longest A list toward B is more than twice the mean, so s1 is
    # fetched and opens each group's match count, as expected_open_counts
    # predicts; on the even graph it is gated and opens nothing
    for text, fetched in ((hop_graph_text(24), False), (skew_graph_text(24), True)):
        res = run_secure_query(text, SKEW_CHAIN)
        slots = res["results"][0].structure["slots"]
        assert engine.gates_inner_slot(res["schema"].types["A"], slots, 1) is not fetched
        assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) != set()
        want = expected_open_counts(res)
        assert (("secFetch", 1) in want) is fetched
        for rt in res["runtimes"]:
            fetches = [e for e in rt.opened if e.phase == "secFetch"]
            assert {(e.phase, e.slot): opened_counts(e) for e in fetches} == want


def test_a_leaf_that_matches_nothing_equals_the_oracle():
    # x0 takes the values 0..3, so no C vertex passes x0 >= 3.5: both gated
    # leaves return only dummies, and every subgraph is dropped
    res = run_secure_query(hop_graph_text(12), HOP_QUERY.format(c=3.5))
    results = res["results"]
    for leaf in (2, 3):
        assert not rss.reconstruct_rows([r.records[leaf].ids for r in results]).any()
        assert results[0].records[leaf].rows > 0
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) == set()
    # a gated leaf under an inner slot with matches: no P vertex is older than 60
    res = run_secure_query(CAMPUS_GRAPH, "Q u U place = Harbin\nQ p P age in 30 40\n"
                                         "Q q P age > 60\nQE u p\nQE p q\n")
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) == set()


def test_a_hop_tree_takes_10_rounds_range_rooted_and_6_point_rooted():
    # s0 A -> s1 B, s2 C; s1 B -> s3 C. Range-rooted: the evaluation (1
    # round), the root's shuffle with its flag open (3), its codes' masks
    # and open (2), its access (2), then s1's access (2), whose masks ride
    # in the root's access. Point-rooted, the root folds in one round, which
    # carries the masks of its access, and has no codes to expand. Every A
    # vertex has two B neighbours, so the inner slot s1 is gated like the
    # leaves s2 and s3: all three take their records from the accesses, and
    # nothing below the root is shuffled
    text = re.sub(r"^(V A a(\d+) .*)$", r"\1 key=\2", hop_graph_text(12), flags=re.M)
    query = HOP_QUERY.format(c=1).replace("x0 in 2 2", "{root}")
    for root, rounds in (("x0 in 2 2", 10), ("key = 5", 6)):
        sent, stamp = depth_stamper()
        res = run_secure_query(text, query.format(root=root), attach=stamp)
        assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) != set()
        assert max(depth for log in sent.values() for *_, depth in log) == rounds


def test_no_fetch_frame_below_a_unique_root():
    # p takes the unique route and q is a leaf: both take their records from
    # the root's access, so the root's fold, in round 2, is the only fetch
    # message, with the access's first mask frames riding in it, and only
    # the access opens anything
    sent, stamp = depth_stamper()
    res = run_secure_query(CAMPUS_GRAPH, "Q u U place = Harbin\nQ p P age = 35\n"
                                         "Q q P age in 30 40\nQE u p\nQE u q\n", attach=stamp)
    assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"]) != set()
    fetch = [(op, depth) for log in sent.values() for phase, op, _, depth in log
             if phase == "secFetch"]
    assert sorted(fetch) == [(OP_RESHARE, 2)] * 3 + [(OP_SHUFFLE, 2)] * 2
    assert {e.phase for rt in res["runtimes"] for e in rt.opened} == {"secAccess"}


def test_a_root_without_matches_still_sends_the_population_gate():
    # the leaf c's gate re-share rides in the root's shuffle whatever the
    # root keeps, so a root that keeps no record sends the fetch frames of
    # one that keeps three
    runs = []
    for op in ("> 60", "> 32"):
        sent, stamp = depth_stamper()
        res = run_secure_query(CAMPUS_GRAPH, f"Q p P age {op}\nQ c C field = software\nQE p c\n",
                               attach=stamp)
        assert res["matches"] == oracle_match(res["graph"], res["query"], res["schema"])
        runs.append((res, {p: [(op, n) for phase, op, n, _ in log if phase == "secFetch"]
                           for p, log in sent.items()}))
    (none, none_fetch), (some, some_fetch) = runs
    assert none["matches"] == set() != some["matches"]
    assert [r.records[0].rows for r in none["results"]] == [0, 0, 0]
    assert none_fetch == some_fetch
    assert all(OP_RESHARE in [op for op, _ in frames] for frames in none_fetch.values())


def test_attribute_codes_are_mapped_once_per_loaded_share(monkeypatch):
    # a multi-route root and a population table read their attributes as
    # codes; a share maps each table on the first query that reads it, and
    # later queries on the same share reuse the mapping
    graph = parse_graph_text(CAMPUS_GRAPH)
    rng = np.random.default_rng(8)
    schema, shares = encrypt_graph(graph, 2, rng)
    query = load_query("Q p P age in 30 40\nQ c C field = software\nQE p c\n", schema)
    tokens = gen_token(query, schema, rng)
    tables = {id(t): (s.party_index, vtype, a) for s in shares
              for vtype, part in s.types.items() for a, t in part.attrs.items()}
    mapped = []
    codes = engine._codes
    monkeypatch.setattr(engine, "_codes", lambda rows: mapped.append(tables.get(id(rows)))
                        or codes(rows))
    for want in ({(p, "P", "age") for p in (1, 2, 3)} | {(p, "C", "field") for p in (1, 2, 3)},
                 set()):
        mapped.clear()
        results = run_trio(lambda rt: sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1]),
                           local_runtimes(make_session_configs(b"\x47" * 16)))
        assert set(open_results(results[:2], schema)[0]) == oracle_match(graph, query, schema)
        got = [m for m in mapped if m is not None]
        assert sorted(got) == sorted(want)
