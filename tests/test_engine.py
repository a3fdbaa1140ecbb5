"""Engine components against plaintext oracles, plus end-to-end equivalence."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from oblivgm import engine, fss, rss
from oblivgm.bits import BitVector, pack_bits, unpack_bits, words_for
from oblivgm.engine import (EngineConfig, RecordTable, combine_predicates,
                            open_results, sec_eval, sec_fetch_multi,
                            sec_fetch_unique, sec_match, _bit_field, _pack_fields)
from oblivgm.graphs import (GraphSchema, TypeSchema, build_schema, encrypt_graph,
                            parse_graph_text)
from oblivgm.net import ProtocolError, local_runtimes, make_session_configs, run_trio
from oblivgm.oracle import oracle_match
from oblivgm.query import QueryFormatError, gen_token, load_query
from oblivgm.rss import MatchTable
from tests.conftest import (CAMPUS_GRAPH, TWO_PERSON_QUERY, expected_open_counts,
                            opened_counts, run_secure_query)


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
        return sec_eval(rt, [(groups[rt.index - 1].attrs["a"], keys[rt.index - 1])])[0]

    shares = run_trio(worker, runtimes)
    return rss.reconstruct(shares).to_bits(), runtimes


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


def combine_worker(values_by_party, combiner, any_mode):
    runtimes = local_runtimes(make_session_configs(b"\x32" * 16))

    def worker(rt):
        bits = values_by_party[rt.index - 1]
        return combine_predicates(rt, [bits], [combiner], any_mode)[0]

    return rss.reconstruct(run_trio(worker, runtimes))


def shared_bits(columns, rng):
    """Share p predicate columns (each a list of bits) into per-party lists."""
    per_party = [[], [], []]
    for col in columns:
        shares = rss.share(BitVector.from_bits(col), rng)
        for p in range(3):
            per_party[p].append(shares[p])
    return per_party


@pytest.mark.parametrize("combiner,mode,table", [
    ("ALL", "or", lambda a, b: a & b),
    ("ANY", "or", lambda a, b: a | b),
    ("ANY", "xor", lambda a, b: a ^ b),
])
def test_combine_two_predicates_truth_table(combiner, mode, table):
    rng = np.random.default_rng(5)
    a = [0, 0, 1, 1]
    b = [0, 1, 0, 1]
    per_party = shared_bits([a, b], rng)
    got = combine_worker(per_party, combiner, mode)
    assert got.to_bits().tolist() == [table(x, y) for x, y in zip(a, b)]


def test_combine_three_all_and_single_identity():
    rng = np.random.default_rng(6)
    cols = [[1, 1, 0], [1, 0, 1], [1, 1, 1]]
    per_party = shared_bits(cols, rng)
    assert combine_worker(per_party, "ALL", "or").to_bits().tolist() == [1, 0, 0]
    single = shared_bits([[1, 0, 1]], rng)
    assert combine_worker(single, "ALL", "or").to_bits().tolist() == [1, 0, 1]
    with pytest.raises(ValueError):
        combine_worker([[], [], []], "ALL", "or")


def run_fetch(values, domain, flag_bits, unique, master=b"\x33" * 16):
    rng = np.random.default_rng(8)
    groups = make_group(values, domain, rng)
    flag_shares = rss.share(BitVector.from_bits(flag_bits), rng)
    runtimes = local_runtimes(make_session_configs(master))

    def worker(rt):
        group = groups[rt.index - 1]
        flags = flag_shares[rt.index - 1]
        if unique:
            return sec_fetch_unique(rt, [group], [flags])[0], []
        return sec_fetch_multi(rt, [group], [flags])[0], rt.opened

    out = run_trio(worker, runtimes)
    return out, runtimes


def decode_records(per_party_records, domain):
    tables = [per_party_records[p][0] for p in range(3)]
    assert all(t.parent_record.tolist() == [-1] * t.rows for t in tables)
    decoded = []
    for i in range(tables[0].rows):
        vid = rss.reconstruct([t.ids.row(i) for t in tables])
        val = rss.reconstruct([t.attrs["a"].row(i) for t in tables])
        decoded.append((vid.hot_index(), val.hot_index()))
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
        assert int(rt.opened[0].bits.popcount()) == 3


def test_fetch_multi_zero_and_all_matches():
    out, _ = run_fetch([4, 9], 16, [0, 0], unique=False)
    assert decode_records(out, 16) == []
    out, _ = run_fetch([4, 9, 2], 16, [1, 1, 1], unique=False)
    assert sorted(decode_records(out, 16)) == [(0, 4), (1, 9), (2, 2)]


def test_fetch_multi_audit_mask_matches_plaintext_filter():
    flags = [1, 0, 0, 1, 0, 1, 1]
    out, _ = run_fetch(list(range(7)), 8, flags, unique=False)
    records, ledger = out[0]
    assert len(ledger) == 1
    assert sorted(ledger[0].bits.to_bits().tolist()) == sorted(flags)


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
        codes = [engine._id_codes(MatchTable(p + 1, n, comps[p], comps[(p + 1) % 3], segments), ts)
                 for p in range(3)]
        assert all(t.width == ts.id_width and t.segments == segments for t in codes)
        assert [rss.reconstruct([t.row(i) for t in codes]).to_int()
                for i in range(len(plain))] == want
        # the root slot's public ids: the identity, or the codes 1..n
        hot, coded = ([rss.reconstruct([engine._root_ids(p, ts, one_hot).row(c) for p in (1, 2, 3)])
                       for c in range(n)] for one_hot in (True, False))
        assert [v.to_bits().tolist() for v in hot] == np.eye(n, dtype=np.uint8).tolist()
        assert [v.to_int() for v in coded] == list(range(1, n + 1))


def test_reshare_matrix_rejects_a_short_payload():
    rng = np.random.default_rng(2)
    shared = rss.share(BitVector.random(40, rng), rng)
    cases = [
        (lambda rt: rss.reshare_rows(rt, np.zeros((3, 2), np.uint32), 40),
         "re-share message has 20 bytes, expected 24"),
        (lambda rt: rss.reshare(rt, BitVector.zeros(40)), "re-share message has 4 bytes, expected 8"),
        (lambda rt: rss.open_shared(rt, shared[rt.index - 1]), "open message has 4 bytes, expected 8"),
    ]
    for call, message in cases:
        runtimes = local_runtimes(make_session_configs(b"\x34" * 16), recv_timeout=5)

        def worker(rt):
            if rt.index == 1:  # party 2 receives a frame one word short
                send = rt.send_next
                rt.send_next = lambda op, payload, logical_bits=0: send(op, payload[:-4], logical_bits)
            return call(rt)

        # a protocol fault, not a validation error (the CLI exits 3, not 2)
        with pytest.raises(ProtocolError, match=message):
            run_trio(worker, runtimes)


# ---------------------------------------------------------------------------
# sec_access and the full walk
# ---------------------------------------------------------------------------


def test_access_discards_dummies_and_fetches_true_attributes():
    # p-vertices with degrees 3 and 1 toward C; k-padding makes both lists
    # length 3, so each access opens exactly its true-degree many ones.
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
    res = run_secure_query(text, "Q root P a = 1\nQ leaf C z >= 10\nQE root leaf\n")
    assert res["matches"] == {("p1", "c1"), ("p1", "c2"), ("p1", "c3")}
    for rt in res["runtimes"]:
        access_opens = [entry.bits for entry in rt.opened]
        # one access per matched root record; p1 has 3 true neighbors of 3 slots
        assert sorted(int(v.popcount()) for v in access_opens)[-1] == 3
    res2 = run_secure_query(text, "Q root P a = 2\nQ leaf C z >= 10\nQE root leaf\n")
    assert res2["matches"] == {("p2", "c2")}
    # p2's padded list holds 1 true neighbor and 2 dummies: one 1-bit opened
    opens2 = [int(e.bits.popcount()) for rt in res2["runtimes"] for e in rt.opened
              if e.bits.logical_len == 3]
    assert opens2.count(1) >= 3


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
    q = "Q root P a = 1\nQ root P b = 1\nQC root ANY\n"
    for mode in ("or", "xor"):
        res = run_secure_query(text, q, any_mode=mode)
        want = oracle_match(res["graph"], res["query"], res["schema"], any_mode=mode)
        assert res["matches"] == want
    res_or = run_secure_query(text, q, any_mode="or")
    res_xor = run_secure_query(text, q, any_mode="xor")
    assert ("p1",) in res_or["matches"]
    assert ("p1",) not in res_xor["matches"]  # both predicates true: parity 0


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
    # only fetch flags and access validity flags ever open, and their total
    # length is the sum of Case-II candidate counts and fetched list lengths
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    for rt in res["runtimes"]:
        assert rt.opened
        # one entry per slot an open spans, in slot order; labels count up from 1
        labels = [e.label for e in rt.opened]
        assert sorted(set(labels)) == list(range(1, labels[-1] + 1)) and labels == sorted(labels)
        assert all(e.phase in ("secFetch", "secAccess") for e in rt.opened)
        for label in set(labels):
            slots = [e.slot for e in rt.opened if e.label == label]
            assert slots == sorted(set(slots))
    # all parties opened identical values in identical order
    seq = [[e.bits.to_bits().tolist() for e in rt.opened] for rt in res["runtimes"]]
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


def test_unique_chain_opens_only_access_flags():
    # every slot takes the local fetch route; the only opened values are the
    # shuffled posting-list validity flags
    res = run_secure_query(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\n"
        "QE u p\nQE p c\n")
    want = oracle_match(res["graph"], res["query"], res["schema"])
    assert res["matches"] == want == {("u1", "p3", "c2")}
    for rt in res["runtimes"]:
        assert rt.opened
        assert all(e.phase == "secAccess" for e in rt.opened)


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
        mode = ("or", "xor")[trial % 2]
        res = run_secure_query(None, qtext, graph=graph, k=k, seed=trial,
                               master=bytes([60 + trial]) * 16, any_mode=mode)
        assert res["matches"] == oracle_match(graph, query, schema, any_mode=mode)


def test_results_consistent_across_party_pairs():
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    for pair in ((0, 1), (1, 2), (0, 2)):
        matches, _ = open_results([res["results"][pair[0]], res["results"][pair[1]]],
                                  res["schema"])
        assert set(matches) == res["matches"]
    matches, _ = open_results(list(res["results"]), res["schema"])
    assert set(matches) == res["matches"]


def test_schema_digest_mismatch_rejected():
    res = run_secure_query(CAMPUS_GRAPH, "Q a P age = 35\n")
    # same plaintext, different padding parameter -> different public schema
    other = run_secure_query(CAMPUS_GRAPH + "V U u3 place=Xian\nV C c3 field=retail\n"
                             "V P p5 age=29\nE u3 p5\nE p5 c3\n",
                             "Q a P age = 35\n", k=3, seed=2)
    runtimes = local_runtimes(make_session_configs(b"\x40" * 16))

    def worker(rt):
        return sec_match(rt, res["tokens"][rt.index - 1],
                         other["shares"][rt.index - 1], EngineConfig())

    with pytest.raises(ValueError, match="different schemas"):
        run_trio(worker, runtimes)


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

    deep = fss.dpf_gen(3, 1 << 20, np.random.default_rng(0))  # 20 levels, far deeper than age
    for bad in (damaged([0, "type"], "X"), damaged([1, "type"], "P"),
                damaged([0, "preds", 0, "attr"], "place"),
                replace(token, slot_keys=[[deep], token.slot_keys[1]])):
        with pytest.raises(QueryFormatError, match="does not fit the schema"):
            engine.check_token(bad, gshare)


def test_schema_digest_is_taken_once_per_share(monkeypatch):
    # sec_match compares the token's digest with the one the share took when
    # it was built or loaded; it never serializes the schema again
    res = run_secure_query(CAMPUS_GRAPH, "Q a P age = 35\n")
    assert all(gs.schema_digest == res["schema"].digest() for gs in res["shares"])

    def no_digest(self):
        raise AssertionError("schema serialized during a query")

    monkeypatch.setattr(GraphSchema, "digest", no_digest)
    runtimes = local_runtimes(make_session_configs(b"\x41" * 16))
    results = run_trio(lambda rt: sec_match(rt, res["tokens"][rt.index - 1],
                                            res["shares"][rt.index - 1]), runtimes)
    assert [r.subgraphs for r in results] == [r.subgraphs for r in res["results"]]


def test_open_results_refuses_bad_codes_two_hot_rows_and_split_provenance():
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    schema = res["schema"]

    def fresh():
        return copy.deepcopy(list(res["results"][:2]))

    # slot 1 (pa) is type P: 4 vertices, 3-bit codes; party 1 alone holds share 1
    r1, r2 = fresh()
    code = rss.reconstruct([r1.records[1].ids.row(0), r2.records[1].ids.row(0)]).to_int()
    r1.records[1].ids.share_a[0, 0] ^= np.uint32(7 ^ code)
    with pytest.raises(ValueError, match="slot 1 record 0: id code 7 exceeds the 4 vertices"):
        open_results([r1, r2], schema)
    # a second bit in record 2's age row
    r1, r2 = fresh()
    ages = r1.records[1].attrs["age"]
    hot = rss.reconstruct([ages.row(2), r2.records[1].attrs["age"].row(2)]).hot_index()
    ages.share_a[2, 0] ^= np.uint32(1 << (hot == 0))
    with pytest.raises(ValueError, match="slot 1 record 2: attribute 'age' expected Hamming "
                                         "weight <= 1, got 2"):
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
    TWO_PERSON_QUERY,
    # p1 and p2 are each other's only P neighbour: two one-candidate fetch groups
    "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\nQE u p\nQE p q\n",
])
def test_opened_flag_segments_count_each_group(monkeypatch, query_text):
    calls = []
    shuffle = engine.sec_shuffle

    def recording(rt, table, **kwargs):
        if rt.index == 1:
            calls.append([t.segments for t in [table, *(kwargs.get("more") or ())]])
        return shuffle(rt, table, **kwargs)

    monkeypatch.setattr(engine, "sec_shuffle", recording)
    res = run_secure_query(CAMPUS_GRAPH, query_text)
    want = expected_open_counts(res)
    for rt in res["runtimes"]:
        # each open's entries carry the segments of one shuffle call's tables, in order
        labels = sorted({e.label for e in rt.opened})
        assert [[e.segments for e in rt.opened if e.label == label] for label in labels] == calls
        assert {(e.phase, e.slot): opened_counts(e) for e in rt.opened} == want
        assert len(rt.opened) == len(want)
    assert any(len(segs) > 1 for call in calls for segs in call)


def test_rounds_follow_tree_depth_not_slot_count():
    # the two-person tree (depth 2, two branches) and one of its branches as a
    # chain run the same steps per level, so every party counts the same
    # rounds; one more level costs more
    tree = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    chain = run_secure_query(CAMPUS_GRAPH, "Q u U place = Harbin\nQ pa P age in 30 40\n"
                                           "Q ca C field = software\nQE u pa\nQE pa ca\n")
    deeper = run_secure_query(CAMPUS_GRAPH, "Q u U place = Harbin\nQ p P age in 30 40\n"
                                            "Q q P age in 30 60\nQ c C field = software\n"
                                            "QE u p\nQE p q\nQE q c\n")
    rounds = [[rt.meter.total.rounds for rt in res["runtimes"]] for res in (tree, chain, deeper)]
    assert rounds[0] == rounds[1] and min(rounds[0]) > 0
    assert all(d > t for d, t in zip(rounds[2], rounds[0]))
    # the tree sends more bytes for its extra slots, in as many frames
    frames = [[rt.meter.total.frames_sent for rt in res["runtimes"]] for res in (tree, chain)]
    assert frames[0] == frames[1]
    assert all(t.meter.total.bytes_sent > c.meter.total.bytes_sent
               for t, c in zip(tree["runtimes"], chain["runtimes"]))
