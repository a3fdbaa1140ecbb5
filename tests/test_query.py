"""Query parsing/resolution and token generation properties."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from oblivgm import fss
from oblivgm.graphs import AttributedGraph, build_schema, parse_graph_text
from oblivgm.prf import prg_expand, seed_to_array
from oblivgm.query import (PredicateSpec, QueryFormatError, QueryGraph, TargetVertex, gen_token,
                           load_query, resolve_query, parse_query_text)
from oblivgm.storage import StorageError, load_token, save_token
from tests.conftest import CAMPUS_GRAPH, TWO_PERSON_QUERY


@pytest.fixture(scope="module")
def schema():
    return build_schema(parse_graph_text(CAMPUS_GRAPH), 2)


def token_file(path, token) -> bytes:
    save_token(path, token)
    return path.read_bytes()


def test_parse_and_resolve_fig_query(schema):
    q = load_query(TWO_PERSON_QUERY, schema)
    assert [v.vtype for v in q.vertices] == ["U", "P", "P", "C", "C"]
    assert q.children[0] == [1, 2] and q.children[1] == [3] and q.children[2] == [4]
    assert q.parent == [None, 0, 0, 1, 2]
    iv = q.vertices[1].predicates[0]
    assert iv.kind == fss.KIND_INTERVAL
    ages = schema.types["P"].attrs["age"].values
    assert (ages[iv.operands[0]], ages[iv.operands[1]]) == ("31", "40")


def test_value_to_index_mapping(schema):
    ages = schema.types["P"].attrs["age"].values  # ['31','35','40','52']

    def kinds(qtext):
        p = load_query(qtext, schema).vertices[0].predicates[0]
        return p.kind, p.operands

    assert kinds("Q a P age < 40\n") == (fss.KIND_LT, (2,))
    assert kinds("Q a P age <= 40\n") == (fss.KIND_LE, (2,))
    assert kinds("Q a P age > 40\n") == (fss.KIND_GE, (3,))
    assert kinds("Q a P age >= 40\n") == (fss.KIND_GE, (2,))
    assert kinds("Q a P age < 100\n") == (fss.KIND_LE, (3,))   # always true
    assert kinds("Q a P age > 100\n") == (fss.KIND_LT, (0,))   # always false
    assert kinds("Q a P age in 33 41\n") == (fss.KIND_INTERVAL, (1, 2))
    # no dictionary value inside: the empty interval [lo, lo - 1]
    assert kinds("Q a P age in 41 49\n") == (fss.KIND_INTERVAL, (3, 2))


def test_validation_errors(schema):
    cases = [
        ("Q a Z age = 5\n", "unknown vertex type"),
        ("Q a P size = 5\n", "no attribute"),
        ("Q a P age = 33\n", "not in the"),
        ("Q a U place < 5\n", "not ordinal"),
        ("Q a P age = 31\nQ b P age = 31\nQE a b\nQE a b\n", "two parents"),
        ("Q a P age = 31\nQ b P age = 31\n", "not reachable"),
        ("Q a P age = 31\nQ b C field = software\nQE a b\nQE b a\n", "cycle|two parents|parent"),
        ("Q a U place = Harbin\nQ b C field = software\nQE a b\n", "edges exist"),
        ("", "no target"),
        ("Q a P age ? 31\n", "unknown operator"),
        ("Q a P age in 31\n", "two operands"),
        ("Q a P age in x 40\n", "range operand 'x' is not numeric"),
        ("Q a P age in nan 40\n", "range operand 'nan' is not numeric"),
        ("Q a P age < nan\n", "range operand 'nan' is not numeric"),
    ]
    for text, pattern in cases:
        with pytest.raises(QueryFormatError, match=pattern):
            load_query(text, schema)


def test_non_tree_edge_to_start_rejected(schema):
    text = "Q a P age = 31\nQ b P age = 35\nQE a b\nQE b a\n"
    with pytest.raises(QueryFormatError):
        load_query(text, schema)


def test_gen_token_split_consistency(schema):
    # recombining the pairs scattered across the three tokens reproduces the
    # plaintext indicator for every predicate
    rng = np.random.default_rng(0)
    q = load_query(TWO_PERSON_QUERY, schema)
    t1, t2, t3 = gen_token(q, schema, rng)
    assert t1.structure == t2.structure == t3.structure
    for s, vertex in enumerate(q.vertices):
        ts = schema.types[vertex.vtype]
        for pi, pred in enumerate(vertex.predicates):
            n = ts.attrs[pred.attr].domain_size
            k11, k12 = t1.slot_keys[s][pi]
            k22, k13 = t2.slot_keys[s][pi]
            k23, k21 = t3.slot_keys[s][pi]
            want = None
            for a, b in ((k11, k21), (k12, k22), (k13, k23)):
                ind = fss.full_domain_eval(a, n) ^ fss.full_domain_eval(b, n)
                if want is None:
                    want = ind.tolist()
                assert ind.tolist() == want
            from oblivgm.oracle import predicate_holds

            assert want == [int(predicate_holds(pred, x)) for x in range(n)]


def test_token_hiding_shape(schema, tmp_path):
    rng = np.random.default_rng(1)
    q_a = load_query("Q a P age in 31 35\nQ b C field = software\nQE a b\n", schema)
    q_b = load_query("Q a P age in 35 52\nQ b C field = Internet\nQE a b\n", schema)
    tok_a = gen_token(q_a, schema, rng)
    tok_b = gen_token(q_b, schema, rng)
    for ta, tb in zip(tok_a, tok_b):
        assert ta.structure == tb.structure
        assert len(token_file(tmp_path / "a.ogmt", ta)) == len(token_file(tmp_path / "b.ogmt", tb))


def test_fresh_randomness_yields_different_key_bytes(schema, tmp_path):
    q = load_query(TWO_PERSON_QUERY, schema)
    blob1 = token_file(tmp_path / "1.ogmt", gen_token(q, schema, np.random.default_rng(10))[0])
    blob2 = token_file(tmp_path / "2.ogmt", gen_token(q, schema, np.random.default_rng(11))[0])
    assert len(blob1) == len(blob2)
    assert blob1 != blob2


def test_token_serialization_round_trip_and_party_check(schema, tmp_path):
    rng = np.random.default_rng(2)
    q = load_query(TWO_PERSON_QUERY, schema)
    tokens = gen_token(q, schema, rng)
    path = tmp_path / "t.ogmt"
    blob = token_file(path, tokens[1])
    parsed = load_token(path, schema, 2)
    assert parsed.structure == tokens[1].structure
    assert token_file(tmp_path / "again.ogmt", parsed) == blob
    with pytest.raises(StorageError, match="token of party 2, not of party 1"):
        load_token(path, schema, 1)
    path.write_bytes(blob[:4] + (2).to_bytes(2, "little") + blob[6:])
    with pytest.raises(StorageError, match=r"token version 2 \(expected 3\)"):
        load_token(path, schema, 2)
    path.write_bytes(b"\x00" * 128)
    with pytest.raises(StorageError, match="not a token"):
        load_token(path, schema, 2)


def test_every_truncation_or_flipped_bit_of_a_token_is_refused(schema, tmp_path, monkeypatch):
    digest = schema.digest()
    monkeypatch.setattr(schema, "digest", lambda: digest)  # taken once, not per damaged file
    path = tmp_path / "t.ogmt"
    blob = token_file(path, gen_token(load_query(TWO_PERSON_QUERY, schema), schema,
                                      np.random.default_rng(3))[0])
    assert load_token(path, schema, 1).size == 5

    def refused(data):
        path.write_bytes(data)
        with pytest.raises(StorageError):
            load_token(path, schema, 1)

    for cut in range(len(blob)):
        refused(blob[:cut])
    refused(blob + b"\0")
    for bit in range(len(blob) * 8):  # the checksum refuses what the header checks pass
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << bit % 8
        refused(bytes(flipped))


def wide_dictionary_schema(values=4096, population_split=2):
    """Schema with a large ordinal dictionary so key bytes dominate token size."""
    g = AttributedGraph()
    for i in range(values):
        g.add_vertex("N", f"n{i}", {"age": str(i)})
    for i in range(values // population_split):
        g.add_vertex("M", f"m{i}", {"grade": str(i)})
        g.add_edge(f"m{i}", f"n{i}")
    return build_schema(g, 2)


def test_token_size_ratio_interval_vs_equality(tmp_path):
    big = wide_dictionary_schema()
    rng = np.random.default_rng(3)
    q_eq = load_query("Q a N age = 35\nQ b M grade = 40\nQE a b\n", big)
    q_lt = load_query("Q a N age < 35\nQ b M grade < 40\nQE a b\n", big)
    q_iv = load_query("Q a N age in 31 35\nQ b M grade in 35 40\nQE a b\n", big)
    size = {name: len(token_file(tmp_path / f"{name}.ogmt", gen_token(q, big, rng)[0]))
            for name, q in (("eq", q_eq), ("lt", q_lt), ("iv", q_iv))}
    assert size["eq"] == size["lt"]
    ratio = size["iv"] / size["eq"]
    assert 2 * 0.85 <= ratio <= 2 * 1.15


def test_multi_predicate_and_combiner_parsing(schema):
    text = "Q a P age >= 31 \nQ a P age <= 40\nQC a ANY\nQ b C field = software\nQE a b\n"
    q = load_query(text, schema)
    assert len(q.vertices[0].predicates) == 2
    assert q.vertices[0].combiner == "ANY"
    raw = parse_query_text("Q a P age = 31\nQC a ALL\n")
    assert resolve_query(raw, schema).vertices[0].combiner == "ALL"


def mixed_depth_schema():
    """Ordinal attributes of domain 1, 4, 5, 16 (type A) and 8 (type B): tree depths 1-4."""
    g = AttributedGraph()
    for i in range(16):
        g.add_vertex("A", f"a{i}", {"d1": "7", "d4": str(i % 4), "d5": str(i % 5), "d16": str(i)})
    for i in range(8):
        g.add_vertex("B", f"b{i}", {"d8": str(i)})
    for i in range(16):
        g.add_edge(f"a{i}", f"b{i % 8}")
    return build_schema(g, 2)


def mixed_kind_query():
    """Every predicate kind, with the edge thresholds, over attributes of different depths.

    Built directly, not parsed: the parser maps ``>`` to ``ge``, so ``gt``
    only reaches the key generator this way.
    """
    P = PredicateSpec
    root = [P("d5", fss.KIND_EQ, (3,)), P("d16", fss.KIND_LT, (7,)),
            P("d4", fss.KIND_LE, (3,)), P("d4", fss.KIND_GT, (3,)),  # at the domain maximum
            P("d5", fss.KIND_GE, (2,)), P("d5", fss.KIND_LE, (2,)), P("d16", fss.KIND_GT, (4,)),
            P("d16", fss.KIND_INTERVAL, (5, 15)),  # upper bound covers the domain
            P("d4", fss.KIND_INTERVAL, (0, -1)),  # empty
            P("d5", fss.KIND_INTERVAL, (0, -1)),  # empty
            P("d1", fss.KIND_EQ, (0,)), P("d16", fss.KIND_INTERVAL, (2, 8))]
    child = [P("d8", fss.KIND_LT, (5,)), P("d8", fss.KIND_INTERVAL, (2, 5))]
    return QueryGraph([TargetVertex("a", "A", root), TargetVertex("b", "B", child, "ANY")],
                      [[1], []], [None, 0])


def tree_gen_reference(alpha, bits, rng, comparison):
    """One GGM key tree at a time: two root seeds, then one PRG call per level."""
    root0, root1 = rng.bytes(16), rng.bytes(16)
    seeds = np.stack([seed_to_array(root0), seed_to_array(root1)])
    t = np.array([0, 1], dtype=np.uint8)
    seed_cw = np.zeros((bits, 2), dtype=np.uint64)
    ctrl_cw = np.zeros(bits, dtype=np.uint8)
    for lvl in range(bits):
        a = (alpha >> (bits - 1 - lvl)) & 1
        left, right, t_left, t_right, value = prg_expand(seeds)
        v_cw = int(value[0] ^ value[1]) ^ (a if comparison else 0)
        keep_seed, keep_t = (left, t_left) if a == 0 else (right, t_right)
        lose_seed = right if a == 0 else left
        s_cw = lose_seed[0] ^ lose_seed[1]
        tau_l = int(t_left[0] ^ t_left[1]) ^ a ^ 1
        tau_r = int(t_right[0] ^ t_right[1]) ^ a
        seed_cw[lvl] = s_cw
        ctrl_cw[lvl] = tau_l | (tau_r << 1) | (v_cw << 2)
        tau_keep = tau_l if a == 0 else tau_r
        seeds = keep_seed ^ (s_cw[None, :] * t.astype(np.uint64)[:, None])
        t = keep_t ^ (t & tau_keep)
    final_cw = 0 if comparison else int((seeds[0, 0] ^ seeds[1, 0]) & np.uint64(1)) ^ 1
    return tuple(fss.Tree(comparison, root, root_t, seed_cw, ctrl_cw, final_cw)
                 for root_t, root in enumerate((root0, root1)))


def key_pair_reference(pred, n, rng):
    """A predicate's key pair, tree by tree: thresholds and constants as ``fss`` documents them."""
    bits = fss.domain_bits_for(n)
    full = 1 << bits
    if pred.kind == fss.KIND_EQ:
        k1, k2 = tree_gen_reference(pred.operands[0], bits, rng, False)
        return (k1,), (k2,)
    if pred.kind == fss.KIND_INTERVAL:
        low, high = pred.operands
        lo_t, hi_t, const = low, high + 1, 0
        if hi_t == full:
            hi_t, const = 0, 1
        low1, low2 = tree_gen_reference(lo_t, bits, rng, True)
        up1, up2 = tree_gen_reference(hi_t, bits, rng, True)
        return (low1, replace(up1, add_const=const)), (low2, up2)
    alpha = pred.operands[0]
    threshold, const = {fss.KIND_LT: (alpha, 0), fss.KIND_GE: (alpha, 1),
                        fss.KIND_LE: (alpha + 1, 0), fss.KIND_GT: (alpha + 1, 1)}[pred.kind]
    if threshold == full:  # x <= max always holds, x > max never
        threshold, const = 0, 1 - const
    k1, k2 = tree_gen_reference(threshold, bits, rng, True)
    return (replace(k1, add_const=const),), (k2,)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gen_token_keys_equal_the_per_tree_reference(seed):
    schema, query = mixed_depth_schema(), mixed_kind_query()
    token_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tokens = gen_token(query, schema, token_rng)
    for s, vertex in enumerate(query.vertices):
        ts = schema.types[vertex.vtype]
        for pi, pred in enumerate(vertex.predicates):
            (k11, k21), (k12, k22), (k13, k23) = (
                key_pair_reference(pred, ts.attrs[pred.attr].domain_size, rng) for _ in range(3))
            want = [(k11, k12), (k22, k13), (k23, k21)]
            for token, pair in zip(tokens, want):
                assert ([fss.serialize_key(k) for k in token.slot_keys[s][pi]]
                        == [fss.serialize_key(k) for k in pair])
    assert token_rng.bytes(16) == rng.bytes(16)  # both drew the same root seeds


# recorded while key generation still built one tree at a time
TOKEN_PIN = "a03b2d2d42e18e508bbd63e915c4bf32727972b015e6270e067eb8c4b00d8622"


def test_token_bytes_for_a_seed_are_pinned(schema, tmp_path):
    """The saved tokens of a fixed query set and seed, as SHA-256 over every file in turn."""
    sha = hashlib.sha256()
    for query_schema, query, seed in ((mixed_depth_schema(), mixed_kind_query(), 5),
                                      (schema, load_query(TWO_PERSON_QUERY, schema), 6)):
        for token in gen_token(query, query_schema, np.random.default_rng(seed)):
            sha.update(token_file(tmp_path / "t.ogmt", token))
    assert sha.hexdigest() == TOKEN_PIN
