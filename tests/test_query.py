"""Query parsing/resolution and token generation properties."""

import numpy as np
import pytest

from oblivgm import fss
from oblivgm.graphs import build_schema, parse_graph_text
from oblivgm.query import (QueryFormatError, gen_token, load_query, resolve_query,
                           parse_query_text)
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
    kind, ops = kinds("Q a P age in 41 49\n")  # no dictionary value inside
    assert kind == fss.KIND_INTERVAL and ops == (0, 0)
    p = load_query("Q a P age in 41 49\n", schema).vertices[0].predicates[0]
    assert p.closed == (False, False)


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
                ind = (fss.full_domain_eval(a, n) ^ fss.full_domain_eval(b, n)).to_bits()
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
    from oblivgm.graphs import AttributedGraph, build_schema

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
