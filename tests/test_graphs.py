"""Graph parsing, dictionaries, k-group padding, and encryption round trips."""

import hashlib

import numpy as np
import pytest

from oblivgm import rss
from oblivgm.bits import unpack_bits
from oblivgm.graphs import (AttributedGraph, GraphFormatError, GraphSchema,
                            build_schema, encrypt_graph, pad_k_groups, parse_graph_text)
from oblivgm.oracle import oracle_match
from oblivgm.query import QueryFormatError, load_query
from tests.conftest import CAMPUS_GRAPH


def chain_graph(lengths, vtype="P", other="C"):
    """One vertex per entry of ``lengths``, each with that many typed neighbors."""
    g = AttributedGraph()
    total = sum(lengths)
    for i in range(total):
        g.add_vertex(other, f"c{i}", {"z": str(i % 7)})
    nxt = 0
    for i, ln in enumerate(lengths):
        g.add_vertex(vtype, f"p{i}", {"a": str(i)})
        for _ in range(ln):
            g.add_edge(f"p{i}", f"c{nxt}")
            nxt += 1
    return g


def test_parse_errors():
    for text, msg in [
        ("V P p1", "needs type"),
        ("V P p1 age", "bad attribute"),
        ("V P p1 age=5\nV P p1 age=6", "duplicate vertex"),
        ("V P p1 age=5\nE p1 p9", "unknown vertex"),
        ("V P p1 age=5\nE p1 p1", "self-loop"),
        ("V P p1 age=5\nV P p2 age=6\nE p1 p2\nE p2 p1", "duplicate edge"),
        ("X P p1", "unknown record"),
        ("V P p1 age=5\nV P p2 size=6", "disagree on attribute"),
    ]:
        with pytest.raises(GraphFormatError, match=msg):
            parse_graph_text(text)


def test_large_dictionary_round_trip():
    g = AttributedGraph()
    for i in range(300):
        g.add_vertex("T", f"t{i}", {"v": str(i)})
        if i:
            g.add_edge(f"t{i}", f"t{i-1}")
    schema = build_schema(g, 2)
    attr = schema.types["T"].attrs["v"]
    assert attr.domain_size == 300


def test_padding_groups_by_sorted_length():
    # lengths (3,3,5,5): chunked after sorting, no dummies needed
    g = chain_graph([3, 3, 5, 5])
    groups, padded = pad_k_groups(g, 2)
    lens = padded["P"]["C"]
    assert sorted(lens) == [3, 3, 5, 5]
    dummies = sum(lens) - 16
    assert dummies == 0


def test_padding_adds_dummies_to_short_lists():
    g = chain_graph([2, 4])
    _, padded = pad_k_groups(g, 2)
    assert padded["P"]["C"] == [4, 4]  # two dummies in the first list


def test_padding_edgeless_type():
    g = AttributedGraph()
    for i in range(4):
        g.add_vertex("L", f"l{i}", {"a": str(i)})
    groups, padded = pad_k_groups(g, 2)
    assert padded["L"] == {}
    assert [len(c) for c in groups["L"]] == [2, 2]


def test_padding_residual_merges_into_last_group():
    g = chain_graph([1, 1, 1, 2, 2])
    groups, _ = pad_k_groups(g, 2)
    assert sorted(len(c) for c in groups["P"]) == [2, 3]


def test_padding_rejects_small_population_and_small_k():
    g = chain_graph([1, 1, 1])
    with pytest.raises(GraphFormatError, match="fewer than k"):
        pad_k_groups(g, 4)
    with pytest.raises(GraphFormatError, match="at least 2"):
        pad_k_groups(g, 1)


def test_k_automorphism_degree_property():
    rng = np.random.default_rng(0)
    from oblivgm.datagen import random_graph

    g = random_graph(rng, n_vertices=120, n_types=2, avg_degree=3)
    for k in (2, 4, 6):
        schema = build_schema(g, k)
        for ts in schema.types.values():
            profiles = [
                tuple(ts.padded_len[t][v] for t in ts.posting_types)
                for v in range(ts.population)
            ]
            for v, prof in enumerate(profiles):
                peers = sum(1 for w, p in enumerate(profiles) if p == prof and w != v)
                assert peers >= k - 1


def test_encrypt_reconstructs_padded_plaintext():
    g = parse_graph_text(CAMPUS_GRAPH)
    rng = np.random.default_rng(3)
    schema, shares = encrypt_graph(g, 2, rng)
    for vtype, ts in schema.types.items():
        for a, aschema in ts.attrs.items():
            vals = unpack_bits(rss.reconstruct_rows([gs.types[vtype].attrs[a] for gs in shares]),
                               aschema.domain_size)
            for row, gi in enumerate(g.type_members[vtype]):
                want = np.zeros(aschema.domain_size, np.uint8)
                want[aschema.index_of[g.vertices[gi].attrs[a]]] = 1
                assert np.array_equal(vals[row], want)
        for t_ne in ts.posting_types:
            ne_members = g.type_members[t_ne]
            tables = [gs.types[vtype].posting[t_ne] for gs in shares]
            assert all(t.width == schema.types[t_ne].id_width for t in tables)
            codes = rss.reconstruct_rows(tables).reshape(ts.population, ts.max_padded(t_ne))
            for row, gi in enumerate(g.type_members[vtype]):
                neighbors = g.posting_list(gi, t_ne)
                for slot in range(ts.max_padded(t_ne)):
                    if slot < len(neighbors):  # neighbor c is the code c + 1
                        assert ne_members[int(codes[row, slot]) - 1] == neighbors[slot]
                    else:
                        assert codes[row, slot] == 0  # dummy or structural zero


def test_true_ids_weight_one_dummies_zero():
    g = chain_graph([2, 4])
    rng = np.random.default_rng(4)
    schema, shares = encrypt_graph(g, 2, rng)
    codes = rss.reconstruct_rows([gs.types["P"].posting["C"] for gs in shares]).reshape(2, 4)
    # a true entry is its neighbour's code c + 1, a dummy the code 0
    want = [[g.type_members["C"].index(n) + 1 for n in g.posting_list(p, "C")]
            for p in g.type_members["P"]]
    assert codes[0].tolist() == want[0] + [0, 0]  # two true then two dummies
    assert codes[1].tolist() == want[1]
    assert all(c > 0 for c in want[0] + want[1])


def test_schema_json_round_trip():
    schema = build_schema(parse_graph_text(CAMPUS_GRAPH), 2)
    again = GraphSchema.from_json(schema.to_json())
    assert again.to_json() == schema.to_json()
    assert again.digest() == schema.digest()


def test_schema_digest_is_taken_once_per_schema(monkeypatch):
    text = build_schema(parse_graph_text(CAMPUS_GRAPH), 2).to_json()
    calls = []
    to_json = GraphSchema.to_json
    monkeypatch.setattr(GraphSchema, "to_json", lambda self: calls.append(self) or to_json(self))
    built = build_schema(parse_graph_text(CAMPUS_GRAPH), 2)
    loaded = GraphSchema.from_json(text)
    encrypted, _ = encrypt_graph(parse_graph_text(CAMPUS_GRAPH), 2, np.random.default_rng(0))
    for schema in (built, loaded, encrypted):
        assert schema.digest() == hashlib.sha256(text.encode()).digest()
        assert schema.digest() == schema.digest()
    assert sorted(map(id, calls)) == sorted(map(id, (built, loaded, encrypted)))  # once each
    assert GraphSchema.from_json(text) == built  # the cached digest takes no part in equality


def test_an_attribute_holding_nan_is_categorical():
    # NaN is neither above nor below any value, so it cannot be ordered: the
    # attribute is categorical, its range queries are refused, and '=' still
    # finds the vertex whose value is the text 'nan'
    text = "".join(f"V N n{i} age={v}\n" for i, v in enumerate(("50", "nan", "10", "40", "20")))
    graph = parse_graph_text(text)
    schema = build_schema(graph, 2)
    age = schema.types["N"].attrs["age"]
    assert not age.ordinal and sorted(age.values) == ["10", "20", "40", "50", "nan"]
    with pytest.raises(QueryFormatError, match="not ordinal"):
        load_query("Q a N age >= 30\n", schema)
    assert oracle_match(graph, load_query("Q a N age = nan\n", schema), schema) == {("n1",)}
    # 'inf' is still a number
    age = build_schema(parse_graph_text("V N n0 age=inf\nV N n1 age=30\n"), 2).types["N"].attrs["age"]
    assert age.ordinal and age.values == ["30", "inf"]
