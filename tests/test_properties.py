"""Secure matching equals the plaintext oracle on generated graphs and queries.

Graphs have 1-4 vertex types and 1-30 vertices, k is 1, 2 or 3, and queries
are trees of up to 4 slots. Every type carries a repeating ordinal attribute
``a`` and a unique one ``u``, so equality on ``u`` takes the unique fetch
route and its misses fold to dummy records (id code 0). On every input the
opened result must equal ``oracle_match``, and the leakage ledger must hold
only fetch and access flags: one entry per slot an open spans, each with the
per-group counts the oracle implies for that slot.

``build_schema`` refuses k = 1, because one-vertex groups give no degree
twins; the engine does not depend on padding, so k = 1 builds the schema
with one group per vertex. It is the only way a single-vertex type (1-bit id
codes) gets encrypted.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oblivgm import graphs
from oblivgm.engine import decode_records, open_results, plan
from oblivgm.graphs import GraphFormatError, build_schema, parse_graph_text
from oblivgm.oracle import oracle_match
from tests.conftest import (CAMPUS_GRAPH, expected_access_segments, expected_open_counts, listed,
                            opened_counts, reference_decode, reference_open, row_code,
                            run_secure_query)

OPS = ("=", "=", "<", "<=", ">", ">=", "in")


def _one_group_per_vertex(graph, k):
    groups, padded = {}, {}
    for vtype, members in graph.type_members.items():
        groups[vtype] = [[li] for li in range(len(members))]
        ptypes = sorted({t for gi in members for t in graph.neighbors[gi]})
        padded[vtype] = {t: [len(graph.posting_list(gi, t)) for gi in members] for t in ptypes}
    return groups, padded


def padding(k):
    """The padding ``build_schema`` uses at ``k``: one group per vertex at k = 1."""
    if k > 1:
        return nullcontext()
    return mock.patch.object(graphs, "pad_k_groups", _one_group_per_vertex)


def schema_for(graph, k):
    with padding(k):
        return build_schema(graph, k)


@st.composite
def graph_texts(draw):
    n_types = draw(st.integers(1, 4))
    pops = draw(st.lists(st.integers(1, 30 // n_types), min_size=n_types, max_size=n_types))
    lines = []
    for t, pop in enumerate(pops):
        for i in range(pop):
            lines.append(f"V T{t} v{len(lines)} a={draw(st.integers(0, 3))} u={i}")
    n = len(lines)
    density = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines += [f"E v{x} v{y}" for x in range(n) for y in range(x + 1, n) if rng.random() < density]
    return "\n".join(lines) + "\n"


def draw_query(data, schema) -> str:
    """A tree query of up to 4 slots, each hop along an edge type of the schema."""
    slot_types = [data.draw(st.sampled_from(sorted(schema.types)))]
    edges = []
    for _ in range(data.draw(st.integers(0, 3))):
        parents = [i for i, t in enumerate(slot_types) if schema.types[t].posting_types]
        if not parents:
            break
        p = data.draw(st.sampled_from(parents))
        edges.append((p, len(slot_types)))
        slot_types.append(data.draw(st.sampled_from(schema.types[slot_types[p]].posting_types)))
    lines = []
    for i, t in enumerate(slot_types):
        attrs = schema.types[t].attrs
        n_preds = data.draw(st.integers(1, 2))
        for _ in range(n_preds):
            attr = data.draw(st.sampled_from(sorted(attrs)))
            op = data.draw(st.sampled_from(OPS))
            if op == "=":
                operand = data.draw(st.sampled_from(attrs[attr].values))
            elif op == "in":
                lo = data.draw(st.integers(-1, 30))
                operand = f"{lo} {data.draw(st.integers(lo, 31))}"
            else:
                operand = str(data.draw(st.integers(-1, 31)))
            lines.append(f"Q s{i} {t} {attr} {op} {operand}")
        if n_preds == 2:
            lines.append(f"QC s{i} {data.draw(st.sampled_from(('ALL', 'ANY')))}")
    lines += [f"QE s{p} s{c}" for p, c in edges]
    return "\n".join(lines) + "\n"


def check_secure_equals_oracle(graph, schema, query_text, k):
    with padding(k):  # encrypt_graph builds its schema under the same padding
        res = run_secure_query(None, query_text, graph=graph, k=k)
    assert res["schema"].digest() == schema.digest()
    assert res["matches"] == oracle_match(graph, res["query"], schema)
    ledgers = [list(rt.opened) for rt in res["runtimes"]]
    assert listed(ledgers[0]) == listed(ledgers[1]) == listed(ledgers[2])
    # labels count up from 1; an open spanning several slots has one entry per slot, in order
    labels = [e.label for e in ledgers[0]]
    assert labels == sorted(labels) and sorted(set(labels)) == list(range(1, len(set(labels)) + 1))
    assert all(a.slot < b.slot for a, b in zip(ledgers[0], ledgers[0][1:]) if a.label == b.label)
    # every fetch entry's per-group popcounts are the oracle's, for each (phase, slot)
    fetches = [e for e in ledgers[0] if e.phase == "secFetch"]
    got = {(e.phase, e.slot): opened_counts(e) for e in fetches}
    assert len(got) == len(fetches)
    assert got == expected_open_counts(res)
    # the plan gives every slot's record count from the fetches' opened counts, and the
    # fetch entries are exactly its shuffled root's and fetched slots', each over all of
    # the slot's candidates: the root's population, or padded rows per parent record
    qp, slots = plan(schema, res["results"][0].structure), res["results"][0].structure["slots"]
    opened = {e.slot: int(e.bits.sum()) for e in fetches}
    count = [qp.count(s, lambda t: opened.get(t, 0)) for s in range(len(slots))]
    assert count == [t.rows for t in res["results"][0].records]
    candidates = {s: count[qp.parent[s]] * qp.padded[s] if s
                  else schema.types[slots[0]["type"]].population
                  for s, route in enumerate(qp.route) if route in ("shuffled root", "fetched")}
    assert {e.slot: sum(e.segments) for e in fetches} == {s: n for s, n in candidates.items() if n}
    # the rest are the accesses' masked codes, one segment per parent record
    accesses = {e.slot: e.segments for e in ledgers[0] if e.phase == "secAccess"}
    assert len(accesses) + len(fetches) == len(ledgers[0])
    assert accesses == expected_access_segments(res)
    # whole-table decoding equals record-by-record decoding, dummy rows included
    for sets in (res["results"][:2], res["results"][1:], list(res["results"])):
        decoded = reference_decode(sets, schema)
        assert decode_records(sets, schema) == decoded
        assert open_results(sets, schema) == reference_open(sets, decoded)
    return res


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph_text=graph_texts(), k=st.sampled_from((1, 2, 3)), data=st.data())
def test_secure_equals_oracle_on_generated_inputs(graph_text, k, data):
    graph = parse_graph_text(graph_text)
    if k > min(len(m) for m in graph.type_members.values()):
        with pytest.raises(GraphFormatError, match="fewer than k"):
            build_schema(graph, k)
        return
    schema = schema_for(graph, k)
    check_secure_equals_oracle(graph, schema, draw_query(data, schema), k)


SINGLE = """
V A x a=1 u=0
V B y1 a=1 u=0
V B y2 a=2 u=1
V B y3 a=2 u=2
E x y1
E x y3
E y1 y2
"""


@pytest.mark.parametrize("graph_text,k,query_text,needs", [
    # a single-vertex type (1-bit codes) as a leaf root, a root with children and a leaf
    pytest.param(SINGLE, 1, "Q r A a = 1\n", "one-vertex root", id="one-vertex-leaf-root"),
    pytest.param(SINGLE, 1, "Q r A a >= 0\nQ c B a <= 2\nQE r c\n", "one-vertex root",
                 id="one-vertex-parent"),
    pytest.param(SINGLE, 1, "Q r B a >= 1\nQ c A u = 0\nQE r c\n", "", id="one-vertex-leaf"),
    # k equals a population: the whole type is one padding group
    pytest.param(CAMPUS_GRAPH, 2, "Q u U place = Harbin\nQ p P age in 30 60\nQ c C field = "
                 "software\nQE u p\nQE p c\n", "", id="k-equals-population"),
    # unique route in a child slot: a group without the value folds to a dummy
    pytest.param(CAMPUS_GRAPH, 2, "Q p P age >= 30\nQ c C field = Internet\nQE p c\n", "dummy",
                 id="unique-route-misses"),
    pytest.param(CAMPUS_GRAPH, 2, "Q p P age >= 40\nQ p P age < 32\nQC p ANY\nQ c C field = "
                 "software\nQ c C field = Internet\nQC c ANY\nQE p c\n", "", id="any-combiners"),
    pytest.param(CAMPUS_GRAPH, 2, "Q p P age >= 31\nQ p P age <= 40\nQ q P age > 0\n"
                 "Q q P age < 45\nQ u U place = Harbin\nQE p q\nQE q u\n", "", id="all-combiners"),
    # empty, reversed and above-every-value ranges (the last wraps both trees of the
    # 4-value, power-of-two age domain) never match; the fourth predicate keeps matches
    pytest.param(CAMPUS_GRAPH, 2, "Q p P age in 41 49\nQ p P age in 60 30\nQ p P age in 60 70\n"
                 "Q p P age <= 35\nQC p ANY\nQ c C field = software\nQE p c\n", "",
                 id="empty-ranges"),
    # a unique-route slot with children: p4's group of u folds to a dummy,
    # and the leaf p below u takes its rows from u's gated one-hot ids
    pytest.param(CAMPUS_GRAPH, 2, "Q r P age >= 30\nQ u U place = Harbin\nQ p P age in 30 40\n"
                 "QE r u\nQE u p\n", "dummy", id="unique-route-parent"),
    # a unique-route leaf under a unique-route parent: the dummy parent
    # record's group folds to a dummy too
    pytest.param(CAMPUS_GRAPH, 2, "Q r P age >= 30\nQ u U place = Harbin\nQ p P age = 40\n"
                 "QE r u\nQE u p\n", "dummy", id="unique-route-chain-misses"),
    # a root that keeps no record: the leaf's population gate is still sent
    pytest.param(CAMPUS_GRAPH, 2, "Q p P age > 60\nQ c C field = software\nQE p c\n",
                 "no root record", id="no-root-record"),
])
def test_secure_equals_oracle_on_corner_cases(graph_text, k, query_text, needs):
    graph = parse_graph_text(graph_text)
    schema = schema_for(graph, k)
    res = check_secure_equals_oracle(graph, schema, query_text, k)
    results = res["results"]
    if needs == "no root record":
        assert not res["matches"] and results[0].records[0].rows == 0
        return
    assert res["matches"]
    if needs == "dummy":  # some record of slot 1, and of the last slot, opens to id code 0
        for s in {1, len(results[0].records) - 1}:
            assert 0 in [row_code([r.records[s].ids for r in results], ri)
                         for ri in range(results[0].records[s].rows)]
    if needs == "one-vertex root":
        assert schema.types["A"].id_width == 1
