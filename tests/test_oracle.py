"""Reference matcher: scenario results, per-slot validation, monotonicity."""

import numpy as np
import pytest

from oblivgm.datagen import random_graph, random_query_text
from oblivgm.graphs import build_schema, parse_graph_text
from oblivgm.oracle import combine, oracle_match, validate_match
from oblivgm.query import load_query
from tests.conftest import CAMPUS_GRAPH, TWO_PERSON_QUERY


@pytest.fixture(scope="module")
def campus_setup():
    g = parse_graph_text(CAMPUS_GRAPH)
    schema = build_schema(g, 2)
    return g, schema


def test_two_person_scenario_yields_exactly_two_subgraphs(campus_setup):
    g, schema = campus_setup
    q = load_query(TWO_PERSON_QUERY, schema)
    got = oracle_match(g, q, schema)
    assert got == {
        ("u1", "p1", "p3", "c1", "c2"),
        ("u1", "p2", "p3", "c1", "c2"),
    }


def test_single_vertex_unique_attribute(campus_setup):
    g, schema = campus_setup
    q = load_query("Q a P age = 35\n", schema)
    assert oracle_match(g, q, schema) == {("p1",)}


def test_unsatisfiable_root_is_empty(campus_setup):
    g, schema = campus_setup
    q = load_query("Q a P age > 100\nQ b C field = software\nQE a b\n", schema)
    assert oracle_match(g, q, schema) == set()


def test_every_match_passes_independent_validator():
    rng = np.random.default_rng(0)
    for trial in range(5):
        g = random_graph(rng, n_vertices=80, n_types=2, avg_degree=3)
        schema = build_schema(g, 2)
        q = load_query(random_query_text(rng, schema, n_targets=3), schema)
        for match in oracle_match(g, q, schema):
            assert validate_match(g, q, schema, match)


def test_widening_a_range_never_removes_matches(campus_setup):
    g, schema = campus_setup
    narrow = load_query(
        "Q u U place = Harbin\nQ p P age in 33 37\nQE u p\n", schema)
    wide = load_query(
        "Q u U place = Harbin\nQ p P age in 30 41\nQE u p\n", schema)
    assert oracle_match(g, narrow, schema) <= oracle_match(g, wide, schema)


def test_combiner_semantics():
    assert combine([True, True, False], "ALL") is False
    assert combine([True, True], "ANY") is True  # inclusive OR
    assert combine([False, False], "ANY") is False
    with pytest.raises(ValueError):
        combine([True], "SOME")
