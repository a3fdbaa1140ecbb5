"""File formats: record round trips, container integrity, size obliviousness."""

import numpy as np
import pytest

from oblivgm.bits import BitVector
from oblivgm.engine import open_results
from oblivgm.graphs import encrypt_graph, parse_graph_text, reconstruct_type_matrix
from oblivgm.storage import (StorageError, decode_share_vector, encode_share_vector,
                             load_graph_share, load_results, load_schema,
                             save_graph_share, save_results, save_schema)
from tests.conftest import CAMPUS_GRAPH, TWO_PERSON_QUERY, run_secure_query


def test_share_vector_record_round_trip():
    rng = np.random.default_rng(0)
    for n in (1, 31, 32, 33, 500):
        v = BitVector.random(n, rng)
        blob = encode_share_vector(2, v)
        party, back, end = decode_share_vector(blob)
        assert (party, back, end) == (2, v, len(blob))
    with pytest.raises(StorageError, match="magic"):
        decode_share_vector(b"XXXX" + blob[4:])
    with pytest.raises(StorageError, match="truncated"):
        decode_share_vector(blob[:-2])


def test_graph_share_file_round_trip(tmp_path):
    g = parse_graph_text(CAMPUS_GRAPH)
    rng = np.random.default_rng(1)
    schema, shares = encrypt_graph(g, 2, rng)
    save_schema(tmp_path / "schema.json", schema)
    schema_back = load_schema(tmp_path / "schema.json")
    assert schema_back.digest() == schema.digest()
    loaded = []
    for gs in shares:
        p = tmp_path / f"share-{gs.party_index}.ogmg"
        save_graph_share(p, gs)
        loaded.append(load_graph_share(p, schema_back))
    for vtype, ts in schema.types.items():
        for a in ts.attrs:
            assert np.array_equal(
                reconstruct_type_matrix(loaded, vtype, "attr", a),
                reconstruct_type_matrix(shares, vtype, "attr", a))
        for t in ts.posting_types:
            assert np.array_equal(
                reconstruct_type_matrix(loaded, vtype, "posting", t),
                reconstruct_type_matrix(shares, vtype, "posting", t))


def test_graph_share_digest_guard(tmp_path):
    g = parse_graph_text(CAMPUS_GRAPH)
    rng = np.random.default_rng(2)
    schema, shares = encrypt_graph(g, 2, rng)
    other = parse_graph_text(CAMPUS_GRAPH + "V P p5 age=61\nE p5 c1\n")
    other_schema, _ = encrypt_graph(other, 2, rng)
    path = tmp_path / "s.ogmg"
    save_graph_share(path, shares[0])
    with pytest.raises(StorageError, match="schema"):
        load_graph_share(path, other_schema)
    data = bytearray(path.read_bytes())
    data[0] = 0
    bad = tmp_path / "bad.ogmg"
    bad.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="not a graph share"):
        load_graph_share(bad, schema)


def test_encryption_is_content_oblivious_in_size(tmp_path):
    # same schema shape, different attribute values -> byte-identical file sizes
    base = CAMPUS_GRAPH
    variant = base.replace("age=35", "age=52").replace("place=Harbin", "place=Beijing")
    sizes = []
    for i, text in enumerate((base, variant)):
        g = parse_graph_text(text)
        schema, shares = encrypt_graph(g, 2, np.random.default_rng(3))
        p = tmp_path / f"v{i}.ogmg"
        save_graph_share(p, shares[0])
        sizes.append(p.stat().st_size)
    assert sizes[0] == sizes[1]


def test_results_round_trip_and_open(tmp_path):
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    paths = []
    for r in res["results"]:
        p = tmp_path / f"r{r.party_index}.ogmr"
        save_results(p, r, res["schema"])
        paths.append(p)
    loaded = [load_results(p, res["schema"]) for p in paths[:2]]
    matches, details = open_results(loaded, res["schema"])
    assert set(matches) == res["matches"]
    with pytest.raises(StorageError, match="truncated|manifest|record"):
        (tmp_path / "trunc.ogmr").write_bytes(paths[0].read_bytes()[:-9])
        load_results(tmp_path / "trunc.ogmr", res["schema"])


def test_open_results_detects_corrupted_share(tmp_path):
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    r1, r2 = res["results"][0], res["results"][1]
    # flip one bit inside one record's id share
    rec = r2.records[0][0]
    words = rec.vertex_id.share_a.words.copy()
    words[0] ^= 1
    rec.vertex_id.share_a.words[:] = words
    with pytest.raises(ValueError, match="inconsistent|weight"):
        open_results([r1, r2], res["schema"])


def test_version_1_files_are_refused(tmp_path):
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    graph_path, result_path = tmp_path / "g.ogmg", tmp_path / "r.ogmr"
    save_graph_share(graph_path, res["shares"][0])
    save_results(result_path, res["results"][0], res["schema"])
    for path, load in ((graph_path, load_graph_share), (result_path, load_results)):
        data = bytearray(path.read_bytes())
        data[4:6] = (1).to_bytes(2, "little")  # the container header's version field
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match=r"version 1 \(expected 2\)"):
            load(path, res["schema"])


def test_every_flipped_byte_of_a_result_file_is_refused(tmp_path):
    # a flipped bit of a code share would open to another valid vertex, so
    # no single flip anywhere in the file may load
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    path = tmp_path / "r.ogmr"
    save_results(path, res["results"][0], res["schema"])
    data = path.read_bytes()
    assert load_results(path, res["schema"]).records
    for pos in range(len(data)):
        flipped = bytearray(data)
        flipped[pos] ^= 1 << (pos % 8)
        path.write_bytes(bytes(flipped))
        with pytest.raises(StorageError):
            load_results(path, res["schema"])

