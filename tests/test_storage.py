"""File formats: table round trips, container integrity, size obliviousness."""

import hashlib
import struct

import numpy as np
import pytest

from oblivgm import rss
from oblivgm.bits import mask_tail, words_for
from oblivgm.datagen import graph_to_text, random_graph
from oblivgm.engine import open_results
from oblivgm.graphs import build_schema, encrypt_graph, parse_graph_text
from oblivgm.query import gen_token, load_query
from oblivgm.storage import (StorageError, load_graph_share, load_results, load_schema,
                             load_token, save_graph_share, save_results, save_schema, save_token)
from tests.conftest import (CAMPUS_GRAPH, TWO_PERSON_QUERY, old_result_layout, rewrite_manifest,
                            run_secure_query)

UNIQUE_MISSES = "Q p P age >= 30\nQ c C field = Internet\nQE p c\n"


# SHA-256 of fixed-seed files (graph shares and results at version 4): a
# codec change must leave every byte as it is, or bump the version, or (as
# the result manifest's two-key layout did) make the loader refuse every
# file of the other layout. Result files also hold the query's fresh shares,
# so a protocol change that draws its re-share masks differently moves them
# while the codec stays as it is
PINNED_GRAPH_SHARES = {
    "campus": ("55e6e79e79a66d10f50534ccaacd9eb4a8263fd1c54f61713c268b2634963a1d",
               "8920735fbbf3f7ad223a462aca34bceaaf8273b2fa5c78dc6030052fb280e55b",
               "8cc45fe459353fc439b8b9a9b38dfbab7ba5416046c787a28598385db8c02dc8"),
    "random-200": ("18ddd62d1db4080c437b0b27b72966fc42ef7f02652bf96824e3b9a07a5c4f5b",
                   "afe2bc93f0567b5e4d5dc377737d6cd913310c25e08c8116b9fb020be2a8c906",
                   "df643d1d14e66a883fe159886ab3f002c9fe766b383f251d4b4ab59076504784"),
}
PINNED_RESULTS = {
    "two-person": (TWO_PERSON_QUERY,
                   ("1c345fd6e3e0df3df9e37fe7202e1338f99ed5d775663f540861a3e5a7632a73",
                    "edc71ac2e4c4fa8d930a026cb8d7ab14f358e39f35496ed4dd0ad48b14c734c7",
                    "ec918ef1746bda2a719464af481a9b3301ebf747bd8e7aa603c7f905ceda8eff")),
    "unique-misses": (UNIQUE_MISSES,
                      ("d7f4c9314698b942b9e8e98fcf1412f74e404c885b746767cd57aec4289ad7cb",
                       "ce1dd5077fd4ee3dc0069663ae6fc09f835880bf9aea260c81566cb9ffa2c3b3",
                       "a79c246b1521a370bc72ceb59fe9d7f841b55549e51205274e8d30021a303e55")),
}


def _random_200():
    graph = parse_graph_text(graph_to_text(random_graph(np.random.default_rng(0), n_vertices=200,
                                                        n_types=3, avg_degree=3)))
    return encrypt_graph(graph, 3, np.random.default_rng(7))


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_GRAPH_SHARES))
def test_graph_share_files_are_pinned(tmp_path, name):
    if name == "campus":
        res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY, seed=5, master=b"\x5a" * 16)
        schema, shares = res["schema"], res["shares"]
    else:
        schema, shares = _random_200()
    got = []
    for gs in shares:
        path = tmp_path / f"{gs.party_index}.ogmg"
        save_graph_share(path, gs)
        got.append(_sha(path))
        again = tmp_path / "again.ogmg"
        save_graph_share(again, load_graph_share(path, schema))
        assert _sha(again) == got[-1]
    assert tuple(got) == PINNED_GRAPH_SHARES[name]


@pytest.mark.parametrize("name", sorted(PINNED_RESULTS))
def test_result_files_are_pinned(tmp_path, name):
    query_text, digests = PINNED_RESULTS[name]
    res = run_secure_query(CAMPUS_GRAPH, query_text, seed=5, master=b"\x5a" * 16)
    got = []
    for r in res["results"]:
        path = tmp_path / f"{r.party_index}.ogmr"
        save_results(path, r, res["schema"])
        got.append(_sha(path))
        again = tmp_path / "again.ogmr"
        save_results(again, load_results(path, res["schema"]), res["schema"])
        assert _sha(again) == got[-1]
    assert tuple(got) == digests


def _component_spans(schema) -> tuple[list[tuple[int, int]], int]:
    """``(offset, bytes)`` of each table component of a graph share file, and the end of the last.

    Written from the documented layout, not from the codec: after the
    39-byte header, type by type, each attribute table and then each posting
    table (its rows inside the padded lengths, one ``id_width``-bit code
    each), ``share_a`` then ``share_b``.
    """
    spans, pos = [], 39
    for vtype in sorted(schema.types):
        ts = schema.types[vtype]
        tables = [(ts.attrs[a].domain_size, ts.population) for a in sorted(ts.attrs)]
        tables += [(schema.types[t].id_width, sum(ts.padded_len[t])) for t in ts.posting_types]
        for width, rows in tables:
            for _ in range(2):
                spans.append((pos, 4 * words_for(width) * rows))
                pos += spans[-1][1]
    return spans, pos


def _refuses(path, schema, blob):
    path.write_bytes(blob)
    with pytest.raises(StorageError):
        load_graph_share(path, schema)


def _flipped(data: bytes, pos: int) -> bytes:
    flipped = bytearray(data)
    flipped[pos] ^= 1 << (pos % 8)
    return bytes(flipped)


def test_every_truncation_or_flipped_byte_of_a_graph_share_is_refused(tmp_path):
    schema, shares = encrypt_graph(parse_graph_text(CAMPUS_GRAPH), 2, np.random.default_rng(4))
    path = tmp_path / "g.ogmg"
    save_graph_share(path, shares[2])
    data = path.read_bytes()
    assert _component_spans(schema)[1] + 32 == len(data)
    for cut in range(len(data)):
        _refuses(path, schema, data[:cut])
    for pos in range(len(data)):
        _refuses(path, schema, _flipped(data, pos))


def test_truncated_or_header_flipped_graph_share_is_refused(tmp_path):
    graph = parse_graph_text(graph_to_text(random_graph(np.random.default_rng(1), n_vertices=60,
                                                        n_types=3, avg_degree=3)))
    schema, shares = encrypt_graph(graph, 2, np.random.default_rng(2))
    path = tmp_path / "g.ogmg"
    save_graph_share(path, shares[1])
    data = path.read_bytes()
    spans, end = _component_spans(schema)
    assert end + 32 == len(data) and len(spans) > 20
    for cut in [0, 20, 39] + [start for start, _ in spans] + [end, len(data) - 1]:
        _refuses(path, schema, data[:cut])
    _refuses(path, schema, data + b"\0")
    # every byte of the container header and of the checksum, and one byte
    # in the first and in the last word of every table component
    edges = [p for start, size in spans if size for p in (start, start + size - 1)]
    for pos in list(range(39)) + edges + list(range(end, len(data))):
        _refuses(path, schema, _flipped(data, pos))


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
        for kind, names in (("attrs", ts.attrs), ("posting", ts.posting_types)):
            for name in names:
                plain = [rss.reconstruct_rows([getattr(gs.types[vtype], kind)[name] for gs in g])
                         for g in (loaded, shares)]
                assert np.array_equal(*plain)
    # share words may carry bits past a table's width; they load back zero
    dirty = [t for tps in loaded[0].types.values() for t in (*tps.attrs.values(),
                                                               *tps.posting.values())]
    assert any(t.width % 32 for t in dirty)
    for table in dirty:
        for comp in (table.share_a, table.share_b):
            comp[:, -1] |= ~mask_tail(np.full(1, 0xFFFFFFFF, np.uint32), table.width)
    path = tmp_path / "dirty.ogmg"
    save_graph_share(path, loaded[0])
    again = load_graph_share(path, schema)
    for vtype, tps in shares[0].types.items():
        for kind in ("attrs", "posting"):
            for name, table in getattr(tps, kind).items():
                back = getattr(again.types[vtype], kind)[name]
                assert np.array_equal(back.share_a, table.share_a)
                assert np.array_equal(back.share_b, table.share_b)


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
    r2.records[0].ids.share_a[0, 0] ^= 1
    with pytest.raises(ValueError, match="inconsistent|weight"):
        open_results([r1, r2], res["schema"])


def test_version_1_files_are_refused(tmp_path):
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    graph_path, result_path = tmp_path / "g.ogmg", tmp_path / "r.ogmr"
    save_graph_share(graph_path, res["shares"][0])
    save_results(result_path, res["results"][0], res["schema"])
    for path, load, current in ((graph_path, load_graph_share, 4), (result_path, load_results, 4)):
        data = bytearray(path.read_bytes())
        data[4:6] = (1).to_bytes(2, "little")  # the container header's version field
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match=rf"version 1 \(expected {current}\)"):
            load(path, res["schema"])


def test_version_3_graph_shares_are_refused(tmp_path):
    # a version-3 share holds one-hot posting rows, which would read as other codes
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    path = tmp_path / "g.ogmg"
    save_graph_share(path, res["shares"][0])
    data = bytearray(path.read_bytes())
    assert data[4:6] == (4).to_bytes(2, "little")
    data[4:6] = (3).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(StorageError, match=r"graph share version 3 \(expected 4\)"):
        load_graph_share(path, res["schema"])


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



def test_token_naming_a_wider_attribute_is_refused_by_its_size(tmp_path):
    # a token's key depths follow from the attributes its structure names,
    # so no file can carry a key deeper than its attribute's domain
    schema = build_schema(parse_graph_text(CAMPUS_GRAPH), 2)
    path = tmp_path / "t.ogmt"
    save_token(path, gen_token(load_query("Q a U place = Harbin\n", schema), schema,
                               np.random.default_rng(0))[0])
    rewrite_manifest(path, lambda doc: None)
    assert load_token(path, schema, 1).slot_keys[0][0][0][0].domain_bits == 1

    def widen(doc):  # age has 4 values, two levels; place has 2, one level
        doc["slots"][0]["type"] = "P"
        doc["slots"][0]["preds"][0]["attr"] = "age"

    rewrite_manifest(path, widen)
    with pytest.raises(StorageError, match="truncated token"):
        load_token(path, schema, 1)


def test_manifest_nested_too_deep_is_refused(tmp_path):
    # past about a thousand levels json.loads raises RecursionError, not ValueError
    res = run_secure_query(CAMPUS_GRAPH, "Q a P age = 35\n")
    schema, token, results = res["schema"], tmp_path / "t.ogmt", tmp_path / "r.ogmr"
    save_token(token, res["tokens"][0])
    save_results(results, res["results"][0], schema)
    blob = b"[" * 100_000 + b"]" * 100_000
    for path, load in ((token, lambda: load_token(token, schema, 1)),
                       (results, lambda: load_results(results, schema))):
        data = path.read_bytes()[:39] + struct.pack("<I", len(blob)) + blob
        path.write_bytes(data + hashlib.sha256(data).digest())
        with pytest.raises(StorageError, match="corrupt .* manifest"):
            load()


def test_result_manifest_not_matching_its_records_is_refused(tmp_path):
    res = run_secure_query(CAMPUS_GRAPH, TWO_PERSON_QUERY)
    schema, path = res["schema"], tmp_path / "r.ogmr"
    save_results(path, res["results"][0], schema)
    good = path.read_bytes()
    rewrite_manifest(path, lambda doc: None)
    assert ([t.parent_record.tolist() for t in load_results(path, schema).records]
            == [t.parent_record.tolist() for t in res["results"][0].records])

    def set_parent(slot, record, value):
        def edit(doc):
            doc["parent_records"][slot][record] = value
        return edit

    def reverse_slot_3(doc):  # parent records [0, 1, 2] of slot 3 become decreasing
        doc["parent_records"][3].reverse()

    def drop_last_slot(doc):
        doc["parent_records"].pop()

    def extra_key(doc):
        doc["note"] = 1

    for edit, message in ((set_parent(0, 0, 0), "slot 0"),
                          (set_parent(1, 0, None), "slot 1"),
                          (set_parent(3, 2, 3), "slot 3"),  # slot 1 has 3 records
                          (set_parent(3, 2, 1.0), "slot 3"),
                          (reverse_slot_3, "slot 3"),
                          (drop_last_slot, "4 parent record lists for 5 slots"),
                          (old_result_layout, "keys are not exactly"),
                          (extra_key, "keys are not exactly")):
        path.write_bytes(good)
        rewrite_manifest(path, edit)
        with pytest.raises(StorageError, match=message):
            load_results(path, schema)
