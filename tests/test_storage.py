"""File formats: record round trips, container integrity, size obliviousness."""

import hashlib
import struct

import numpy as np
import pytest

from oblivgm import rss, storage
from oblivgm.bits import mask_tail, words_for
from oblivgm.datagen import graph_to_text, random_graph
from oblivgm.engine import open_results
from oblivgm.graphs import encrypt_graph, parse_graph_text
from oblivgm.storage import (StorageError, load_graph_share, load_results, load_schema,
                             save_graph_share, save_results, save_schema)
from tests.conftest import CAMPUS_GRAPH, TWO_PERSON_QUERY, run_secure_query

UNIQUE_MISSES = "Q p P age >= 30\nQ c C field = Internet\nQE p c\n"


def test_record_pair_codec_round_trip():
    rng = np.random.default_rng(0)
    for width in (1, 31, 32, 33, 500):
        rows, size = 5, storage._pair_bytes(width)
        # share words carry arbitrary bits past the width; records hold them zero
        mats = [rng.integers(0, 1 << 32, (rows, words_for(width)), dtype=np.uint32)
                for _ in range(2)]
        offsets = 7 + np.arange(rows)[::-1] * size  # any order, any alignment
        buf = np.zeros(7 + rows * size, np.uint8)
        storage._pairs(buf, offsets, np.arange(rows), mats, width, 2, load=False)
        for r in range(rows):
            for comp in range(2):
                at = offsets[r] + comp * size // 2
                assert struct.unpack_from("<4sHBQ", buf, at) == (b"OGMS", 2, 2, width)
                words = np.frombuffer(buf, np.uint32, words_for(width), at + 15)
                assert np.array_equal(words, mask_tail(mats[comp][r].copy(), width))
        back = [np.zeros_like(m) for m in mats]
        storage._pairs(buf, offsets, np.arange(rows), back, width, 2, load=True)
        assert all(np.array_equal(b, mask_tail(m.copy(), width)) for b, m in zip(back, mats))
        for pos, message in ((0, "magic"), (4, "version"), (6, "party"), (7, "width")):
            bad = buf.copy()
            bad[offsets[3] + size // 2 + pos] ^= 1  # component b of row 3
            with pytest.raises(StorageError, match=message):
                storage._pairs(bad, offsets, np.arange(rows), back, width, 2, load=True)


# SHA-256 of fixed-seed version-2 files: a codec change must leave every byte
# as it is, or bump the version. Result files also hold the query's fresh
# shares, so a protocol change that draws its re-share masks differently
# moves them while the codec stays as it is
PINNED_GRAPH_SHARES = {
    "campus": ("e4422a5ee6a0e23fd3a3353920d04527c8cef22e0008b6c6d3e3221cf27f4689",
               "3e5472c6fc3cec5c23f74a2f027c8678d77391c92b6eeb02d5878c587df62f68",
               "f6a64177551fefe5bacde3be49ecae9a7043f96075305fecfed6ceba6a4c2466"),
    "random-200": ("88cae2e127722b0c348bc88aae1a9ff17b11fcd1e60891a0c68e08787ce36fcc",
                   "208cf839bf1677604ed4dc19e742c73149192b3ec553b09e7f8f86839f3d9bfb",
                   "ee64547fda10fe8764abe527f215b1a10e0cfec6a0962ad77578014722bafc25"),
}
PINNED_RESULTS = {
    "two-person": (TWO_PERSON_QUERY,
                   ("9955a155a4166961a9a5cc62825c12743653b84660607786b2eb1846dce6490e",
                    "b4947e50ada13deb71cdaf40a16f01222d8bd33d574c5b2838f396940881561f",
                    "9ab11f6d358651c09a6357cf6239b081198baf0a929ee57f6ec471f98f2bb443")),
    "unique-misses": (UNIQUE_MISSES,
                      ("ec9d8b68d89d82cbaf03e3d33b64b59f801a21e3ec5aa600c6854e5f0bce81cb",
                       "407b5506a4e7c0278d5248b7eff567539ebaf6547996d578c57ed1364441dd02",
                       "eea1d9a7a5edbc9ff489530b4c1a2c42747ba512867dc490aa6b8b6b6cc61d94")),
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


def _record_starts(data: bytes) -> list[int]:
    """Offsets of every share record of a graph share file, read off the record headers."""
    starts, pos = [], 39  # the container header
    while pos < len(data):
        starts.append(pos)
        pos += 15 + 4 * words_for(struct.unpack_from("<Q", data, pos + 7)[0])
    assert pos == len(data)
    return starts


def test_truncated_or_header_flipped_graph_share_is_refused(tmp_path):
    graph = parse_graph_text(graph_to_text(random_graph(np.random.default_rng(1), n_vertices=60,
                                                        n_types=3, avg_degree=3)))
    schema, shares = encrypt_graph(graph, 2, np.random.default_rng(2))
    path = tmp_path / "g.ogmg"
    save_graph_share(path, shares[1])
    data = path.read_bytes()
    starts = _record_starts(data)
    assert len(starts) > 300

    def refused(blob):
        path.write_bytes(blob)
        with pytest.raises(StorageError):
            load_graph_share(path, schema)

    for cut in [0, 20] + starts + [s + 15 for s in starts[::20]] + [len(data) - 1]:
        refused(data[:cut])
    refused(data + b"\0")
    # every byte of the container header, and one byte of every record
    # header, cycling through its 15 bytes (magic, version, party, width)
    for pos in list(range(39)) + [start + i % 15 for i, start in enumerate(starts)]:
        flipped = bytearray(data)
        flipped[pos] ^= 1 << (pos % 8)
        refused(bytes(flipped))


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

