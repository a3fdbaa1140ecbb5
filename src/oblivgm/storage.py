"""File formats: share vectors, encrypted graph shares, and result shares.

Single share vector record (the unit every container is built from)::

    "OGMS" | version u16 | party u8 | logical_len u64 | packed LE 32-bit words

Graph share containers ("OGMG") hold one record pair (the party's two share
components) per private vector, in canonical schema order, bound to the
public schema by its digest. The private vectors are every vertex's
attribute values and posting entries; vertex ids are public row positions
and are not stored. Record payload sizes depend only on the public schema
and padded lengths, never on the shared content, so two graphs with the
same shape produce byte-identical file sizes.

Result containers ("OGMR") carry the public query structure, provenance and
assembly as JSON, followed by record pairs per matched slot entry (the
vertex's ``id_width``-bit id code, then its attribute values), and end with
the SHA-256 of everything before it: a flipped bit in a code share would
otherwise open to another valid vertex.

Version 2 dropped the one-hot vertex ids of version 1 from both containers.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .bits import BitVector, words_for
from .engine import MatchedRecord, MatchResultSet
from .graphs import GraphSchema, GraphShare, TypePartyShare
from .rss import SharedBitVector

SHARE_MAGIC = b"OGMS"
GRAPH_MAGIC = b"OGMG"
RESULT_MAGIC = b"OGMR"
VERSION = 2

_SHARE_HEADER = struct.Struct("<4sHBQ")
_CONTAINER_HEADER = struct.Struct("<4sHB32s")
_CHECKSUM_BYTES = 32


class StorageError(ValueError):
    """Corrupt or mismatched share/result files."""


def encode_share_vector(party: int, vec: BitVector) -> bytes:
    head = _SHARE_HEADER.pack(SHARE_MAGIC, VERSION, party, vec.logical_len)
    return head + vec.words.tobytes()


def decode_share_vector(buf, offset: int = 0) -> tuple[int, BitVector, int]:
    """Returns (party, vector, next_offset)."""
    if len(buf) < offset + _SHARE_HEADER.size:
        raise StorageError("truncated share record")
    magic, version, party, nbits = _SHARE_HEADER.unpack_from(buf, offset)
    if magic != SHARE_MAGIC:
        raise StorageError("bad share record magic")
    if version != VERSION:
        raise StorageError(f"unsupported share record version {version} (expected {VERSION})")
    pos = offset + _SHARE_HEADER.size
    nwords = words_for(nbits)
    end = pos + 4 * nwords
    if len(buf) < end:
        raise StorageError("truncated share record payload")
    words = np.frombuffer(buf, dtype=np.uint32, count=nwords, offset=pos)
    return party, BitVector(words, nbits), end


def save_schema(path, schema: GraphSchema) -> None:
    Path(path).write_text(schema.to_json() + "\n")


def load_schema(path) -> GraphSchema:
    return GraphSchema.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# encrypted graph share containers
# ---------------------------------------------------------------------------


def _iter_vectors(gshare: GraphShare):
    """Canonical vector order: per type, per vertex: attrs, then posting entries."""
    schema = gshare.schema
    for vtype in sorted(schema.types):
        ts = schema.types[vtype]
        tps = gshare.types[vtype]
        x = ts.population
        for v in range(x):
            for a in sorted(ts.attrs):
                mats = tps.attrs[a]
                yield (mats[0][v], mats[1][v], ts.attrs[a].domain_size)
            for t_ne in ts.posting_types:
                width = schema.types[t_ne].population
                mats = tps.posting[t_ne]
                for slot in range(ts.padded_len[t_ne][v]):
                    yield (mats[0][v, slot], mats[1][v, slot], width)


def save_graph_share(path, gshare: GraphShare) -> None:
    parts = [_CONTAINER_HEADER.pack(GRAPH_MAGIC, VERSION, gshare.party_index,
                                    gshare.schema.digest())]
    for words_a, words_b, width in _iter_vectors(gshare):
        parts.append(encode_share_vector(gshare.party_index, BitVector(words_a, width)))
        parts.append(encode_share_vector(gshare.party_index, BitVector(words_b, width)))
    Path(path).write_bytes(b"".join(parts))


def load_graph_share(path, schema: GraphSchema) -> GraphShare:
    buf = Path(path).read_bytes()
    if len(buf) < _CONTAINER_HEADER.size:
        raise StorageError("truncated graph share file")
    magic, version, party, digest = _CONTAINER_HEADER.unpack_from(buf, 0)
    if magic != GRAPH_MAGIC:
        raise StorageError("not a graph share file")
    if version != VERSION:
        raise StorageError(f"unsupported graph share version {version} (expected {VERSION})")
    if digest != schema.digest():
        raise StorageError("graph share does not match the schema sidecar")
    pos = _CONTAINER_HEADER.size

    def next_pair(width: int):
        nonlocal pos
        p1, vec_a, pos = decode_share_vector(buf, pos)
        p2, vec_b, pos = decode_share_vector(buf, pos)
        if p1 != party or p2 != party:
            raise StorageError("record party index mismatch")
        if vec_a.logical_len != width or vec_b.logical_len != width:
            raise StorageError("record width does not match the schema")
        return vec_a.words, vec_b.words

    types: dict[str, TypePartyShare] = {}
    for vtype in sorted(schema.types):
        ts = schema.types[vtype]
        x = ts.population
        attrs = {
            a: (np.zeros((x, words_for(ts.attrs[a].domain_size)), np.uint32),
                np.zeros((x, words_for(ts.attrs[a].domain_size)), np.uint32))
            for a in sorted(ts.attrs)
        }
        posting = {}
        for t_ne in ts.posting_types:
            w_ne = words_for(schema.types[t_ne].population)
            l_max = ts.max_padded(t_ne)
            posting[t_ne] = (np.zeros((x, l_max, w_ne), np.uint32),
                             np.zeros((x, l_max, w_ne), np.uint32))
        for v in range(x):
            for a in sorted(ts.attrs):
                attrs[a][0][v], attrs[a][1][v] = next_pair(ts.attrs[a].domain_size)
            for t_ne in ts.posting_types:
                width = schema.types[t_ne].population
                for slot in range(ts.padded_len[t_ne][v]):
                    pa, pb = next_pair(width)
                    posting[t_ne][0][v, slot] = pa
                    posting[t_ne][1][v, slot] = pb
        types[vtype] = TypePartyShare(attrs, posting)
    if pos != len(buf):
        raise StorageError("trailing bytes in graph share file")
    return GraphShare(party, schema, types)


# ---------------------------------------------------------------------------
# result share containers
# ---------------------------------------------------------------------------


def save_results(path, results: MatchResultSet, schema: GraphSchema) -> None:
    manifest = {
        "structure": results.structure,
        "records": [
            [{"parent_slot": r.parent_slot, "parent_record": r.parent_record}
             for r in slot_records]
            for slot_records in results.records
        ],
        "subgraphs": [list(sg) for sg in results.subgraphs],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    parts = [
        _CONTAINER_HEADER.pack(RESULT_MAGIC, VERSION, results.party_index, schema.digest()),
        struct.pack("<I", len(blob)),
        blob,
    ]
    for slot_records in results.records:
        for rec in slot_records:
            parts.append(encode_share_vector(results.party_index, rec.vertex_id.share_a))
            parts.append(encode_share_vector(results.party_index, rec.vertex_id.share_b))
            for a in sorted(rec.attrs):
                parts.append(encode_share_vector(results.party_index, rec.attrs[a].share_a))
                parts.append(encode_share_vector(results.party_index, rec.attrs[a].share_b))
    body = b"".join(parts)
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def load_results(path, schema: GraphSchema) -> MatchResultSet:
    buf = Path(path).read_bytes()
    if len(buf) < _CONTAINER_HEADER.size:
        raise StorageError("truncated result file")
    magic, version, party, digest = _CONTAINER_HEADER.unpack_from(buf, 0)
    if magic != RESULT_MAGIC:
        raise StorageError("not a result share file")
    if version != VERSION:
        raise StorageError(f"unsupported result file version {version} (expected {VERSION})")
    buf, check = buf[:-_CHECKSUM_BYTES], buf[-_CHECKSUM_BYTES:]
    if len(buf) < _CONTAINER_HEADER.size + 4 or hashlib.sha256(buf).digest() != check:
        raise StorageError("result file records fail their SHA-256 check (corrupted or truncated)")
    if digest != schema.digest():
        raise StorageError("result file does not match the schema sidecar")
    pos = _CONTAINER_HEADER.size
    (json_len,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    try:
        manifest = json.loads(buf[pos:pos + json_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"corrupt result manifest: {exc}") from None
    pos += json_len

    def next_shared(width: int) -> SharedBitVector:
        nonlocal pos
        p1, vec_a, pos = decode_share_vector(buf, pos)
        p2, vec_b, pos = decode_share_vector(buf, pos)
        if p1 != party or p2 != party:
            raise StorageError("record party index mismatch")
        if vec_a.logical_len != width or vec_b.logical_len != width:
            raise StorageError("record width does not match the schema")
        return SharedBitVector(party, vec_a, vec_b)

    structure = manifest["structure"]
    records: list[list[MatchedRecord]] = []
    for s, slot in enumerate(structure["slots"]):
        ts = schema.types[slot["type"]]
        needed = sorted({p["attr"] for p in slot["preds"]})
        out = []
        for meta in manifest["records"][s]:
            vid = next_shared(ts.id_width)
            attrs = {a: next_shared(ts.attrs[a].domain_size) for a in needed}
            out.append(MatchedRecord(meta["parent_slot"], meta["parent_record"], vid, attrs))
        records.append(out)
    if pos != len(buf):
        raise StorageError("trailing bytes in result file")
    return MatchResultSet(
        party_index=party,
        structure=structure,
        records=records,
        subgraphs=[tuple(sg) for sg in manifest["subgraphs"]],
    )
