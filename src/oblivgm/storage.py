"""File formats: encrypted graph shares and result shares.

Both containers are made of one share record per share vector::

    "OGMS" | version u16 | party u8 | logical_len u64 | packed LE 32-bit words

A field's rows are stored as one record pair (the party's two share
components) per row. Every pair's byte offset follows from public sizes, so
a whole field moves as numpy gathers or scatters in bounded chunks, and
every record header is checked against the 15 bytes it must hold.

Graph share containers ("OGMG") hold one record pair per private vector, in
canonical schema order (per type, per vertex: its attribute values, then its
posting entries), bound to the public schema by its digest. Vertex ids are
public row positions and are not stored. File sizes depend only on the
public schema and padded lengths, never on the shared content.

Result containers ("OGMR") carry the public query structure, provenance and
assembly as JSON, then slot by slot one record pair per field of every
matched record (its ``id_width``-bit id code, then its attribute values),
and end with the SHA-256 of everything before it: a flipped bit in a code
share would otherwise open to another valid vertex.

Version 2 dropped the one-hot vertex ids of version 1 from both containers.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bits import mask_tail, words_for
from .engine import MatchResultSet, RecordTable
from .graphs import GraphSchema, GraphShare, TypePartyShare
from .rss import MatchTable

SHARE_MAGIC = b"OGMS"
GRAPH_MAGIC = b"OGMG"
RESULT_MAGIC = b"OGMR"
VERSION = 2

_SHARE_HEADER = struct.Struct("<4sHBQ")
_CONTAINER_HEADER = struct.Struct("<4sHB32s")
_CHECKSUM_BYTES = 32
_CHUNK_BYTES = 1 << 20  # bound on the records one gather or scatter moves
_HEADER_FIELDS = (("magic", 0, 4), ("version", 4, 6), ("party", 6, 7), ("width", 7, 15))


class StorageError(ValueError):
    """Corrupt or mismatched share/result files."""


def save_schema(path, schema: GraphSchema) -> None:
    Path(path).write_text(schema.to_json() + "\n")


def load_schema(path) -> GraphSchema:
    return GraphSchema.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# record pairs of a whole field
# ---------------------------------------------------------------------------


def _record_bytes(width: int) -> int:
    return _SHARE_HEADER.size + 4 * words_for(width)


def _pair_bytes(width: int) -> int:
    return 2 * _record_bytes(width)


def _pairs(buf: np.ndarray, offsets: np.ndarray, rows: np.ndarray, mats, width: int,
           party: int, load: bool) -> None:
    """Move row ``rows[i]`` of the two share matrices ``mats`` to or from the pair at ``offsets[i]``.

    Loading checks every record header for the magic, the version, ``party``
    and ``width``; the caller has checked that every record lies in ``buf``.
    """
    if not len(offsets):
        return
    head = np.frombuffer(_SHARE_HEADER.pack(SHARE_MAGIC, VERSION, party, width), np.uint8)
    hsize, size = len(head), _record_bytes(width)
    heads, words = (sliding_window_view(buf, n, writeable=not load) for n in (hsize, size - hsize))
    step = max(1, _CHUNK_BYTES // size)
    for lo in range(0, len(offsets), step):
        sel = rows[lo:lo + step]
        for comp, mat in enumerate(mats):
            at = offsets[lo:lo + step] + comp * size
            if not load:
                heads[at] = head
                words[at + hsize] = mask_tail(mat[sel], width).view(np.uint8)
                continue
            wrong = (heads[at] != head).any(axis=0)
            if wrong.any():
                names = [n for n, i, j in _HEADER_FIELDS if wrong[i:j].any()]
                raise StorageError(f"share record {'/'.join(names)} wrong: expected version "
                                   f"{VERSION}, party {party}, width {width}")
            mat[sel] = words[at + hsize].view(np.uint32)


def _check_size(buf, end: int, what: str) -> None:
    if len(buf) != end:
        raise StorageError(f"{'truncated' if len(buf) < end else 'trailing bytes in'} {what} file")


# ---------------------------------------------------------------------------
# encrypted graph share containers
# ---------------------------------------------------------------------------


def _graph_blocks(schema: GraphSchema):
    """Per (type, field) ``(vtype, kind, name, width, nrows, offsets, rows)``, and the file size.

    ``kind`` is "attr" or "posting", ``nrows`` the row count of the field's
    table, ``offsets`` the byte offset of each record pair and ``rows`` its
    row in the table.
    """
    pos = _CONTAINER_HEADER.size
    blocks = []
    for vtype in sorted(schema.types):
        ts = schema.types[vtype]
        x = ts.population
        # per field: its rows per vertex in the table, and the records of each vertex
        fields = [("attr", a, ts.attrs[a].domain_size, 1, np.ones(x, np.int64))
                  for a in sorted(ts.attrs)]
        fields += [("posting", t, schema.types[t].population, ts.max_padded(t),
                    np.asarray(ts.padded_len[t], np.int64))
                   for t in ts.posting_types]
        if not fields:
            continue
        # bytes of every vertex's run of each field, vertex by vertex
        runs = np.stack([counts * _pair_bytes(w) for _, _, w, _, counts in fields], axis=1)
        starts = pos + (np.cumsum(runs) - runs.reshape(-1)).reshape(runs.shape)
        pos += int(runs.sum())
        for f, (kind, name, width, per_vertex, counts) in enumerate(fields):
            vertex = np.repeat(np.arange(x), counts)
            slot = np.arange(len(vertex)) - np.repeat(np.cumsum(counts) - counts, counts)
            blocks.append((vtype, kind, name, width, x * per_vertex,
                           starts[vertex, f] + slot * _pair_bytes(width),
                           vertex * per_vertex + slot))
    return blocks, pos


def save_graph_share(path, gshare: GraphShare) -> None:
    blocks, size = _graph_blocks(gshare.schema)
    buf = np.zeros(size, np.uint8)
    buf[:_CONTAINER_HEADER.size] = np.frombuffer(_CONTAINER_HEADER.pack(
        GRAPH_MAGIC, VERSION, gshare.party_index, gshare.schema_digest), np.uint8)
    for vtype, kind, name, width, _, offsets, rows in blocks:
        tps = gshare.types[vtype]
        table = tps.attrs[name] if kind == "attr" else tps.posting[name]
        _pairs(buf, offsets, rows, (table.share_a, table.share_b), width, gshare.party_index,
               load=False)
    Path(path).write_bytes(buf)


def load_graph_share(path, schema: GraphSchema) -> GraphShare:
    buf = Path(path).read_bytes()
    if len(buf) < _CONTAINER_HEADER.size:
        raise StorageError("truncated graph share file")
    magic, version, party, digest = _CONTAINER_HEADER.unpack_from(buf, 0)
    if magic != GRAPH_MAGIC:
        raise StorageError("not a graph share file")
    if version != VERSION:
        raise StorageError(f"unsupported graph share version {version} (expected {VERSION})")
    expected = schema.digest()
    if digest != expected:
        raise StorageError("graph share does not match the schema sidecar")
    blocks, size = _graph_blocks(schema)
    _check_size(buf, size, "graph share")
    data = np.frombuffer(buf, np.uint8)
    types = {vtype: TypePartyShare({}, {}) for vtype in sorted(schema.types)}
    for vtype, kind, name, width, nrows, offsets, rows in blocks:
        pair = [np.zeros((nrows, words_for(width)), np.uint32) for _ in range(2)]
        _pairs(data, offsets, rows, pair, width, party, load=True)
        fields = types[vtype].attrs if kind == "attr" else types[vtype].posting
        fields[name] = MatchTable(party, width, *pair)
    return GraphShare(party, schema, types, expected)


# ---------------------------------------------------------------------------
# result share containers
# ---------------------------------------------------------------------------


def _result_blocks(structure: dict, schema: GraphSchema, counts: list[int], pos: int):
    """Per slot and field ``(slot, attr, width, offsets)``, ids as attr ``None``, and the end.

    A record's fields lie end to end, the records of a slot one after another.
    """
    blocks = []
    for s, slot in enumerate(structure["slots"]):
        ts = schema.types[slot["type"]]
        fields = [(None, ts.id_width)] + [(a, ts.attrs[a].domain_size)
                                         for a in sorted({p["attr"] for p in slot["preds"]})]
        at = pos + np.arange(counts[s], dtype=np.int64) * sum(_pair_bytes(w) for _, w in fields)
        for attr, width in fields:
            blocks.append((s, attr, width, at))
            at = at + _pair_bytes(width)
            pos += counts[s] * _pair_bytes(width)
    return blocks, pos


def save_results(path, results: MatchResultSet, schema: GraphSchema) -> None:
    slots = results.structure["slots"]
    parent_slot = {c: s for s, slot in enumerate(slots) for c in slot["children"]}
    manifest = {
        "structure": results.structure,
        "records": [
            [{"parent_slot": parent_slot.get(s), "parent_record": None if p < 0 else p}
             for p in table.parent_record.tolist()]
            for s, table in enumerate(results.records)
        ],
        "subgraphs": [list(sg) for sg in results.subgraphs],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    head = (_CONTAINER_HEADER.pack(RESULT_MAGIC, VERSION, results.party_index, schema.digest())
            + struct.pack("<I", len(blob)) + blob)
    blocks, size = _result_blocks(results.structure, schema,
                                  [t.rows for t in results.records], len(head))
    buf = np.zeros(size, np.uint8)
    buf[:len(head)] = np.frombuffer(head, np.uint8)
    for s, attr, width, offsets in blocks:
        table = results.records[s]
        field = table.ids if attr is None else table.attrs[attr]
        _pairs(buf, offsets, np.arange(len(offsets)), (field.share_a, field.share_b), width,
               results.party_index, load=False)
    Path(path).write_bytes(buf.tobytes() + hashlib.sha256(buf).digest())


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
        structure = manifest["structure"]
        parents = [np.array([-1 if m["parent_record"] is None else m["parent_record"]
                             for m in metas], np.int64) for metas in manifest["records"]]
        subgraphs = [tuple(sg) for sg in manifest["subgraphs"]]
        if len(parents) != len(structure["slots"]):
            raise ValueError(f"{len(parents)} record lists for {len(structure['slots'])} slots")
        blocks, end = _result_blocks(structure, schema, [len(p) for p in parents],
                                     pos + json_len)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise StorageError(f"corrupt result manifest: {exc!r}") from None
    _check_size(buf, end, "result")
    data = np.frombuffer(buf, np.uint8)
    fields: list[dict] = [{} for _ in parents]
    for s, attr, width, offsets in blocks:
        pair = [np.zeros((len(offsets), words_for(width)), np.uint32) for _ in range(2)]
        _pairs(data, offsets, np.arange(len(offsets)), pair, width, party, load=True)
        fields[s][attr] = MatchTable(party, width, *pair)
    return MatchResultSet(
        party_index=party,
        structure=structure,
        records=[RecordTable(f.pop(None), f, p) for f, p in zip(fields, parents)],
        subgraphs=subgraphs,
    )
