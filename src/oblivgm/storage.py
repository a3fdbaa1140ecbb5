"""File formats: encrypted graph shares and result shares.

Both containers are one header, one record per share table, and the
SHA-256 of everything before it::

    magic (4 bytes) | version u16 | party u8 | schema digest (32 bytes)
    [result files only: manifest length u32 | manifest JSON]
    table records, end to end
    SHA-256 (32 bytes)

A table's record is the party's ``share_a`` rows, then its ``share_b``
rows, as packed little-endian 32-bit words with the bits past the table's
width zero. Records carry no header: the place and size of every table
follow from the public schema (and, in a result file, the manifest), so a
file's size depends only on public sizes, never on the shared content. The
checksum refuses any damaged byte, which would otherwise load as another
valid share and silently change the matches. Files are hashed as they are
written and read, in one pass.

Graph share containers ("OGMG") hold, type by type in schema order, each
attribute table (one row per vertex, attributes in sorted order), then each
posting table (in ``posting_types`` order) with only the rows inside each
vertex's padded length: the rows past it are public zeros and are not
stored. Vertex ids are public row positions and are not stored.

Result containers ("OGMR") carry the public query structure, provenance and
assembly as JSON, then slot by slot the table of the matched records'
``id_width``-bit id codes and their attribute tables.

Version 3 replaced version 2's one headered record per row with one record
per table, and added the graph share checksum; version 2 had dropped the
one-hot vertex ids of version 1. Older versions are refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .bits import mask_tail, words_for
from .engine import MatchResultSet, RecordTable
from .graphs import GraphSchema, GraphShare, TypePartyShare
from .rss import PARTIES, MatchTable

GRAPH_MAGIC = b"OGMG"
RESULT_MAGIC = b"OGMR"
VERSION = 3

_CONTAINER_HEADER = struct.Struct("<4sHB32s")
_MANIFEST_LEN = struct.Struct("<I")
_CHECKSUM_BYTES = 32


class StorageError(ValueError):
    """Corrupt or mismatched share/result files."""


def save_schema(path, schema: GraphSchema) -> None:
    Path(path).write_text(schema.to_json() + "\n")


def load_schema(path) -> GraphSchema:
    return GraphSchema.from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# checksummed containers of table records
# ---------------------------------------------------------------------------


class _Container:
    """A container file written or read front to back, hashing every byte on the way."""

    def __init__(self, file, what: str):
        self.file, self.what, self.sha = file, what, hashlib.sha256()
        # bytes left to read before the checksum
        self.left = os.fstat(file.fileno()).st_size - _CHECKSUM_BYTES

    def write(self, data) -> None:
        self.sha.update(data)
        self.file.write(data)

    def seal(self) -> None:
        self.file.write(self.sha.digest())

    def read_into(self, buf):
        n = memoryview(buf).nbytes
        if n > self.left or self.file.readinto(buf) != n:
            raise StorageError(f"truncated {self.what}")
        self.left -= n
        self.sha.update(buf)
        return buf

    def read(self, n: int) -> bytearray:
        return self.read_into(bytearray(n))

    def expect(self, tables: list[tuple]) -> None:
        """Refuse a file whose bytes before the checksum do not hold ``tables`` exactly.

        Each table is a tuple ending in its ``width`` and the ``keep`` mask
        of its stored rows, as the field-order generators yield them.
        """
        n = sum(2 * 4 * words_for(width) * int(keep.sum()) for *_, width, keep in tables)
        if self.left != n:
            cause = "truncated" if self.left < n else "trailing bytes in"
            raise StorageError(f"{cause} {self.what}")

    def verify(self) -> None:
        if self.file.read(_CHECKSUM_BYTES) != self.sha.digest():
            raise StorageError(f"{self.what} fails its SHA-256 check (corrupted)")

    def header(self, magic: bytes, schema_digest: bytes) -> int:
        """Read and check the container header; returns the party index."""
        got, version, party, digest = _CONTAINER_HEADER.unpack(
            self.read(_CONTAINER_HEADER.size))
        if got != magic:
            raise StorageError(f"not a {self.what}")
        if version != VERSION:
            raise StorageError(f"unsupported {self.what} version {version} "
                               f"(expected {VERSION})")
        if party not in PARTIES:
            raise StorageError(f"{self.what} of party {party}, not one of {PARTIES}")
        if digest != schema_digest:
            raise StorageError(f"{self.what} does not match the schema sidecar")
        return party


def _write_table(out: _Container, table: MatchTable, keep: np.ndarray) -> None:
    """Write the ``keep`` rows of ``table``: ``share_a``'s, then ``share_b``'s."""
    for comp in (table.share_a, table.share_b):
        out.write(mask_tail(comp[keep], table.width))  # the boolean index copies


def _read_table(src: _Container, party: int, width: int, keep: np.ndarray) -> MatchTable:
    """Read a table written by :func:`_write_table`; rows not kept are zero."""
    pair = []
    for _ in range(2):
        rows = src.read_into(np.empty((int(keep.sum()), words_for(width)), np.uint32))
        if len(rows) < len(keep):
            rows, kept = np.zeros((len(keep), rows.shape[1]), np.uint32), rows
            rows[keep] = kept
        pair.append(rows)
    return MatchTable(party, width, *pair)


# ---------------------------------------------------------------------------
# encrypted graph share containers
# ---------------------------------------------------------------------------


def _graph_tables(schema: GraphSchema):
    """Every table of a graph share in file order: ``(vtype, kind, name, width, keep)``.

    ``kind`` is "attrs" or "posting", the :class:`TypePartyShare` field;
    ``keep`` marks the table rows the file stores.
    """
    for vtype in sorted(schema.types):
        ts = schema.types[vtype]
        for a in sorted(ts.attrs):
            yield vtype, "attrs", a, ts.attrs[a].domain_size, np.ones(ts.population, bool)
        for t in ts.posting_types:
            padded = np.asarray(ts.padded_len[t], np.int64)
            keep = (np.arange(ts.max_padded(t)) < padded[:, None]).reshape(-1)
            yield vtype, "posting", t, schema.types[t].population, keep


def save_graph_share(path, gshare: GraphShare) -> None:
    with open(path, "wb") as f:
        out = _Container(f, "graph share")
        out.write(_CONTAINER_HEADER.pack(GRAPH_MAGIC, VERSION, gshare.party_index,
                                         gshare.schema_digest))
        for vtype, kind, name, _, keep in _graph_tables(gshare.schema):
            _write_table(out, getattr(gshare.types[vtype], kind)[name], keep)
        out.seal()


def load_graph_share(path, schema: GraphSchema) -> GraphShare:
    with open(path, "rb") as f:
        src = _Container(f, "graph share")
        digest = schema.digest()
        party = src.header(GRAPH_MAGIC, digest)
        tables = list(_graph_tables(schema))
        src.expect(tables)
        types = {vtype: TypePartyShare({}, {}) for vtype in sorted(schema.types)}
        for vtype, kind, name, width, keep in tables:
            getattr(types[vtype], kind)[name] = _read_table(src, party, width, keep)
        src.verify()
    return GraphShare(party, schema, types, digest)


# ---------------------------------------------------------------------------
# result share containers
# ---------------------------------------------------------------------------


def _result_tables(structure: dict, schema: GraphSchema, counts: list[int]):
    """Every table of a result file in file order: ``(slot, attr, width, keep)``.

    A slot's id codes come first, as attr ``None``, then its attributes.
    """
    for s, slot in enumerate(structure["slots"]):
        ts = schema.types[slot["type"]]
        keep = np.ones(counts[s], bool)
        yield s, None, ts.id_width, keep
        for a in sorted({p["attr"] for p in slot["preds"]}):
            yield s, a, ts.attrs[a].domain_size, keep


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
    with open(path, "wb") as f:
        out = _Container(f, "result file")
        out.write(_CONTAINER_HEADER.pack(RESULT_MAGIC, VERSION, results.party_index,
                                         schema.digest()))
        out.write(_MANIFEST_LEN.pack(len(blob)) + blob)
        for s, attr, _, keep in _result_tables(results.structure, schema,
                                               [t.rows for t in results.records]):
            table = results.records[s]
            _write_table(out, table.ids if attr is None else table.attrs[attr], keep)
        out.seal()


def load_results(path, schema: GraphSchema) -> MatchResultSet:
    with open(path, "rb") as f:
        src = _Container(f, "result file")
        party = src.header(RESULT_MAGIC, schema.digest())
        (json_len,) = _MANIFEST_LEN.unpack(src.read(_MANIFEST_LEN.size))
        blob = src.read(json_len)
        try:
            manifest = json.loads(blob.decode())
            structure = manifest["structure"]
            parents = [np.array([-1 if m["parent_record"] is None else m["parent_record"]
                                 for m in metas], np.int64) for metas in manifest["records"]]
            subgraphs = [tuple(sg) for sg in manifest["subgraphs"]]
            if len(parents) != len(structure["slots"]):
                raise ValueError(f"{len(parents)} record lists for {len(structure['slots'])} slots")
            tables = list(_result_tables(structure, schema, [len(p) for p in parents]))
        except (UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError) as exc:
            raise StorageError(f"corrupt result manifest: {exc!r}") from None
        src.expect(tables)
        fields: list[dict] = [{} for _ in parents]
        for s, attr, width, keep in tables:
            fields[s][attr] = _read_table(src, party, width, keep)
        src.verify()
    return MatchResultSet(
        party_index=party,
        structure=structure,
        records=[RecordTable(f.pop(None), f, p) for f, p in zip(fields, parents)],
        subgraphs=subgraphs,
    )
