"""File formats: encrypted graph shares, query tokens and result shares.

All three containers are one header, one record per share table or key,
and the SHA-256 of everything before it::

    magic (4 bytes) | version u16 | party u8 | schema digest (32 bytes)
    [tokens and result files: manifest length u32 | manifest JSON]
    records, end to end
    SHA-256 (32 bytes)

A table's record is the party's ``share_a`` rows, then its ``share_b``
rows, as packed little-endian 32-bit words with the bits past the table's
width zero. A key's record is :func:`oblivgm.fss.serialize_key`'s. Records
carry no header: the place and size of every record follow from the public
schema (and the manifest), so a file's size depends only on public sizes,
never on the shared content. The checksum refuses any damaged byte, which
would otherwise load as another valid share or key and silently change the
matches. Files are hashed as they are written and read, in one pass.

Graph share containers ("OGMG") hold, type by type in schema order, each
attribute table (one row per vertex, attributes in sorted order), then each
posting table (in ``posting_types`` order) with only the rows inside each
vertex's padded length: the rows past it are public zeros and are not
stored. A posting row is one word, the neighbor type's ``id_width``-bit
code. Vertex ids are public row positions and are not stored.

Token containers ("OGMT") carry the public query structure as JSON, then
slot by slot, predicate by predicate, the party's two keys, each its trees'
records in order; the predicate's kind fixes a key's number of trees, and
its attribute's domain their depth, so together they fix each key's size.

Result containers ("OGMR") carry a JSON manifest of exactly two keys: the
public query structure and, per slot, its records' parent records (-1 at
the root). Then come, slot by slot, the table of the matched records'
``id_width``-bit id codes and their attribute tables, one ``code_width``-bit
value code a row. Subgraphs are not stored: the client assembles them from
the parent records. A manifest with other keys, such as an earlier version 3
layout's subgraph list, is refused.

Each container kind has its own version, and older versions are refused.
Graph shares are at version 4, whose posting rows are id codes instead of
version 3's one-hot rows over the neighbor population. Result files are at
version 4, whose attribute rows are value codes instead of version 3's
one-hot rows over the dictionary. Tokens are at version 3. Version 3 of
tokens and result files replaced version 2's one headered record per row
with one record per table, added the graph share checksum, and dropped the
tags and length prefixes of token keys; version 2 had dropped the one-hot
vertex ids of version 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from . import fss
from .bits import mask_tail, words_for
from .engine import MatchResultSet, RecordTable
from .graphs import GraphSchema, GraphShare, TypePartyShare
from .query import PartyToken, check_structure, slot_attrs
from .rss import PARTIES, MatchTable

GRAPH_MAGIC = b"OGMG"
TOKEN_MAGIC = b"OGMT"
RESULT_MAGIC = b"OGMR"
VERSIONS = {GRAPH_MAGIC: 4, TOKEN_MAGIC: 3, RESULT_MAGIC: 4}

_CONTAINER_HEADER = struct.Struct("<4sHB32s")
_MANIFEST_LEN = struct.Struct("<I")
_CHECKSUM_BYTES = 32


class StorageError(ValueError):
    """Corrupt or mismatched share/result files."""


def save_schema(path, schema: GraphSchema) -> None:
    Path(path).write_text(schema.to_json() + "\n")


def load_schema(path) -> GraphSchema:
    try:
        return GraphSchema.from_json(Path(path).read_text())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise StorageError(f"{path} is not a graph schema: {exc!r}") from None


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

    def write_header(self, magic: bytes, party: int, schema_digest: bytes) -> None:
        self.write(_CONTAINER_HEADER.pack(magic, VERSIONS[magic], party, schema_digest))

    def write_manifest(self, doc) -> None:
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        self.write(_MANIFEST_LEN.pack(len(blob)) + blob)

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
        if n > self.left:  # before allocating: a damaged length may claim gigabytes
            raise StorageError(f"truncated {self.what}")
        return self.read_into(bytearray(n))

    def read_header(self, magic: bytes, schema_digest: bytes) -> int:
        """Read and check the container header; returns the party index."""
        got, version, party, digest = _CONTAINER_HEADER.unpack(
            self.read(_CONTAINER_HEADER.size))
        if got != magic:
            raise StorageError(f"not a {self.what}")
        if version != VERSIONS[magic]:
            raise StorageError(f"unsupported {self.what} version {version} "
                               f"(expected {VERSIONS[magic]})")
        if party not in PARTIES:
            raise StorageError(f"{self.what} of party {party}, not one of {PARTIES}")
        if digest != schema_digest:
            raise StorageError(f"{self.what} does not match the schema sidecar")
        return party

    def read_manifest(self):
        (n,) = _MANIFEST_LEN.unpack(self.read(_MANIFEST_LEN.size))
        try:
            return json.loads(self.read(n).decode())
        except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or nested too deep
            raise StorageError(f"corrupt {self.what} manifest: {exc}") from None

    def expect(self, n: int) -> None:
        """Refuse a file whose bytes left before the checksum are not ``n``."""
        if self.left != n:
            cause = "truncated" if self.left < n else "trailing bytes in"
            raise StorageError(f"{cause} {self.what}")

    def verify(self) -> None:
        if self.file.read(_CHECKSUM_BYTES) != self.sha.digest():
            raise StorageError(f"{self.what} fails its SHA-256 check (corrupted)")


def _tables_bytes(tables) -> int:
    """Bytes of ``tables``' records; each table is a tuple ending in ``width, keep``."""
    return sum(2 * 4 * words_for(width) * int(keep.sum()) for *_, width, keep in tables)


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
            yield vtype, "posting", t, schema.types[t].id_width, keep


def save_graph_share(path, gshare: GraphShare) -> None:
    with open(path, "wb") as f:
        out = _Container(f, "graph share")
        out.write_header(GRAPH_MAGIC, gshare.party_index, gshare.schema.digest())
        for vtype, kind, name, _, keep in _graph_tables(gshare.schema):
            _write_table(out, getattr(gshare.types[vtype], kind)[name], keep)
        out.seal()


def load_graph_share(path, schema: GraphSchema) -> GraphShare:
    with open(path, "rb") as f:
        src = _Container(f, "graph share")
        party = src.read_header(GRAPH_MAGIC, schema.digest())
        tables = list(_graph_tables(schema))
        src.expect(_tables_bytes(tables))
        types = {vtype: TypePartyShare({}, {}) for vtype in sorted(schema.types)}
        for vtype, kind, name, width, keep in tables:
            getattr(types[vtype], kind)[name] = _read_table(src, party, width, keep)
        src.verify()
    return GraphShare(party, schema, types)


# ---------------------------------------------------------------------------
# result share containers
# ---------------------------------------------------------------------------


def _result_tables(structure: dict, schema: GraphSchema, counts: list[int]):
    """Every table of a result file in file order: ``(slot, attr, width, keep)``.

    A slot's id codes come first, as attr ``None``, then its attributes' value codes.
    """
    for s, slot in enumerate(structure["slots"]):
        ts = schema.types[slot["type"]]
        keep = np.ones(counts[s], bool)
        yield s, None, ts.id_width, keep
        for a in slot_attrs(slot):
            yield s, a, ts.attrs[a].code_width, keep


def save_results(path, results: MatchResultSet, schema: GraphSchema) -> None:
    manifest = {"structure": results.structure,
                "parent_records": [t.parent_record.tolist() for t in results.records]}
    with open(path, "wb") as f:
        out = _Container(f, "result file")
        out.write_header(RESULT_MAGIC, results.party_index, schema.digest())
        out.write_manifest(manifest)
        for s, attr, _, keep in _result_tables(results.structure, schema,
                                               [t.rows for t in results.records]):
            table = results.records[s]
            _write_table(out, table.ids if attr is None else table.attrs[attr], keep)
        out.seal()


def _provenance(slots, lists) -> list[np.ndarray]:
    """Each slot's ``parent_record`` array, from a manifest's parent record lists.

    The root's records have no parent record, -1; every other slot's point
    into its parent slot's records, in non-decreasing order.
    """
    if len(lists) != len(slots):
        raise ValueError(f"{len(lists)} parent record lists for {len(slots)} slots")
    parent_slot = {c: s for s, slot in enumerate(slots) for c in slot["children"]}
    for s, got in enumerate(lists):
        lo, hi = (-1, 0) if s == 0 else (0, len(lists[parent_slot[s]]))
        if not (type(got) is list and all(type(p) is int and lo <= p < hi for p in got)
                and got == sorted(got)):
            raise ValueError(f"slot {s}'s parent records point outside its parent slot's")
    return [np.array(got, np.int64) for got in lists]


def load_results(path, schema: GraphSchema) -> MatchResultSet:
    with open(path, "rb") as f:
        src = _Container(f, "result file")
        party = src.read_header(RESULT_MAGIC, schema.digest())
        manifest = src.read_manifest()
        try:
            if set(manifest) != {"structure", "parent_records"}:
                raise ValueError("keys are not exactly 'structure' and 'parent_records'")
            structure = manifest["structure"]
            check_structure(structure, schema)
            parents = _provenance(structure["slots"], manifest["parent_records"])
            tables = list(_result_tables(structure, schema, [len(p) for p in parents]))
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageError(f"corrupt result manifest: {exc!r}") from None
        src.expect(_tables_bytes(tables))
        fields: list[dict] = [{} for _ in parents]
        for s, attr, width, keep in tables:
            fields[s][attr] = _read_table(src, party, width, keep)
        src.verify()
    return MatchResultSet(party, structure,
                          [RecordTable(f.pop(None), f, p) for f, p in zip(fields, parents)])


# ---------------------------------------------------------------------------
# token containers
# ---------------------------------------------------------------------------


def _token_keys(structure: dict, schema: GraphSchema):
    """Every key of a token in file order: ``(kind, domain_bits)``, two per predicate."""
    for slot in structure["slots"]:
        attrs = schema.types[slot["type"]].attrs
        for pred in slot["preds"]:
            yield from [(pred["kind"], fss.domain_bits_for(attrs[pred["attr"]].domain_size))] * 2


def save_token(path, token: PartyToken) -> None:
    with open(path, "wb") as f:
        out = _Container(f, "token")
        out.write_header(TOKEN_MAGIC, token.party_index, token.schema_digest)
        out.write_manifest(token.structure)
        for pairs in token.slot_keys:
            for pair in pairs:
                for key in pair:
                    out.write(fss.serialize_key(key))
        out.seal()


def load_token(path, schema: GraphSchema, expected_party: int) -> PartyToken:
    """Read party ``expected_party``'s token for ``schema``; no key is parsed before its hash holds."""
    with open(path, "rb") as f:
        src = _Container(f, "token")
        digest = schema.digest()
        party = src.read_header(TOKEN_MAGIC, digest)
        if party != expected_party:
            raise StorageError(f"token of party {party}, not of party {expected_party}")
        structure = src.read_manifest()
        try:
            check_structure(structure, schema)
            keys = list(_token_keys(structure, schema))
        except ValueError as exc:  # a QueryFormatError, or the DomainError of an empty dictionary
            raise StorageError(f"corrupt token manifest: {exc}") from None
        src.expect(sum(fss.key_bytes(kind, bits) for kind, bits in keys))
        blobs = [src.read(fss.key_bytes(kind, bits)) for kind, bits in keys]
        src.verify()
    parsed = iter([fss.parse_key(kind, bits, blob) for (kind, bits), blob in zip(keys, blobs)])
    slot_keys = [[(next(parsed), next(parsed)) for _ in slot["preds"]]
                 for slot in structure["slots"]]
    return PartyToken(party, digest, structure, slot_keys)
