"""Rooted-tree queries and secure token generation.

Query text format, one record per line::

    Q  <name> <type> <attr> <op> <operand...>   # target vertex / extra predicate
    QC <name> ALL|ANY                           # predicate combiner (default ALL)
    QS <name>                                   # start vertex (default: first Q line)
    QE <parent> <child>                         # tree edge

Operators are ``=``, ``<``, ``<=``, ``>``, ``>=`` and ``in <lo> <hi>`` (closed
range). Range operators require an ordinal attribute; their operands live in
value space here and are mapped to dictionary-index space when the query is
resolved against a schema. A range that covers no dictionary value resolves
to a well-formed predicate that can never match, so it hides exactly as much
as a satisfiable one.

A token splits each predicate's three FSS key pairs across the parties so
that every share of an attribute vector gets evaluated under both keys of
one pair. The public token structure (types, attribute names, predicate
kinds, tree shape) is identical across the three parties; only key bytes
differ.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import fss
from .graphs import AttrSchema, GraphSchema

TOKEN_MAGIC = b"OGMT"
TOKEN_VERSION = 1

_OPS = {"=": fss.KIND_EQ, "<": fss.KIND_LT, "<=": fss.KIND_LE,
        ">": fss.KIND_GT, ">=": fss.KIND_GE, "in": fss.KIND_INTERVAL}

COMBINERS = ("ALL", "ANY")


class QueryFormatError(ValueError):
    """Malformed query text or schema mismatch."""


@dataclass(frozen=True)
class PredicateSpec:
    """A single private predicate in dictionary-index space."""

    attr: str
    kind: str
    operands: tuple[int, ...]
    closed: tuple[bool, bool] = (True, True)  # interval variants only


@dataclass
class TargetVertex:
    name: str
    vtype: str
    predicates: list[PredicateSpec]
    combiner: str = "ALL"


@dataclass
class QueryGraph:
    """Slot-ordered (BFS from the start vertex) rooted tree."""

    vertices: list[TargetVertex]
    children: list[list[int]]
    parent: list[int | None]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass
class _RawVertex:
    name: str
    vtype: str
    predicates: list[tuple[str, str, tuple[str, ...]]]  # (attr, op, operands)
    combiner: str = "ALL"


def parse_query_text(text: str):
    """Parse query text into raw (value-space) form; schema-independent."""
    verts: dict[str, _RawVertex] = {}
    order: list[str] = []
    edges: list[tuple[str, str]] = []
    start: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "Q":
                if len(parts) < 6:
                    raise QueryFormatError("target line needs name, type, attr, op, operand")
                name, vtype, attr, op = parts[1:5]
                operands = tuple(parts[5:])
                if op not in _OPS:
                    raise QueryFormatError(f"unknown operator {op!r}")
                if op == "in" and len(operands) != 2:
                    raise QueryFormatError("'in' takes exactly two operands")
                if op != "in" and len(operands) != 1:
                    raise QueryFormatError(f"operator {op!r} takes one operand")
                if name in verts:
                    if verts[name].vtype != vtype:
                        raise QueryFormatError(f"vertex {name!r} re-declared with a different type")
                else:
                    verts[name] = _RawVertex(name, vtype, [])
                    order.append(name)
                verts[name].predicates.append((attr, op, operands))
            elif parts[0] == "QC":
                if len(parts) != 3 or parts[2] not in COMBINERS:
                    raise QueryFormatError("combiner line is 'QC <name> ALL|ANY'")
                if parts[1] not in verts:
                    raise QueryFormatError(f"unknown vertex {parts[1]!r}")
                verts[parts[1]].combiner = parts[2]
            elif parts[0] == "QS":
                if len(parts) != 2:
                    raise QueryFormatError("start line is 'QS <name>'")
                start = parts[1]
            elif parts[0] == "QE":
                if len(parts) != 3:
                    raise QueryFormatError("edge line is 'QE <parent> <child>'")
                edges.append((parts[1], parts[2]))
            else:
                raise QueryFormatError(f"unknown record {parts[0]!r}")
        except QueryFormatError as exc:
            raise QueryFormatError(f"line {lineno}: {exc}") from None
    if not verts:
        raise QueryFormatError("query has no target vertices")
    if start is None:
        start = order[0]
    if start not in verts:
        raise QueryFormatError(f"start vertex {start!r} not declared")
    return verts, order, edges, start


def _map_comparison(op: str, operand: str, attr: AttrSchema):
    """Translate a value-space comparison to an index-space predicate kind."""
    try:
        bound = float(operand)
    except ValueError:
        raise QueryFormatError(f"range operand {operand!r} is not numeric") from None
    nums = [float(v) for v in attr.values]
    n = len(nums)
    if op == "<":
        idx = bisect_left(nums, bound)
        return (fss.KIND_LE, n - 1) if idx == n else (fss.KIND_LT, idx)
    if op == "<=":
        count = bisect_right(nums, bound)
        return (fss.KIND_LT, 0) if count == 0 else (fss.KIND_LE, count - 1)
    if op == ">=":
        idx = bisect_left(nums, bound)
        return (fss.KIND_LT, 0) if idx == n else (fss.KIND_GE, idx)
    # op == ">"
    idx = bisect_right(nums, bound)
    return (fss.KIND_LT, 0) if idx == n else (fss.KIND_GE, idx)


def resolve_query(raw, schema: GraphSchema) -> QueryGraph:
    """Validate raw query against the schema and map operands to index space."""
    verts, order, edges, start = raw
    resolved: dict[str, TargetVertex] = {}
    for name in order:
        rv = verts[name]
        if rv.vtype not in schema.types:
            raise QueryFormatError(f"unknown vertex type {rv.vtype!r}")
        ts = schema.types[rv.vtype]
        preds = []
        for attr_name, op, operands in rv.predicates:
            if attr_name not in ts.attrs:
                raise QueryFormatError(
                    f"type {rv.vtype!r} has no attribute {attr_name!r}"
                )
            attr = ts.attrs[attr_name]
            kind = _OPS[op]
            if kind == fss.KIND_EQ:
                if operands[0] not in attr.index_of:
                    raise QueryFormatError(
                        f"value {operands[0]!r} not in the {attr_name!r} dictionary"
                    )
                preds.append(PredicateSpec(attr_name, kind, (attr.index_of[operands[0]],)))
                continue
            if not attr.ordinal:
                raise QueryFormatError(
                    f"attribute {attr_name!r} is not ordinal; only '=' applies"
                )
            if kind == fss.KIND_INTERVAL:
                lo_b, hi_b = (float(x) for x in operands)
                nums = [float(v) for v in attr.values]
                lo = bisect_left(nums, lo_b)
                hi = bisect_right(nums, hi_b) - 1
                if lo > hi:
                    # no dictionary value inside the range: an empty open interval
                    preds.append(PredicateSpec(attr_name, kind, (0, 0), (False, False)))
                else:
                    preds.append(PredicateSpec(attr_name, kind, (lo, hi)))
                continue
            mapped_kind, operand = _map_comparison(op, operands[0], attr)
            preds.append(PredicateSpec(attr_name, mapped_kind, (operand,)))
        if not preds:
            raise QueryFormatError(f"vertex {name!r} has no predicates")
        resolved[name] = TargetVertex(name, rv.vtype, preds, rv.combiner)

    children_by_name: dict[str, list[str]] = {n: [] for n in order}
    parent_by_name: dict[str, str] = {}
    for p, c in edges:
        if p not in resolved or c not in resolved:
            raise QueryFormatError(f"edge ({p!r}, {c!r}) references unknown vertex")
        if c in parent_by_name:
            raise QueryFormatError(f"vertex {c!r} has two parents; queries are trees")
        if c == start:
            raise QueryFormatError("start vertex cannot have a parent")
        parent_by_name[c] = p
        children_by_name[p].append(c)

    # BFS slot order from the start vertex
    slots: list[str] = [start]
    seen = {start}
    cursor = 0
    while cursor < len(slots):
        for c in children_by_name[slots[cursor]]:
            if c in seen:
                raise QueryFormatError("query structure has a cycle")
            seen.add(c)
            slots.append(c)
        cursor += 1
    if len(slots) != len(order):
        missing = sorted(set(order) - seen)
        raise QueryFormatError(f"vertices {missing} are not reachable from the start")

    slot_of = {n: i for i, n in enumerate(slots)}
    vertices = [resolved[n] for n in slots]
    children = [[slot_of[c] for c in children_by_name[n]] for n in slots]
    parent = [slot_of[parent_by_name[n]] if n in parent_by_name else None for n in slots]

    # every child hop must have a posting list of the child's type
    for s, kids in enumerate(children):
        ts = schema.types[vertices[s].vtype]
        for c in kids:
            if vertices[c].vtype not in ts.posting_types:
                raise QueryFormatError(
                    f"no {vertices[s].vtype!r}-{vertices[c].vtype!r} edges exist in the graph schema"
                )
    return QueryGraph(vertices, children, parent)


def load_query(text: str, schema: GraphSchema) -> QueryGraph:
    return resolve_query(parse_query_text(text), schema)


# ---------------------------------------------------------------------------
# token generation
# ---------------------------------------------------------------------------


@dataclass
class PartyToken:
    party_index: int
    schema_digest: bytes
    structure: dict
    slot_keys: list[list[tuple[fss.FssKey, fss.FssKey]]] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.structure["slots"])


def query_structure(query: QueryGraph) -> dict:
    return {
        "slots": [
            {
                "name": v.name,
                "type": v.vtype,
                "combiner": v.combiner,
                "preds": [{"attr": p.attr, "kind": p.kind} for p in v.predicates],
                "children": query.children[i],
            }
            for i, v in enumerate(query.vertices)
        ],
    }


def gen_token(query: QueryGraph, schema: GraphSchema, rng: np.random.Generator):
    """Generate the three party tokens for a resolved query.

    Per predicate, three independent key pairs (k1^j, k2^j) are split as
    party 1: (k1^1, k1^2), party 2: (k2^2, k1^3), party 3: (k2^3, k2^1); the
    first key of a party applies to its first attribute share, the second to
    its second.
    """
    structure = query_structure(query)
    digest = schema.digest()
    per_party: list[list[list[tuple]]] = [[], [], []]
    for v in query.vertices:
        ts = schema.types[v.vtype]
        slot_lists: list[list[tuple]] = [[], [], []]
        for pred in v.predicates:
            attr = ts.attrs[pred.attr]
            n = attr.domain_size
            for opnd in pred.operands:
                if not 0 <= opnd < n:
                    raise QueryFormatError(
                        f"operand {opnd} outside the {pred.attr!r} dictionary domain"
                    )
            (k11, k21), (k12, k22), (k13, k23) = (
                fss.key_pair_gen(pred.kind, pred.operands, n, rng, pred.closed) for _ in range(3))
            slot_lists[0].append((k11, k12))
            slot_lists[1].append((k22, k13))
            slot_lists[2].append((k23, k21))
        for p in range(3):
            per_party[p].append(slot_lists[p])
    return tuple(
        PartyToken(p + 1, digest, structure, per_party[p]) for p in range(3)
    )


def serialize_token(token: PartyToken) -> bytes:
    public = json.dumps(token.structure, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray()
    out += TOKEN_MAGIC
    out += struct.pack("<HB", TOKEN_VERSION, token.party_index)
    out += token.schema_digest
    out += struct.pack("<I", len(public))
    out += public
    for slot in token.slot_keys:
        for key_first, key_second in slot:
            for key in (key_first, key_second):
                blob = fss.serialize_key(key)
                out += struct.pack("<I", len(blob))
                out += blob
    return bytes(out)


_SLOT_FIELDS = {"name", "type", "combiner", "preds", "children"}


def _check_structure(structure) -> None:
    """Refuse a token structure that :func:`query_structure` cannot have written."""
    if not (isinstance(structure, dict) and set(structure) == {"slots"}
            and isinstance(structure["slots"], list) and structure["slots"]):
        raise QueryFormatError("token structure has no slot list")
    slots = structure["slots"]
    for s, slot in enumerate(slots):
        if not (isinstance(slot, dict) and set(slot) == _SLOT_FIELDS
                and isinstance(slot["name"], str) and isinstance(slot["type"], str)
                and slot["combiner"] in COMBINERS
                and isinstance(slot["children"], list)
                and all(type(c) is int for c in slot["children"])
                and isinstance(slot["preds"], list) and slot["preds"]
                and all(isinstance(p, dict) and set(p) == {"attr", "kind"}
                        and isinstance(p["attr"], str) and p["kind"] in fss.PREDICATE_KINDS
                        for p in slot["preds"])):
            raise QueryFormatError(f"malformed token slot {s}")
    # slots are numbered breadth-first, so the child lists in slot order count 1, 2, ...
    if [c for slot in slots for c in slot["children"]] != list(range(1, len(slots))):
        raise QueryFormatError("token slots do not form a breadth-first tree")


def parse_token(buf: bytes, expected_party: int | None = None) -> PartyToken:
    """Read a token file; any damage that leaves it unreadable raises :class:`QueryFormatError`."""
    if buf[:4] != TOKEN_MAGIC:
        raise QueryFormatError("not a token file")
    pos = 4 + 3 + 32  # magic, version and party, schema digest
    if len(buf) < pos + 4:
        raise QueryFormatError("truncated token")
    version, party = struct.unpack_from("<HB", buf, 4)
    if version != TOKEN_VERSION:
        raise QueryFormatError(f"unsupported token version {version}")
    if party not in (1, 2, 3) or expected_party not in (None, party):
        raise QueryFormatError(f"token belongs to party {party}, not {expected_party or '1-3'}")
    digest = bytes(buf[7:pos])
    (json_len,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    try:
        structure = json.loads(buf[pos:pos + json_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise QueryFormatError(f"corrupt token structure: {exc}") from None
    _check_structure(structure)
    pos += json_len
    slot_keys = []
    for slot in structure["slots"]:
        keys = []
        for _pred in slot["preds"]:
            pair = []
            for _ in range(2):
                if pos + 4 > len(buf):
                    raise QueryFormatError("truncated token")
                (blob_len,) = struct.unpack_from("<I", buf, pos)
                pos += 4
                blob = buf[pos:pos + blob_len]
                if len(blob) != blob_len:
                    raise QueryFormatError("truncated token")
                try:
                    pair.append(fss.parse_key(bytes(blob)))
                except (ValueError, struct.error) as exc:
                    raise QueryFormatError(f"corrupt token key: {exc}") from None
                pos += blob_len
            keys.append((pair[0], pair[1]))
        slot_keys.append(keys)
    if pos != len(buf):
        raise QueryFormatError("trailing bytes after token")
    return PartyToken(party, digest, structure, slot_keys)
