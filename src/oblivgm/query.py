"""Rooted-tree queries and secure token generation.

Query text format, one record per line::

    Q  <name> <type> <attr> <op> <operand...>   # target vertex / extra predicate
    QC <name> ALL|ANY                           # predicate combiner (default ALL)
    QS <name>                                   # start vertex (default: first Q line)
    QE <parent> <child>                         # tree edge

Operators are ``=``, ``<``, ``<=``, ``>``, ``>=`` and ``in <lo> <hi>`` (``lo <=
v <= hi``). ``QC`` sets how a vertex's predicates combine: ``ALL`` is their
AND, ``ANY`` their inclusive OR. Range operators require an ordinal
attribute and numeric operands (``inf`` is one, ``nan`` is not); the
operands live in value space here and are mapped to dictionary-index space
when the query is resolved against a schema. A range ``in <lo> <hi>``
becomes the index interval ``[i, j]`` of the dictionary values inside it; an
empty or reversed range, which holds no value, becomes the empty interval
``[i, i - 1]``. It is a well-formed predicate that can never match, so it
hides exactly as much as a satisfiable one.

A token splits each predicate's three FSS key pairs across the parties so
that every share of an attribute vector gets evaluated under both keys of
one pair. The public token structure (types, attribute names, predicate
kinds, tree shape) is identical across the three parties; only key bytes
differ. The structure and the schema fix every key's kind and depth, which
is how :mod:`oblivgm.storage` sizes a token file's key records.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import fss
from .graphs import AttrSchema, GraphSchema

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


def _range_bound(operand: str) -> float:
    """A range operator's operand as a number; NaN is refused, as no value is above or below it."""
    try:
        bound = float(operand)
    except ValueError:
        bound = math.nan
    if math.isnan(bound):
        raise QueryFormatError(f"range operand {operand!r} is not numeric")
    return bound


def _map_comparison(op: str, operand: str, attr: AttrSchema):
    """Translate a value-space comparison to an index-space predicate kind."""
    bound = _range_bound(operand)
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
                lo_b, hi_b = (_range_bound(x) for x in operands)
                nums = [float(v) for v in attr.values]
                lo = bisect_left(nums, lo_b)
                hi = bisect_right(nums, hi_b) - 1
                preds.append(PredicateSpec(attr_name, kind, (lo, max(hi, lo - 1))))
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


def slot_attrs(slot: dict) -> list[str]:
    """The attributes a slot's predicates read, in the order of a record's attribute tables."""
    return sorted({p["attr"] for p in slot["preds"]})


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
    its second. Every key comes from one :func:`oblivgm.fss.key_pairs_gen`
    call, which descends all the query's trees of one depth together.
    """
    preds = []
    for v in query.vertices:
        ts = schema.types[v.vtype]
        for pred in v.predicates:
            preds += [(pred.kind, pred.operands, ts.attrs[pred.attr].domain_size)] * 3
    pairs = iter(fss.key_pairs_gen(preds, rng))
    per_party: list[list[list[tuple]]] = [[], [], []]
    for v in query.vertices:
        slot_lists: list[list[tuple]] = [[], [], []]
        for _ in v.predicates:
            (k11, k21), (k12, k22), (k13, k23) = next(pairs), next(pairs), next(pairs)
            slot_lists[0].append((k11, k12))
            slot_lists[1].append((k22, k13))
            slot_lists[2].append((k23, k21))
        for p in range(3):
            per_party[p].append(slot_lists[p])
    structure, digest = query_structure(query), schema.digest()
    return tuple(
        PartyToken(p + 1, digest, structure, per_party[p]) for p in range(3)
    )


_SLOT_FIELDS = {"name", "type", "combiner", "preds", "children"}


def check_structure(structure, schema: GraphSchema) -> None:
    """Refuse a token structure that :func:`query_structure` cannot have written for ``schema``.

    Every slot's type, edges and predicate attributes must exist in the
    schema: they fix the sizes of the token's keys and of a result file's
    tables.
    """
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
    for slot in slots:
        ts = schema.types.get(slot["type"])
        if ts is None or any(slots[c]["type"] not in ts.posting_types for c in slot["children"]):
            raise QueryFormatError(f"token slot {slot['name']!r} does not fit the schema")
        for pred in slot["preds"]:
            if pred["attr"] not in ts.attrs:
                raise QueryFormatError(f"token slot {slot['name']!r} predicate on "
                                       f"{pred['attr']!r} does not fit the schema")
