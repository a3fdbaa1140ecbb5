"""Plaintext attributed graphs, public schema, padding, and graph encryption.

The plaintext ingest format is line oriented::

    V <type> <ext-id> <attr>=<value> ...
    E <ext-id> <ext-id>

Vertices of one type must carry the same attribute names. Edges are
undirected and typed implicitly by their endpoint types; adjacency is kept
as posting lists (per neighbor type, in ext-id appearance order).

Encryption turns every private attribute value into a one-hot vector over a
public dictionary and splits it with replicated secret sharing. Vertex ids
are not private: row ``c`` of a type is the vertex ``ext_ids[c]``, so no id
is stored, and the engine builds the ids it needs as public constants. A
posting entry is its neighbor's ``id_width``-bit code ``c + 1``, shared the
same way. Before sharing, posting lists are padded inside groups of ``k``
same-type vertices so that group members have identical per-type degrees;
the dummy entries are shares of the code 0 and are indistinguishable from
true entries.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import rss
from .bits import one_hot_rows
from .rss import MatchTable


class GraphFormatError(ValueError):
    """Malformed graph text or schema violation."""


@dataclass
class Vertex:
    vtype: str
    ext_id: str
    attrs: dict[str, str]


class AttributedGraph:
    """Typed vertices with typed attributes and per-type posting lists."""

    def __init__(self):
        self.vertices: list[Vertex] = []
        self.index_of: dict[str, int] = {}
        self.neighbors: list[dict[str, list[int]]] = []
        self.type_members: dict[str, list[int]] = {}
        self._edges: set[tuple[int, int]] = set()

    def add_vertex(self, vtype: str, ext_id: str, attrs: dict[str, str]) -> int:
        if ext_id in self.index_of:
            raise GraphFormatError(f"duplicate vertex id {ext_id!r}")
        if not attrs:
            raise GraphFormatError(f"vertex {ext_id!r} has no attributes")
        idx = len(self.vertices)
        self.vertices.append(Vertex(vtype, ext_id, dict(attrs)))
        self.index_of[ext_id] = idx
        self.neighbors.append({})
        self.type_members.setdefault(vtype, []).append(idx)
        return idx

    def add_edge(self, a: str, b: str) -> None:
        try:
            ia, ib = self.index_of[a], self.index_of[b]
        except KeyError as exc:
            raise GraphFormatError(f"edge references unknown vertex {exc.args[0]!r}") from None
        if ia == ib:
            raise GraphFormatError(f"self-loop on {a!r}")
        key = (min(ia, ib), max(ia, ib))
        if key in self._edges:
            raise GraphFormatError(f"duplicate edge {a!r} -- {b!r}")
        self._edges.add(key)
        self.neighbors[ia].setdefault(self.vertices[ib].vtype, []).append(ib)
        self.neighbors[ib].setdefault(self.vertices[ia].vtype, []).append(ia)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def posting_list(self, idx: int, neighbor_type: str) -> list[int]:
        return self.neighbors[idx].get(neighbor_type, [])

    def validate(self) -> None:
        for vtype, members in self.type_members.items():
            names = {frozenset(self.vertices[i].attrs) for i in members}
            if len(names) > 1:
                raise GraphFormatError(
                    f"vertices of type {vtype!r} disagree on attribute names"
                )


def parse_graph_text(text: str) -> AttributedGraph:
    g = AttributedGraph()
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "V":
                if len(parts) < 4:
                    raise GraphFormatError("vertex line needs type, id and attributes")
                attrs = {}
                for chunk in parts[3:]:
                    name, sep, value = chunk.partition("=")
                    if not sep or not name or not value:
                        raise GraphFormatError(f"bad attribute {chunk!r}")
                    if name in attrs:
                        raise GraphFormatError(f"repeated attribute {name!r}")
                    attrs[name] = value
                g.add_vertex(parts[1], parts[2], attrs)
            elif parts[0] == "E":
                if len(parts) != 3:
                    raise GraphFormatError("edge line needs exactly two vertex ids")
                edges.append((parts[1], parts[2]))
            else:
                raise GraphFormatError(f"unknown record {parts[0]!r}")
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    for a, b in edges:
        g.add_edge(a, b)
    g.validate()
    return g


# ---------------------------------------------------------------------------
# public schema / dictionaries
# ---------------------------------------------------------------------------


def _numeric(value: str) -> float | None:
    """A value as a number, or None; NaN is none, as no value is above or below it."""
    try:
        number = float(value)
    except ValueError:
        return None
    return None if math.isnan(number) else number


@dataclass
class AttrSchema:
    values: list[str]
    ordinal: bool
    unique: bool
    index_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index_of:
            self.index_of = {v: i for i, v in enumerate(self.values)}

    @property
    def domain_size(self) -> int:
        return len(self.values)

    @property
    def code_width(self) -> int:
        """Bits of a value code: value ``c`` is the code ``c + 1``, and 0 marks an all-zero row."""
        return self.domain_size.bit_length()


@dataclass
class TypeSchema:
    ext_ids: list[str]
    attrs: dict[str, AttrSchema]
    posting_types: list[str]
    groups: list[list[int]]
    padded_len: dict[str, list[int]]

    @property
    def population(self) -> int:
        return len(self.ext_ids)

    @property
    def id_width(self) -> int:
        """Bits of a vertex id code: vertex ``c`` is the code ``c + 1``, and 0 marks a dummy."""
        return self.population.bit_length()

    def max_padded(self, neighbor_type: str) -> int:
        lens = self.padded_len.get(neighbor_type)
        return max(lens) if lens else 0


@dataclass
class GraphSchema:
    """The public description of an outsourced graph.

    A schema is not changed once :meth:`from_json`, :func:`build_schema` or
    :func:`encrypt_graph` has built it, so :meth:`digest` is taken once.
    """

    k: int
    types: dict[str, TypeSchema]
    _digest: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def to_json(self) -> str:
        doc = {
            "version": 1,
            "k": self.k,
            "types": {
                t: {
                    "ext_ids": ts.ext_ids,
                    "attrs": {
                        a: {"values": s.values, "ordinal": s.ordinal, "unique": s.unique}
                        for a, s in sorted(ts.attrs.items())
                    },
                    "posting_types": ts.posting_types,
                    "groups": ts.groups,
                    "padded_len": {n: ts.padded_len[n] for n in sorted(ts.padded_len)},
                }
                for t, ts in sorted(self.types.items())
            },
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "GraphSchema":
        doc = json.loads(text)
        types = {}
        for t, td in doc["types"].items():
            attrs = {
                a: AttrSchema(ad["values"], ad["ordinal"], ad["unique"])
                for a, ad in td["attrs"].items()
            }
            types[t] = TypeSchema(
                ext_ids=td["ext_ids"],
                attrs=attrs,
                posting_types=td["posting_types"],
                groups=[list(gr) for gr in td["groups"]],
                padded_len={n: list(v) for n, v in td["padded_len"].items()},
            )
        return GraphSchema(k=doc["k"], types=types)

    def digest(self) -> bytes:
        """SHA-256 of :meth:`to_json`, computed on the first call."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_json().encode()).digest()
        return self._digest


# ---------------------------------------------------------------------------
# k-group padding
# ---------------------------------------------------------------------------


def pad_k_groups(graph: AttributedGraph, k: int):
    """Partition each type into groups of >= k vertices and compute padded lengths.

    Vertices are ordered by total posting length and chunked, which keeps
    group members' lengths close and the padding small; a short residual
    chunk merges into the previous group. Returns ``(groups, padded_len)``
    keyed by type, with local vertex indices.
    """
    if k < 2:
        raise GraphFormatError("k must be at least 2")
    groups: dict[str, list[list[int]]] = {}
    padded: dict[str, dict[str, list[int]]] = {}
    for vtype, members in graph.type_members.items():
        if len(members) < k:
            raise GraphFormatError(
                f"type {vtype!r} has {len(members)} vertices, fewer than k={k}"
            )
        ptypes = sorted({t for i in members for t in graph.neighbors[i]})
        order = sorted(
            range(len(members)),
            key=lambda li: (sum(len(graph.posting_list(members[li], t)) for t in ptypes), li),
        )
        chunks = [order[i:i + k] for i in range(0, len(order), k)]
        if len(chunks) > 1 and len(chunks[-1]) < k:
            chunks[-2].extend(chunks.pop())
        lens = {t: [0] * len(members) for t in ptypes}
        for chunk in chunks:
            for t in ptypes:
                target = max(len(graph.posting_list(members[li], t)) for li in chunk)
                for li in chunk:
                    lens[t][li] = target
        groups[vtype] = chunks
        padded[vtype] = lens
    return groups, padded


def build_schema(graph: AttributedGraph, k: int) -> GraphSchema:
    graph.validate()
    groups, padded = pad_k_groups(graph, k)
    types: dict[str, TypeSchema] = {}
    for vtype, members in sorted(graph.type_members.items()):
        attr_names = sorted(graph.vertices[members[0]].attrs)
        attrs = {}
        for name in attr_names:
            raw = [graph.vertices[i].attrs[name] for i in members]
            distinct = sorted(set(raw))
            nums = [_numeric(v) for v in distinct]
            ordinal = all(x is not None for x in nums)
            if ordinal:
                distinct.sort(key=lambda v: (_numeric(v), v))
            attrs[name] = AttrSchema(distinct, ordinal, unique=len(set(raw)) == len(raw))
        types[vtype] = TypeSchema(
            ext_ids=[graph.vertices[i].ext_id for i in members],
            attrs=attrs,
            posting_types=sorted({t for i in members for t in graph.neighbors[i]}),
            groups=groups[vtype],
            padded_len=padded[vtype],
        )
    return GraphSchema(k=k, types=types)


# ---------------------------------------------------------------------------
# encryption
# ---------------------------------------------------------------------------


@dataclass
class TypePartyShare:
    """One party's tables for every vertex of one type.

    ``attrs[a]`` has one row per vertex, its one-hot value. ``posting[t]``
    has ``max_padded(t)`` rows per vertex, its padded posting list of
    neighbor id codes (``c + 1`` for neighbor ``c``, 0 for a dummy entry),
    each ``id_width`` bits of type ``t``; rows past a vertex's padded length
    are public structural zeros.
    """

    attrs: dict[str, MatchTable]
    posting: dict[str, MatchTable]


@dataclass
class GraphShare:
    party_index: int
    schema: GraphSchema
    types: dict[str, TypePartyShare]


def encrypt_graph(graph: AttributedGraph, k: int, rng: np.random.Generator):
    """Produce the public schema and the three per-party share sets.

    Every attribute field is split in one draw, then every posting field,
    its vertices' padded lists one after another, type by type in schema
    order.
    """
    schema = build_schema(graph, k)
    per_party: list[dict[str, TypePartyShare]] = [{}, {}, {}]
    for vtype, ts in schema.types.items():
        members = graph.type_members[vtype]
        x = ts.population
        parts = [types.setdefault(vtype, TypePartyShare({}, {})) for types in per_party]

        for name, aschema in ts.attrs.items():
            hot = np.array([aschema.index_of[graph.vertices[gi].attrs[name]] for gi in members])
            plain = one_hot_rows(x, aschema.domain_size, np.arange(x), hot)
            for part, table in zip(parts, rss.share_rows(plain, aschema.domain_size, rng)):
                part.attrs[name] = table

        for t_ne in ts.posting_types:
            code = {gi: li + 1 for li, gi in enumerate(graph.type_members[t_ne])}
            l_max = ts.max_padded(t_ne)
            plain = np.zeros((x * l_max, 1), np.uint32)
            for v, gi in enumerate(members):
                plist = graph.posting_list(gi, t_ne)
                plain[v * l_max:v * l_max + len(plist), 0] = [code[ngi] for ngi in plist]
            runs = [(v * l_max, n) for v, n in enumerate(ts.padded_len[t_ne])]
            width = schema.types[t_ne].id_width
            for part, table in zip(parts, rss.share_rows(plain, width, rng, runs)):
                part.posting[t_ne] = table

    return schema, tuple(GraphShare(i, schema, per_party[i - 1]) for i in rss.PARTIES)
