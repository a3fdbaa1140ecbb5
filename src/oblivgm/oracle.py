"""Plaintext reference matcher for rooted-tree queries.

Enumerates every slot-to-vertex assignment that satisfies the query: root
candidates filtered by the root predicates, children expanded along typed
posting lists, Cartesian assembly per parent, incomplete branches pruned.
A vertex's predicates combine by its ``ALL`` (AND) or ``ANY`` (inclusive
OR) combiner. Matches are tuples of vertex external ids in slot order. Slot
semantics deliberately mirror the secure engine: sibling slots may map to
the same graph vertex, and the same vertex may recur across matches.
"""

from __future__ import annotations

from itertools import product

from . import fss
from .graphs import AttributedGraph, GraphSchema
from .query import PredicateSpec, QueryGraph


def predicate_holds(pred: PredicateSpec, value_index: int) -> bool:
    """Evaluate one predicate on a dictionary index."""
    if pred.kind == fss.KIND_EQ:
        return value_index == pred.operands[0]
    if pred.kind == fss.KIND_LT:
        return value_index < pred.operands[0]
    if pred.kind == fss.KIND_LE:
        return value_index <= pred.operands[0]
    if pred.kind == fss.KIND_GT:
        return value_index > pred.operands[0]
    if pred.kind == fss.KIND_GE:
        return value_index >= pred.operands[0]
    if pred.kind == fss.KIND_INTERVAL:
        lo, hi = pred.operands
        return lo <= value_index <= hi
    raise ValueError(f"unknown predicate kind {pred.kind!r}")


def combine(values: list[bool], combiner: str) -> bool:
    """ALL is the AND of a vertex's predicates, ANY their inclusive OR."""
    if combiner == "ALL":
        return all(values)
    if combiner == "ANY":
        return any(values)
    raise ValueError(f"unknown combiner {combiner!r}")


class _Matcher:
    def __init__(self, graph: AttributedGraph, query: QueryGraph, schema: GraphSchema):
        self.graph = graph
        self.query = query
        self.schema = schema

    def vertex_ok(self, slot: int, vidx: int) -> bool:
        target = self.query.vertices[slot]
        vertex = self.graph.vertices[vidx]
        if vertex.vtype != target.vtype:
            return False
        attrs = self.schema.types[target.vtype].attrs
        flags = [
            predicate_holds(p, attrs[p.attr].index_of[vertex.attrs[p.attr]])
            for p in target.predicates
        ]
        return combine(flags, target.combiner)

    def subtree(self, slot: int, vidx: int) -> list[dict[int, int]]:
        """All assignments for the subtree rooted at ``slot`` mapped to ``vidx``."""
        parts: list[list[dict[int, int]]] = []
        for child in self.query.children[slot]:
            child_type = self.query.vertices[child].vtype
            options: list[dict[int, int]] = []
            for w in self.graph.posting_list(vidx, child_type):
                if self.vertex_ok(child, w):
                    options.extend(self.subtree(child, w))
            if not options:
                return []
            parts.append(options)
        out = []
        for pick in product(*parts):
            assignment = {slot: vidx}
            for sub in pick:
                assignment.update(sub)
            out.append(assignment)
        return out


def oracle_match(graph: AttributedGraph, query: QueryGraph,
                 schema: GraphSchema) -> set[tuple[str, ...]]:
    """Exhaustive matching; returns slot-ordered tuples of external ids."""
    matcher = _Matcher(graph, query, schema)
    results: set[tuple[str, ...]] = set()
    root_type = query.vertices[0].vtype
    if root_type not in graph.type_members:
        return results
    for vidx in graph.type_members[root_type]:
        if not matcher.vertex_ok(0, vidx):
            continue
        for assignment in matcher.subtree(0, vidx):
            results.add(tuple(
                graph.vertices[assignment[s]].ext_id for s in range(query.size)
            ))
    return results


def validate_match(graph: AttributedGraph, query: QueryGraph, schema: GraphSchema,
                   match: tuple[str, ...]) -> bool:
    """Independent per-slot check of one result tuple (types, predicates, edges)."""
    matcher = _Matcher(graph, query, schema)
    idx = [graph.index_of[e] for e in match]
    for slot in range(query.size):
        if not matcher.vertex_ok(slot, idx[slot]):
            return False
        parent = query.parent[slot]
        if parent is not None:
            if idx[slot] not in graph.posting_list(idx[parent], query.vertices[slot].vtype):
                return False
    return True
