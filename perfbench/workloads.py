"""Seeded graphs and query lists for the three benchmark workloads.

Every graph is exactly regular: each vertex of a type has the same number of
neighbours of each other type, and every value of an ordinal attribute is
held by the same number of vertices. Padded posting lengths, share-file sizes
and the number of root matches therefore do not depend on the seed; only
which vertices match does. That keeps the traffic counts close across seeds
while the seed still changes every input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oblivgm.graphs import AttributedGraph

ENCRYPT_K = 2


@dataclass(frozen=True)
class Pred:
    attr: str
    op: str  # "=", "<", "<=", ">", ">=" or "in"
    operands: tuple[str, ...]


@dataclass(frozen=True)
class Query:
    """One query of a workload's fixed list.

    ``target`` is set for single-target queries: (type, predicates, combiner),
    which the benchmark also checks with a direct filter over raw values.
    """

    kind: str
    text: str
    target: tuple[str, tuple[Pred, ...], str] | None = None


@dataclass(frozen=True)
class Workload:
    build_graph: object  # (rng) -> (AttributedGraph, dict of attribute value lists)
    make_queries: object  # (rng, values) -> list[Query]
    delay_s: float = 0.0  # one-way delay per frame; 0 runs the in-process trio


def _values(rng: np.random.Generator, count: int) -> list[str]:
    base = int(rng.integers(0, 50))
    return [str(base + 3 * i) for i in range(count)]


def _balanced(rng: np.random.Generator, n: int, values: list[str]) -> list[str]:
    """Each value held by n / len(values) vertices, in a seeded order."""
    if n % len(values):
        raise ValueError("population must be a multiple of the dictionary size")
    idx = rng.permutation(np.repeat(np.arange(len(values)), n // len(values)))
    return [values[i] for i in idx]


def _regular_edges(g: AttributedGraph, rng: np.random.Generator,
                   left: list[str], right: list[str], degree: int) -> None:
    """Give every left vertex ``degree`` distinct right neighbours.

    Right vertex ``(perm[i] + offset_j) mod n_right`` joins left vertex ``i``
    for ``degree`` distinct offsets, so each right vertex ends up with exactly
    ``degree * n_left / n_right`` left neighbours and no edge repeats.
    """
    n_left, n_right = len(left), len(right)
    if n_left % n_right:
        raise ValueError("left population must be a multiple of the right one")
    perm = rng.permutation(n_left)
    offsets = rng.choice(n_right, size=degree, replace=False)
    for i, a in enumerate(left):
        for off in offsets:
            g.add_edge(a, right[(int(perm[i]) + int(off)) % n_right])


def _add_type(g: AttributedGraph, vtype: str, ids: list[str],
              attrs: dict[str, list[str]]) -> None:
    for i, ext in enumerate(ids):
        g.add_vertex(vtype, ext, {a: vals[i] for a, vals in attrs.items()})


# ---------------------------------------------------------------------------
# hop / hop-wan: criterion-10 shaped 2-hop trees over three equal types
# ---------------------------------------------------------------------------


def _hop_graph(n: int, n_values: int, degree: int):
    def build(rng: np.random.Generator):
        g = AttributedGraph()
        values = {t: _values(rng, n_values) for t in "ABC"}
        ids = {t: [f"{t.lower()}{i}" for i in range(n)] for t in "ABC"}
        keys = [str(int(k)) for k in rng.permutation(n)]
        _add_type(g, "A", ids["A"], {"key": keys, "x0": _balanced(rng, n, values["A"])})
        for t in "BC":
            _add_type(g, t, ids[t], {"x0": _balanced(rng, n, values[t])})
        _regular_edges(g, rng, ids["A"], ids["B"], degree)
        _regular_edges(g, rng, ids["A"], ids["C"], degree)
        _regular_edges(g, rng, ids["B"], ids["C"], degree)
        g.validate()
        return g, {"n": n, **values}
    return build


def _hop_queries(n_point: int, n_range: int):
    """Narrow root, wide children: s0 A -> (s1 B, s2 C), s1 B -> s3 C.

    Range-rooted queries take one whole ``x0`` value at the root as an
    interval, so every one starts from the same number of roots; point-rooted
    ones look one root up by its unique key, so the ``sec_fetch_unique`` path
    runs on this workload too. About 80% of each child type passes ``wide``.
    """
    def make(rng: np.random.Generator, values: dict) -> list[Query]:
        def wide(t: str) -> str:
            vals = values[t]
            cut = vals[int(rng.integers(len(vals) * 18 // 100, len(vals) * 22 // 100 + 1))]
            return f"x0 >= {cut}"

        def tree(root: str) -> str:
            return (f"Q s0 A {root}\nQ s1 B {wide('B')}\nQ s2 C {wide('C')}\n"
                    f"Q s3 C {wide('C')}\nQS s0\nQE s0 s1\nQE s0 s2\nQE s1 s3\n")

        queries = []
        for _ in range(n_point):
            queries.append(Query("point-root", tree(f"key = {int(rng.integers(0, values['n']))}")))
        for _ in range(n_range):
            v = values["A"][int(rng.integers(0, len(values["A"])))]
            queries.append(Query("range-root", tree(f"x0 in {v} {v}")))
        return queries
    return make


# ---------------------------------------------------------------------------
# scan: single-target predicates over one large keyed type
# ---------------------------------------------------------------------------


def _scan_graph(n: int, m: int):
    """Type K of ``n`` vertices with a unique key; each joins one of ``m`` S vertices."""
    def build(rng: np.random.Generator):
        g = AttributedGraph()
        values = {"x0": _values(rng, 100), "x1": _values(rng, 50), "y0": _values(rng, 20)}
        k_ids = [f"k{i}" for i in range(n)]
        s_ids = [f"s{i}" for i in range(m)]
        _add_type(g, "K", k_ids, {
            "key": [str(int(k)) for k in rng.permutation(n)],
            "x0": _balanced(rng, n, values["x0"]),
            "x1": _balanced(rng, n, values["x1"]),
        })
        _add_type(g, "S", s_ids, {"y0": _balanced(rng, m, values["y0"])})
        _regular_edges(g, rng, k_ids, s_ids, 1)
        g.validate()
        return g, {"n": n, **values}
    return build


def _scan_queries(rng: np.random.Generator, values: dict) -> list[Query]:
    """Fourteen queries in three cost classes around one middle class.

    ``sec_fetch_multi`` shuffles the whole population, then loops over the
    matched rows, so a query's cost grows with its match count. Five cheap
    queries (two point lookups, two equalities, one ``ANY``) sit below five
    intervals of exactly ``n / 10`` matches each, and four ranges and ``ALL``
    pairs of about ``n / 4`` matches sit above; the median falls among the
    intervals. One point lookup also takes one hop to the small type, which
    keeps ``sec_access`` measured on this workload at a small, fixed cost.
    """
    x0, x1, y0 = values["x0"], values["x1"], values["y0"]

    def pick(vals, lo_frac, hi_frac):
        return vals[int(rng.integers(int(len(vals) * lo_frac), int(len(vals) * hi_frac) + 1))]

    def single(kind: str, preds: list[Pred], combiner: str = "ALL") -> Query:
        lines = [f"Q t K {p.attr} {p.op} {' '.join(p.operands)}" for p in preds]
        if len(preds) > 1:
            lines.append(f"QC t {combiner}")
        return Query(kind, "\n".join(lines) + "\n", ("K", tuple(preds), combiner))

    def interval(attr, vals):
        width = len(vals) // 10
        lo = int(rng.integers(0, len(vals) - width + 1))
        return single("interval", [Pred(attr, "in", (vals[lo], vals[lo + width - 1]))])

    def both_high():
        return single("all", [Pred("x0", ">=", (pick(x0, 0.45, 0.55),)),
                              Pred("x1", "<=", (pick(x1, 0.45, 0.55),))], "ALL")

    return [
        single("point", [Pred("key", "=", (str(int(rng.integers(0, values["n"]))),))]),
        Query("point-hop", f"Q t K key = {int(rng.integers(0, values['n']))}\n"
                           f"Q u S y0 >= {pick(y0, 0.2, 0.3)}\nQS t\nQE t u\n"),
        single("eq", [Pred("x0", "=", (pick(x0, 0, 0.99),))]),
        single("eq", [Pred("x1", "=", (pick(x1, 0, 0.98),))]),
        single("any", [Pred("x0", "=", (pick(x0, 0, 0.99),)),
                       Pred("x1", "=", (pick(x1, 0, 0.98),))], "ANY"),
        interval("x0", x0),
        interval("x0", x0),
        interval("x0", x0),
        interval("x1", x1),
        interval("x1", x1),
        single("range", [Pred("x0", "<", (pick(x0, 0.2, 0.3),))]),
        single("range", [Pred("x0", ">", (pick(x0, 0.7, 0.8),))]),
        both_high(),
        both_high(),
    ]


WORKLOADS = {
    "hop": Workload(_hop_graph(1000, 100, 3), _hop_queries(2, 10)),
    "scan": Workload(_scan_graph(4000, 40), _scan_queries),
    "hop-wan": Workload(_hop_graph(500, 50, 3), _hop_queries(2, 10),
                        delay_s=0.001),
}


# ---------------------------------------------------------------------------
# direct predicate filter (independent of the oracle's dictionary indices)
# ---------------------------------------------------------------------------


def _holds(value: float, op: str, operands: list[float]) -> bool:
    if op == "=":
        return value == operands[0]
    if op == "<":
        return value < operands[0]
    if op == "<=":
        return value <= operands[0]
    if op == ">":
        return value > operands[0]
    if op == ">=":
        return value >= operands[0]
    if op == "in":
        return operands[0] <= value <= operands[1]
    raise ValueError(f"unknown operator {op!r}")


def direct_filter(graph: AttributedGraph, target) -> set[tuple[str]]:
    """Matches of a single-target query, read straight off the raw attribute values."""
    vtype, preds, combiner = target
    fold = all if combiner == "ALL" else any
    out = set()
    for idx in graph.type_members[vtype]:
        v = graph.vertices[idx]
        if fold(_holds(float(v.attrs[p.attr]), p.op, [float(x) for x in p.operands])
                for p in preds):
            out.add((v.ext_id,))
    return out
