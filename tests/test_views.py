"""Each party's view has a shape fixed by public values alone.

The README lists what a query may reveal: the schema, the padded posting
lengths, the query structure and predicate kinds, and the per-group match
counts of the root and of every inner slot that the gate rule keeps on the
shuffle (``engine.QueryPlan``). So two runs whose public values agree
must give every party a view of the same shape: the same frames (direction,
peer, op, round and payload length, in order), the same leakage ledger
(label, phase, slot, segments, length and, for a fetch's flags, the
multiset of per-segment popcounts) and the same meter counts per phase. An access opens its selected id codes under a one-time
pad, so the popcount of a ``secAccess`` entry is uniformly random, not a
public value, and is left out. A run whose root match count differs must
show it.

The queries are range-rooted trees, whose root takes the shuffle route and
has children. The graphs are forests: every ``A`` vertex owns three ``B``
vertices and every ``B`` vertex two ``C`` vertices, and each owned block
holds the same number of matches, so every candidate group of a slot has the
same size and match count. One more forest, :func:`hub_forest_text`, pads
unevenly, so its inner slot keeps the shuffle: its groups' counts differ
within a run, and the ledger lists them in the order of the shuffled root
records, so they are compared as multisets. One more pair roots a match
at vertices of degree 3 or 2, both padded to 3: a child's candidate group is
its parent record's padded list, so its size is public and the true degree
must not show. A pair is run only when the per-group counts the oracle
reports agree, a group's size being its public padded length. A leaf below
the root is gated, not shuffled, and so is an inner slot whose children are
leaves and whose parent type's padding is even, as every slot below the
even forests' roots is; their counts are not public: two runs whose counts
differ only there must still have views of one shape.
"""

import numpy as np
import pytest

from oblivgm import net
from oblivgm.engine import plan
from oblivgm.graphs import build_schema, parse_graph_text
from oblivgm.oracle import _Matcher, oracle_match
from oblivgm.query import load_query, query_structure
from tests import conftest
from tests.conftest import run_secure_query

X_VALUES = (1, 1, 2, 2, 3, 3, 4, 4)  # two A vertices per value
Y_BLOCK = (1, 1, 0)  # per A vertex, two of its B vertices have y = 1
Z_BLOCK = (1, 0)  # per B vertex, one of its C vertices has z = 1

DEEP = "Q a A x in {lo} {hi}\nQ b B y = 1\nQ c C z >= 1\nQE a b\nQE b c\n"
SHALLOW = "Q a A x in {lo} {hi}\nQ b B y = 1\nQE a b\n"

# a0 has three B neighbours and a1 two, padded to three: a root match of
# either degree has the same public values, and one matching neighbour
SKEWED = """V A a0 x=1
V A a1 x=2
V B b0 y=1
V B b1 y=0
V B b2 y=0
V B b3 y=1
V B b4 y=0
E a0 b0
E a0 b1
E a0 b2
E a1 b3
E a1 b4
"""
SKEWED_QUERY = "Q a A x in {v} {v}\nQ b B y = 1\nQE a b\n"


def hub_forest_text() -> str:
    """A forest whose ``A`` vertices own six ``B`` vertices or one, as hubs or leaves.

    ``A``'s padded lengths toward ``B`` are 6 for the four hubs and 1 for
    the eight others, the longest more than twice the mean, so an inner slot
    of type ``B`` below the root keeps the shuffle and opens its per-group
    counts. Hub ``h{x}`` and leaves ``l{x}_0``, ``l{x}_1`` have ``x``; a
    root of one ``x`` value has groups of 0, 1 and 2 matching ``B``
    vertices for ``x`` = 1 or 2, and of 1, 1 and 1 for ``x`` = 3.
    """
    hubs = {1: (1, 1, 0, 0, 0, 0), 2: (0, 0, 0, 1, 0, 1), 3: (0, 0, 1, 0, 0, 0),
            4: (0, 1, 0, 0, 0, 0)}
    leaves = {1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (0, 0)}
    lines, edges = [], []

    def own(a, ys):
        for j, y in enumerate(ys):
            lines.append(f"V B {a}_{j} y={y}")
            edges.append(f"E {a} {a}_{j}")
            for k, z in enumerate(Z_BLOCK):
                lines.append(f"V C {a}_{j}_{k} z={z}")
                edges.append(f"E {a}_{j} {a}_{j}_{k}")

    for x in hubs:
        lines.append(f"V A h{x} x={x}")
        own(f"h{x}", hubs[x])
        for i, y in enumerate(leaves[x]):
            lines.append(f"V A l{x}_{i} x={x}")
            own(f"l{x}_{i}", (y,))
    return "\n".join(lines + edges) + "\n"


def forest_text(seed=None) -> str:
    """The forest graph; a seed permutes every attribute among the vertices of its type.

    ``x`` is permuted over all ``A`` vertices, ``y`` and ``z`` within each
    owned block, so each block keeps its count of matches.
    """
    rng = None if seed is None else np.random.default_rng(seed)

    def order(values):
        return list(values) if rng is None else [values[i] for i in rng.permutation(len(values))]

    lines, edges = [], []
    for i, x in enumerate(order(X_VALUES)):
        lines.append(f"V A a{i} x={x}")
        for j, y in enumerate(order(Y_BLOCK)):
            lines.append(f"V B b{i}_{j} y={y}")
            edges.append(f"E a{i} b{i}_{j}")
            for k, z in enumerate(order(Z_BLOCK)):
                lines.append(f"V C c{i}_{j}_{k} z={z}")
                edges.append(f"E b{i}_{j} c{i}_{j}_{k}")
    return "\n".join(lines + edges) + "\n"


def group_counts(graph_text: str, query_text: str):
    """Per slot, the sorted (rows, matches) of its candidate groups, from the oracle.

    A child group holds one parent record's padded posting list, so its row
    count is the public ``max_padded`` of the parent type, not the degree.
    """
    graph = parse_graph_text(graph_text)
    schema = build_schema(graph, 2)
    query = load_query(query_text, schema)
    matcher = _Matcher(graph, query, schema)
    members = list(graph.type_members[query.vertices[0].vtype])
    groups = {0: [(len(members), members)]}
    out = []
    for s in range(query.size):  # slots are numbered breadth-first
        kept = [v for _, g in groups[s] for v in g if matcher.vertex_ok(s, v)]
        out.append(sorted((rows, sum(matcher.vertex_ok(s, v) for v in g))
                          for rows, g in groups[s]))
        for c in query.children[s]:
            vtype = query.vertices[c].vtype
            rows = schema.types[query.vertices[s].vtype].max_padded(vtype)
            groups[c] = [(rows, graph.posting_list(v, vtype)) for v in kept]
    return out


def view_shapes(graph_text: str, query_text: str):
    """Every party's frames, ledger and meter of one secure run, with payloads left out."""
    frames = {}

    class Recorder:
        def __init__(self, channel, log, direction, peer):
            self.channel, self.log, self.direction, self.peer = channel, log, direction, peer

        def note(self, data):
            frame = net.Frame.decode(data)
            self.log.append((self.direction, self.peer, frame.op, frame.round,
                             len(frame.payload)))

        def send_bytes(self, data):
            self.note(data)
            self.channel.send_bytes(data)

        def recv_bytes(self, timeout):
            data = self.channel.recv_bytes(timeout)
            self.note(data)
            return data

        def close(self):
            self.channel.close()

    def recorded_runtimes(configs, recv_timeout=120.0):
        runtimes = net.local_runtimes(configs, recv_timeout)
        for rt in runtimes:
            log = frames[rt.index] = []
            for peer, link in rt.links.items():
                link._send_ch = Recorder(link._send_ch, log, "send", peer)
                link._recv_ch = Recorder(link._recv_ch, log, "recv", peer)
        return runtimes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conftest, "local_runtimes", recorded_runtimes)
        res = run_secure_query(graph_text, query_text, seed=3, master=b"\x3c" * 16)
    assert res["matches"] == {tuple(m) for m in _oracle(graph_text, query_text)}
    views = []
    for rt in res["runtimes"]:
        ledger = [(e.label, e.phase, e.slot, e.segments, len(e.bits),
                   None if e.phase == "secAccess" else tuple(sorted(conftest.opened_counts(e))))
                  for e in rt.opened]
        meter = {name: (p.bytes_sent, p.frames_sent, p.logical_bits)
                 for name, p in sorted(rt.meter.phases.items())}
        views.append((frames[rt.index], ledger, meter))
    return views, [rt.transcript_digest() for rt in res["runtimes"]]


def _oracle(graph_text: str, query_text: str):
    graph = parse_graph_text(graph_text)
    schema = build_schema(graph, 2)
    return oracle_match(graph, load_query(query_text, schema), schema)


PAIRS = [
    pytest.param(forest_text(), DEEP.format(lo=1, hi=2), forest_text(), DEEP.format(lo=3, hi=4),
                 id="deep-other-constants"),
    pytest.param(forest_text(), DEEP.format(lo=2, hi=3), forest_text(11), DEEP.format(lo=2, hi=3),
                 id="deep-permuted-graph"),
    pytest.param(forest_text(5), SHALLOW.format(lo=1, hi=3), forest_text(6),
                 SHALLOW.format(lo=2, hi=4), id="shallow-permuted-other-constants"),
    pytest.param(forest_text(), SHALLOW.format(lo=4, hi=4), forest_text(7),
                 SHALLOW.format(lo=1, hi=1), id="shallow-two-roots"),
    pytest.param(SKEWED, SKEWED_QUERY.format(v=1), SKEWED, SKEWED_QUERY.format(v=2),
                 id="skewed-degrees"),
    pytest.param(hub_forest_text(), DEEP.format(lo=1, hi=1), hub_forest_text(),
                 DEEP.format(lo=2, hi=2), id="deep-shuffled-inner"),
]


@pytest.mark.parametrize("graph_1,query_1,graph_2,query_2", PAIRS)
def test_views_with_equal_public_values_have_equal_shapes(graph_1, query_1, graph_2, query_2):
    assert build_schema(parse_graph_text(graph_1), 2).digest() == \
        build_schema(parse_graph_text(graph_2), 2).digest()
    assert group_counts(graph_1, query_1) == group_counts(graph_2, query_2)
    (views_1, digests_1), (views_2, digests_2) = (view_shapes(graph_1, query_1),
                                                  view_shapes(graph_2, query_2))
    for party, (one, two) in enumerate(zip(views_1, views_2), start=1):
        for name, a, b in zip(("frames", "ledger", "meter"), one, two):
            assert a == b, f"party {party}: {name} shapes differ"
    # a weak check that the payloads are not a function of the public values
    assert all(a != b for a, b in zip(digests_1, digests_2))


def test_a_shuffled_inner_slot_opens_its_group_counts():
    # hub_forest_text's padding is uneven, so b keeps the shuffle: its
    # per-group counts are public, in a secFetch ledger entry under slot 1.
    # Two roots of three records with three matching B vertices in all, as
    # 0, 1 and 2 or as 1, 1 and 1 per group: the ledger shows which
    graph, query_1, query_2 = hub_forest_text(), DEEP.format(lo=1, hi=1), DEEP.format(lo=3, hi=3)
    schema = build_schema(parse_graph_text(graph), 2)
    assert plan(schema, query_structure(load_query(query_1, schema))).route[1] == "fetched"
    counts_1, counts_2 = group_counts(graph, query_1), group_counts(graph, query_2)
    assert counts_1[0] == counts_2[0] and counts_1[1] != counts_2[1]
    (views_1, _), (views_2, _) = view_shapes(graph, query_1), view_shapes(graph, query_2)
    for views, counts in ((views_1, counts_1), (views_2, counts_2)):
        for _, ledger, _ in views:
            (b_counts,) = [c for _, phase, slot, *_, c in ledger if (phase, slot) == ("secFetch", 1)]
            assert b_counts == tuple(sorted(m for _, m in counts[1]))
    for one, two in zip(views_1, views_2):
        assert one[1] != two[1]


def test_views_differ_when_the_root_match_count_differs():
    graph, query_1, query_2 = forest_text(), DEEP.format(lo=1, hi=2), DEEP.format(lo=1, hi=3)
    counts_1, counts_2 = group_counts(graph, query_1), group_counts(graph, query_2)
    assert counts_1[0] != counts_2[0]
    views_1, _ = view_shapes(graph, query_1)
    views_2, _ = view_shapes(graph, query_2)
    for one, two in zip(views_1, views_2):
        assert all(a != b for a, b in zip(one, two))  # frames, ledger and meter all show it


LEAF_PAIRS = [
    # c is a leaf under the inner slot b: one or both C vertices of each B match
    pytest.param(DEEP.format(lo=1, hi=2), DEEP.format(lo=1, hi=2).replace("z >= 1", "z >= 0"),
                 id="deep-leaf"),
    # b is a leaf under the root: two or one of each A vertex's B vertices match
    pytest.param(SHALLOW.format(lo=2, hi=3), SHALLOW.format(lo=2, hi=3).replace("y = 1", "y = 0"),
                 id="shallow-leaf"),
]


def test_views_hide_the_match_counts_of_a_gated_inner_slot():
    # every A vertex has three B vertices, so A's padded lengths toward B are
    # even, and b's one child c is a leaf: the inner slot b is gated like a
    # leaf. Two or one of each A vertex's B vertices match, with one schema
    # and one root count, and no view shows which
    graph = forest_text()
    query_1, query_2 = DEEP.format(lo=1, hi=2), DEEP.format(lo=1, hi=2).replace("y = 1", "y = 0")
    schema = build_schema(parse_graph_text(graph), 2)
    assert plan(schema, query_structure(load_query(query_1, schema))).route[1] == "gated inner"
    counts_1, counts_2 = group_counts(graph, query_1), group_counts(graph, query_2)
    assert counts_1[0] == counts_2[0] and counts_1[1] != counts_2[1]
    (views_1, _), (views_2, _) = view_shapes(graph, query_1), view_shapes(graph, query_2)
    for party, (one, two) in enumerate(zip(views_1, views_2), start=1):
        for name, a, b in zip(("frames", "ledger", "meter"), one, two):
            assert a == b, f"party {party}: {name} shapes differ"
        assert all(slot != 1 for _, phase, slot, *_ in one[1] if phase == "secFetch")


@pytest.mark.parametrize("query_1,query_2", LEAF_PAIRS)
def test_views_hide_the_match_counts_of_a_leaf_below_the_root(query_1, query_2):
    # a leaf below the root is gated, not shuffled: its rows stay padded and
    # nothing of it is opened, so its per-group match counts do not show
    graph = forest_text()
    counts_1, counts_2 = group_counts(graph, query_1), group_counts(graph, query_2)
    assert counts_1[:-1] == counts_2[:-1] and counts_1[-1] != counts_2[-1]
    (views_1, _), (views_2, _) = view_shapes(graph, query_1), view_shapes(graph, query_2)
    for party, (one, two) in enumerate(zip(views_1, views_2), start=1):
        for name, a, b in zip(("frames", "ledger", "meter"), one, two):
            assert a == b, f"party {party}: {name} shapes differ"
