"""Shared fixtures: the campus scenario and a one-call secure-query driver."""

import hashlib
import json
import struct
from collections import ChainMap
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from oblivgm import rss
from oblivgm.bits import pack_bits, unpack_bits
from oblivgm.engine import RecordTable, assemble, open_results, plan, sec_match
from oblivgm.graphs import encrypt_graph, parse_graph_text
from oblivgm.net import local_runtimes, make_session_configs, run_trio
from oblivgm.oracle import _Matcher
from oblivgm.query import gen_token, load_query

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

CAMPUS_GRAPH = (DATA / "campus.graph").read_text()
TWO_PERSON_QUERY = (DATA / "two-person.query").read_text()

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from tests._acceptance_log import LINES

    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def campus():
    return parse_graph_text(CAMPUS_GRAPH)


def share_bits(bits, rng):
    """The three parties' one-row tables of a plaintext 0/1 array."""
    bits = np.asarray(bits, np.uint8)
    return rss.share_rows(pack_bits(bits)[None], bits.size, rng)


def plain_bits(tables) -> np.ndarray:
    """The parties' shares of a table, reconstructed to its rows' bits laid end to end."""
    tables = list(tables)
    return unpack_bits(rss.reconstruct_rows(tables), tables[0].width).ravel()


def row_code(tables, ri: int) -> int:
    """Row ``ri`` of the parties' shares of a table, reconstructed on its own, as an integer."""
    (row,) = rss.reconstruct_rows([t.take(slice(ri, ri + 1)) for t in tables])
    return sum(int(w) << 32 * i for i, w in enumerate(row))


def listed(ledger) -> list:
    """Ledger entries with their bits as lists, so that whole entries compare with ``==``."""
    return [e._replace(bits=e.bits.tolist()) for e in ledger]


def run_secure_query(graph_text: str, query_text: str, *, k: int = 2,
                     seed: int = 1, master: bytes = b"\x11" * 16,
                     graph=None, attach=None):
    """Encrypt, tokenize and run one query in-process; returns all artifacts.

    ``attach``, when given, is called on each party's runtime before it runs.
    """
    if graph is None:
        graph = parse_graph_text(graph_text)
    rng = np.random.default_rng(seed)
    schema, shares = encrypt_graph(graph, k, rng)
    query = load_query(query_text, schema)
    tokens = gen_token(query, schema, rng)
    runtimes = local_runtimes(make_session_configs(master))

    def worker(rt):
        if attach:
            attach(rt)
        return sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1])

    results = run_trio(worker, runtimes)
    matches, details = open_results(results[:2], schema)
    return {
        "graph": graph,
        "schema": schema,
        "shares": shares,
        "query": query,
        "tokens": tokens,
        "runtimes": runtimes,
        "results": results,
        "matches": set(matches),
        "details": details,
    }


def depth_stamper():
    """Per-party logs of sent frames, and a hook that stamps each frame with its chain depth.

    Call the hook on each party's runtime before it sends. A frame's depth
    is one more than the deepest frame its sender has received. Each party's
    log holds its frames' ``(phase, op, payload bytes, depth)`` in send order.
    """
    depths = {(i, j): [] for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    sent = {1: [], 2: [], 3: []}

    def attach(rt):
        seen = [0]

        def sender(send, peer):
            def stamped(op, payload, logical_bits=0):
                depths[(rt.index, peer)].append(seen[0] + 1)
                sent[rt.index].append((rt.meter.current, op, len(payload), seen[0] + 1))
                return send(op, payload, logical_bits)
            return stamped

        def receiver(recv, peer):
            def stamped(op):
                payload = recv(op)
                seen[0] = max(seen[0], depths[(peer, rt.index)].pop(0))
                return payload
            return stamped

        nxt, prv = rss.next_party(rt.index), rss.prev_party(rt.index)
        rt.send_next, rt.send_prev = sender(rt.send_next, nxt), sender(rt.send_prev, prv)
        rt.recv_next, rt.recv_prev = receiver(rt.recv_next, nxt), receiver(rt.recv_prev, prv)

    return sent, attach


def expected_open_counts(res):
    """Plaintext count per candidate group of every fetch ledger entry, keyed by (phase, slot).

    A fetch entry counts each candidate group's members that satisfy its
    slot: the root's one group, or one group per record of the slot's
    parent, holding that record's true neighbours (none for a dummy record)
    among its padded rows. Only the slots whose plan route is ``shuffled
    root`` or ``fetched`` open anything.
    """
    graph, schema, query, results = res["graph"], res["schema"], res["query"], res["results"]
    matcher = _Matcher(graph, query, schema)
    slots = results[0].structure["slots"]
    route = plan(schema, results[0].structure).route

    def neighbours(s, ri, vtype):
        code = row_code([r.records[s].ids for r in results], ri)
        if not code:  # a dummy record
            return []
        ext = schema.types[slots[s]["type"]].ext_ids[code - 1]
        return graph.posting_list(graph.index_of[ext], vtype)

    out = {}
    for s, slot in enumerate(slots):
        parent = query.parent[s]
        if parent is None:
            groups = [graph.type_members[slot["type"]]]
        else:
            groups = [neighbours(parent, ri, slot["type"])
                      for ri in range(results[0].records[parent].rows)]
        if groups and route[s] in ("shuffled root", "fetched"):
            out[("secFetch", s)] = [sum(matcher.vertex_ok(s, w) for w in g) for g in groups]
    return out


def expected_access_segments(res):
    """Segments of every secAccess ledger entry, keyed by child slot, or by 0 for the root.

    An access opens every selected code masked by a one-time pad, one
    segment per record of the parent slot: its ``padded`` codes of
    ``id_width`` bits. A shuffled root with children first opens its kept
    records' codes masked the same way, one segment of ``id_width`` bits
    each. The masked bits are not public values, so only their segments are
    expected, never their popcounts.
    """
    schema, query, results = res["schema"], res["query"], res["results"]
    slots = results[0].structure["slots"]
    qp = plan(schema, results[0].structure)
    out = {}
    for c, slot in enumerate(slots):
        parent = query.parent[c]
        if parent is None:
            rows = results[0].records[0].rows
            if qp.route[0] == "shuffled root" and slot["children"] and rows:
                out[0] = (schema.types[slot["type"]].id_width,) * rows
            continue
        rows = results[0].records[parent].rows
        if qp.padded[c] and rows:
            out[c] = (qp.padded[c] * schema.types[slot["type"]].id_width,) * rows
    return out


def opened_counts(entry) -> list[int]:
    """Popcount of each segment (candidate group) of one ledger entry."""
    bounds = np.cumsum((0,) + entry.segments)
    return [int(entry.bits[lo:hi].sum()) for lo, hi in zip(bounds[:-1], bounds[1:])]


def reference_decode(result_sets, schema):
    """Record-by-record decoding, the reference for ``engine.decode_records``.

    Opens every field of every record on its own, as one vector, and returns
    the same per-slot ``(ext_ids, attrs)`` columns.
    """
    decoded = []
    for s, slot in enumerate(result_sets[0].structure["slots"]):
        ts = schema.types[slot["type"]]
        tables = [r.records[s] for r in result_sets]
        exts = []
        attrs = {a: [] for a in sorted({p["attr"] for p in slot["preds"]})}
        for ri in range(tables[0].rows):
            code = row_code([t.ids for t in tables], ri)
            if code > ts.population:
                raise ValueError(f"slot {s} record {ri}: id code {code} exceeds the population")
            exts.append(ts.ext_ids[code - 1] if code else None)
            for a, values in attrs.items():
                code = row_code([t.attrs[a] for t in tables], ri)
                if code > ts.attrs[a].domain_size:
                    raise ValueError(f"slot {s} record {ri}: attribute {a!r} code {code} "
                                     f"exceeds its dictionary")
                values.append(ts.attrs[a].values[code - 1] if code else None)
        decoded.append((exts, attrs))
    return decoded


def chainmap_assemble(slots, records):
    """Reference subgraph assembly: a recursive walk, one ``ChainMap`` per record."""
    first = {child: np.searchsorted(records[child].parent_record,
                                    np.arange(records[s].rows + 1)).tolist()
             for s, slot in enumerate(slots) for child in slot["children"]}

    def expand(slot, ri):
        parts = [[a for cri in range(first[c][ri], first[c][ri + 1]) for a in expand(c, cri)]
                 for c in slots[slot]["children"]]
        return [ChainMap({slot: ri}, *pick) for pick in product(*parts)]

    return [tuple(a[s] for s in range(len(slots)))
            for ri in range(records[0].rows) for a in expand(0, ri)]


def reference_open(result_sets, decoded):
    """``(matches, details)`` of :func:`reference_decode`'s output, dummy subgraphs dropped.

    The subgraphs are :func:`chainmap_assemble`'s, not ``engine.assemble``'s.
    """
    matches, details = [], []
    slots, records = result_sets[0].structure["slots"], result_sets[0].records
    for combo in chainmap_assemble(slots, records):
        ids = tuple(decoded[s][0][ri] for s, ri in enumerate(combo))
        if all(ext is not None for ext in ids):
            matches.append(ids)
            details.append([(ext, {a: v[ri] for a, v in decoded[s][1].items()})
                            for s, (ri, ext) in enumerate(zip(combo, ids))])
    return matches, details


def rewrite_manifest(path, edit) -> None:
    """Apply ``edit`` to the manifest of a token or result file, and recompute its SHA-256.

    Written from the documented layout, not from the codec: the 39-byte
    header, the manifest's u32 length and JSON, the records, the SHA-256.
    """
    data = path.read_bytes()[:-32]
    (n,) = struct.unpack_from("<I", data, 39)
    doc = json.loads(data[43:43 + n])
    edit(doc)
    blob = json.dumps(doc).encode()
    data = data[:39] + struct.pack("<I", len(blob)) + blob + data[43 + n:]
    path.write_bytes(data + hashlib.sha256(data).digest())


def old_result_layout(doc) -> None:
    """Turn a result manifest into the earlier version 3 layout, in place.

    That layout stored each record as ``{"parent_record", "parent_slot"}``,
    with ``None`` at the root, and the assembled subgraph list.
    """
    slots = doc["structure"]["slots"]
    parents = doc.pop("parent_records")
    parent_slot = {c: s for s, slot in enumerate(slots) for c in slot["children"]}
    doc["records"] = [[{"parent_record": None if p < 0 else p, "parent_slot": parent_slot.get(s)}
                       for p in ps] for s, ps in enumerate(parents)]
    records = [RecordTable(None, {}, np.array(ps, np.int64)) for ps in parents]
    doc["subgraphs"] = [list(sg) for sg in assemble(slots, records)]
