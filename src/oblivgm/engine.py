"""Secure matching engine.

Four cooperating pieces, each executed in lockstep by the three parties:

* predicate evaluation: every party evaluates its two FSS keys over the
  public positions of a candidate's attribute shares, producing two of the
  six additive terms per candidate; one bit per candidate is re-shared.
* matched-vertex fetch: a unique-valued attribute lets the parties fold each
  candidate group into a single record with pure local algebra plus one
  re-share per field; otherwise the flag/id/value table is obliviously
  shuffled and only the shuffled flag column is opened.
* neighbor access: matched vertices' posting lists are pulled out of the
  whole parent-type population by one-hot selection, validity flags are
  computed, shuffled and opened to discard padding, and the surviving
  neighbors' attribute values are fetched by one-hot selection again.
* the matcher walks the query tree breadth-first, carrying public
  provenance (which parent record a candidate group descends from), and
  finally assembles complete subgraphs and prunes partial branches.

Each query slot runs as one batch. Its candidate groups, one per matched
parent record, are stacked into word matrices with public per-group row
counts (segments), and every protocol step carries the whole slot in one
message: one re-share per evaluation pass, one shuffle in which each group
is permuted under its own table id, one open of all shuffled flags. The
opened flags and the group boundaries are exactly what per-group steps
would reveal, so batching leaks nothing more, and the number of rounds a
query takes grows with its number of slots, not with its matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import fss, rss
from .bits import BitVector, mask_tail, stack_rows, unpack_bits, words_for
from .graphs import GraphSchema, GraphShare
from .net import OP_RESHARE, ProtocolError
from .query import PartyToken
from .shuffle import MatchTable, sec_shuffle


@dataclass
class EngineConfig:
    any_mode: str = "or"  # ANY combiner: logical "or", or the literal "xor" chain
    progress: object | None = None


@dataclass
class CandidateGroup:
    """Stacked candidate shares with public provenance."""

    parent_slot: int | None
    parent_record: int | None
    count: int
    id_width: int  # parent-type population the one-hot ids range over
    ids_a: np.ndarray  # (count, words(id_width))
    ids_b: np.ndarray
    attrs: dict[str, tuple[np.ndarray, np.ndarray]]
    attr_widths: dict[str, int]


@dataclass
class MatchedRecord:
    parent_slot: int | None
    parent_record: int | None
    vertex_id: rss.SharedBitVector
    attrs: dict[str, rss.SharedBitVector]


@dataclass
class MatchResultSet:
    party_index: int
    structure: dict
    records: list[list[MatchedRecord]]
    subgraphs: list[tuple[int, ...]]
    opened_flags: list[tuple[str, np.ndarray]] = field(default_factory=list)


def _parity_rows(mat: np.ndarray) -> np.ndarray:
    if mat.size == 0:
        return np.zeros(mat.shape[0], dtype=np.uint8)
    acc = np.bitwise_xor.reduce(mat, axis=-1)
    return (np.bitwise_count(acc) & 1).astype(np.uint8)


def _row_share(rt, pair: tuple[np.ndarray, np.ndarray], row: int,
               width: int) -> rss.SharedBitVector:
    return rss.SharedBitVector(rt.index, BitVector(pair[0][row], width),
                               BitVector(pair[1][row], width))


def _reshare_matrix(rt, additive: np.ndarray, width: int):
    """Re-share a batch of additive rows in one message; returns (a, b) matrices."""
    rows, w = additive.shape
    zs = rt.zero_share(rows * w * 32).words.reshape(rows, w)
    blinded = additive ^ zs
    if width % 32 and w:
        blinded[:, -1] &= np.uint32((1 << (width % 32)) - 1)
    rt.send_next(OP_RESHARE, blinded.tobytes(), logical_bits=rows * width)
    raw = rt.recv_prev(OP_RESHARE)
    if len(raw) != rows * w * 4:
        raise ProtocolError(f"re-share message has {len(raw)} bytes, expected {rows * w * 4}")
    received = np.frombuffer(raw, dtype=np.uint32).reshape(rows, w)
    return received, blinded


def _select_one_additive(bits_a, bits_b, mat_a, mat_b) -> np.ndarray:
    """Additive share of XOR_c bit[c] AND row[c], folded over the first axis."""
    pa = bits_a.astype(bool)
    qa = bits_b.astype(bool)
    shape = (len(pa),) + (1,) * (mat_a.ndim - 1)
    terms = np.where(pa.reshape(shape), mat_a ^ mat_b, np.uint32(0))
    terms ^= np.where(qa.reshape(shape), mat_a, np.uint32(0))
    return np.bitwise_xor.reduce(terms, axis=0)


def _select_many_additive(sel_a, sel_b, mat_a, mat_b) -> np.ndarray:
    """Row-batched one-hot selection: (K, X) selector bits against (X, W) rows."""
    k, x = sel_a.shape
    w = mat_a.shape[1]
    out = np.zeros((k, w), dtype=np.uint32)
    axb = mat_a ^ mat_b
    # chunk over selector rows to bound the (k, x, w) intermediate at 64 Ki
    # words: a whole slot's posting lists are selected at once, and chunks of
    # this size run as fast as larger ones while keeping peak memory flat
    step = max(1, (1 << 16) // max(1, x * w))
    for lo in range(0, k, step):
        hi = min(k, lo + step)
        pa = sel_a[lo:hi].astype(bool)[:, :, None]
        qa = sel_b[lo:hi].astype(bool)[:, :, None]
        terms = np.where(pa, axb[None, :, :], np.uint32(0))
        terms ^= np.where(qa, mat_a[None, :, :], np.uint32(0))
        out[lo:hi] = np.bitwise_xor.reduce(terms, axis=1)
    return out


class _OpenLabels:
    """Monotone open labels; identical across parties because allocation is lockstep."""

    def __init__(self):
        self._n = 0

    def next(self) -> int:
        self._n += 1
        return self._n


def _open_flags(rt, shuffled: MatchTable, labels: _OpenLabels) -> np.ndarray:
    """Open the flag column (bit 0 of every row) of a shuffled table."""
    flag_col = rss.SharedBitVector(
        rt.index,
        BitVector.from_bits(shuffled.share_a[:, 0] & 1),
        BitVector.from_bits(shuffled.share_b[:, 0] & 1),
    )
    return rss.open_shared(rt, flag_col, label=labels.next()).to_bits()


def _pack_fields(fields: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Rows of packed ``(matrix, width)`` fields laid end to end; inverse of :func:`_bit_field`."""
    out = np.zeros((fields[0][0].shape[0], words_for(sum(w for _, w in fields))), np.uint32)
    pos = 0
    for mat, width in fields:
        mat = mask_tail(mat.copy(), width)  # share words may carry bits past the width
        start, shift = divmod(pos, 32)
        out[:, start:start + mat.shape[1]] |= mat << np.uint32(shift)
        if shift:
            spill = mat[:, :out.shape[1] - start - 1] >> np.uint32(32 - shift)
            out[:, start + 1:start + 1 + spill.shape[1]] |= spill
        pos += width
    return out


def _bit_field(mat: np.ndarray, pos: int, width: int) -> np.ndarray:
    """Bits ``[pos, pos + width)`` of every row of a packed matrix, moved to bit 0."""
    start, shift = divmod(pos, 32)
    out = mat[:, start:start + words_for(width)] >> np.uint32(shift)
    if shift:
        hi = mat[:, start + 1:start + words_for(width) + 1]
        out[:, :hi.shape[1]] |= hi << np.uint32(32 - shift)
    return mask_tail(out, width)


def _split(keep: np.ndarray, segments) -> list[slice]:
    """Per segment, the slice of the sorted row indices ``keep`` that falls in it."""
    ends = np.searchsorted(keep, np.cumsum(segments))
    starts = np.concatenate(([0], ends[:-1]))
    return [slice(int(lo), int(hi)) for lo, hi in zip(starts, ends)]


# ---------------------------------------------------------------------------
# predicate evaluation
# ---------------------------------------------------------------------------


def sec_eval(rt, groups: list[CandidateGroup], key_pair, attr: str,
             domain_size: int) -> rss.SharedBitVector:
    """Evaluate one predicate over a slot's stacked groups; one shared bit each.

    Each evaluation pass re-shares one bit per candidate of every group in a
    single message. Interval keys run two passes (their two comparison
    halves), doubling the communication.
    """
    first, second = key_pair
    passes = list(zip(fss.key_parts_for_engine(first), fss.key_parts_for_engine(second)))
    da = stack_rows([g.attrs[attr][0] for g in groups])
    db = stack_rows([g.attrs[attr][1] for g in groups])
    result: rss.SharedBitVector | None = None
    for part_a, part_b in passes:
        ind_a = fss.full_domain_eval(part_a, domain_size).words
        ind_b = fss.full_domain_eval(part_b, domain_size).words
        additive_bits = _parity_rows(da & ind_a[None, :]) ^ _parity_rows(db & ind_b[None, :])
        shared = rss.reshare(rt, BitVector.from_bits(additive_bits))
        result = shared if result is None else result.xor(shared)
    return result


def combine_predicates(rt, bits: list[rss.SharedBitVector], combiner: str,
                       any_mode: str = "or") -> rss.SharedBitVector:
    """Fold per-predicate shared bits by the public Boolean combiner."""
    if not bits:
        raise ValueError("no predicate bits to combine")
    acc = bits[0]
    if combiner == "ALL":
        for nxt in bits[1:]:
            acc = rss.and_gate(rt, acc, nxt)
        return acc
    if combiner != "ANY":
        raise ValueError(f"unknown combiner {combiner!r}")
    if any_mode == "xor":
        for nxt in bits[1:]:
            acc = acc.xor(nxt)
        return acc
    if any_mode != "or":
        raise ValueError(f"unknown ANY mode {any_mode!r}")
    for nxt in bits[1:]:
        conj = rss.and_gate(rt, acc, nxt)
        acc = acc.xor(nxt).xor(conj)
    return acc


# ---------------------------------------------------------------------------
# matched-vertex fetch
# ---------------------------------------------------------------------------


def sec_fetch_unique(rt, groups: list[CandidateGroup],
                     flags: rss.SharedBitVector) -> list[MatchedRecord]:
    """Case with at most one satisfying candidate per group: fold by flag bits locally.

    Local AND terms accumulate additively over each group's candidates, then
    a single re-share per field carries every group's folded record;
    communication does not grow with the candidate count. A zero-match group
    folds to the all-zero (dummy) record. Returns one record per group.
    """
    fa = flags.share_a.to_bits()
    fb = flags.share_b.to_bits()
    bounds = np.cumsum([0] + [g.count for g in groups])
    spans = list(zip(bounds[:-1], bounds[1:]))

    def fold(mats, width):
        additive = np.stack([_select_one_additive(fa[lo:hi], fb[lo:hi], *m)
                             for m, (lo, hi) in zip(mats, spans)])
        return _reshare_matrix(rt, additive, width)

    first = groups[0]
    vertex_ids = fold([(g.ids_a, g.ids_b) for g in groups], first.id_width)
    attrs = {name: fold([g.attrs[name] for g in groups], first.attr_widths[name])
             for name in sorted(first.attrs)}
    return [
        MatchedRecord(
            g.parent_slot, g.parent_record,
            _row_share(rt, vertex_ids, i, first.id_width),
            {name: _row_share(rt, pair, i, first.attr_widths[name])
             for name, pair in attrs.items()},
        )
        for i, g in enumerate(groups)
    ]


def sec_fetch_multi(rt, groups: list[CandidateGroup], flags: rss.SharedBitVector,
                    labels: _OpenLabels, audit: list) -> list[MatchedRecord]:
    """General fetch: shuffle flag/id/value rows, open the flags, keep the ones.

    The slot's groups are the segments of one shuffled table, so each group
    is permuted on its own while all of them share the shuffle's three
    messages and one open of the flags.
    """
    first = groups[0]
    attr_names = sorted(first.attrs)
    widths = [first.id_width] + [first.attr_widths[a] for a in attr_names]
    row_width = 1 + sum(widths)

    def build_rows(flag, side):
        mats = [stack_rows([g.ids_a if side == 0 else g.ids_b for g in groups])]
        mats += [stack_rows([g.attrs[a][side] for g in groups]) for a in attr_names]
        return _pack_fields([(flag.to_bits().astype(np.uint32)[:, None], 1)]
                            + list(zip(mats, widths)))

    rows_a = build_rows(flags.share_a, 0)
    rows_b = build_rows(flags.share_b, 1)
    segments = tuple(g.count for g in groups)
    shuffled = sec_shuffle(rt, MatchTable(rt.index, row_width, rows_a, rows_b, segments))
    mask = _open_flags(rt, shuffled, labels)
    audit.append(("fetch", mask.copy()))

    # kept rows, cut back into their fields by whole-matrix slicing
    keep = np.nonzero(mask)[0]
    kept_a, kept_b = shuffled.share_a[keep], shuffled.share_b[keep]
    cuts = [(_bit_field(kept_a, pos, w), _bit_field(kept_b, pos, w))
            for pos, w in zip(np.cumsum([1] + widths[:-1]), widths)]
    records = []
    for g, rows in zip(groups, _split(keep, segments)):
        for i in range(rows.start, rows.stop):
            vid, *vals = (_row_share(rt, cut, i, w) for cut, w in zip(cuts, widths))
            records.append(MatchedRecord(g.parent_slot, g.parent_record, vid,
                                         dict(zip(attr_names, vals))))
    return records


# ---------------------------------------------------------------------------
# neighbor access
# ---------------------------------------------------------------------------


def sec_access(rt, records: list[MatchedRecord], parent_type: str, child_type: str,
               needed_attrs: list[str], gshare: GraphShare, parent_slot: int,
               labels: _OpenLabels, audit: list) -> list[CandidateGroup]:
    """Pull every matched vertex's neighbors of ``child_type`` out of the graph.

    Selection runs over the whole parent-type population, so nothing about
    which vertex matched leaks; padding and zero-extension are discarded only
    after the validity flags have been shuffled. All records travel together:
    one selection re-share, one shuffle with one segment per record (its
    padded posting list), one open, and one re-share per attribute. Returns
    one candidate group per record, in record order.
    """
    schema = gshare.schema
    x_ne = schema.types[child_type].population
    w_ne = words_for(x_ne)
    attr_widths = {a: schema.types[child_type].attrs[a].domain_size for a in needed_attrs}
    lists_a, lists_b = gshare.types[parent_type].posting[child_type]
    x_pa, l_max = lists_a.shape[:2]

    def groups_from(ids_a, ids_b, attrs, spans):
        return [CandidateGroup(parent_slot, ri, sp.stop - sp.start, x_ne,
                               ids_a[sp], ids_b[sp],
                               {a: (m[0][sp], m[1][sp]) for a, m in attrs.items()},
                               attr_widths)
                for ri, sp in enumerate(spans)]

    def no_rows(width):
        return np.zeros((0, words_for(width)), np.uint32)

    empty_attrs = {a: (no_rows(w), no_rows(w)) for a, w in attr_widths.items()}
    if l_max == 0 or not records:
        return groups_from(no_rows(x_ne), no_rows(x_ne), empty_attrs,
                           [slice(0, 0)] * len(records))

    # one-hot selection of every matched vertex's padded posting list
    sel_a = np.stack([r.vertex_id.share_a.to_bits() for r in records])
    sel_b = np.stack([r.vertex_id.share_b.to_bits() for r in records])
    additive = _select_many_additive(sel_a, sel_b, lists_a.reshape(x_pa, -1),
                                     lists_b.reshape(x_pa, -1))
    fetched_a, fetched_b = _reshare_matrix(rt, additive.reshape(-1, w_ne), x_ne)

    # validity flag per fetched row, then shuffle flag||id and open the flags
    rows_a, rows_b = (_pack_fields([(_parity_rows(m).astype(np.uint32)[:, None], 1), (m, x_ne)])
                      for m in (fetched_a, fetched_b))
    segments = (l_max,) * len(records)
    shuffled = sec_shuffle(rt, MatchTable(rt.index, 1 + x_ne, rows_a, rows_b, segments))
    valid = _open_flags(rt, shuffled, labels)
    audit.append(("access", valid.copy()))
    keep = np.nonzero(valid)[0]
    spans = _split(keep, segments)
    if keep.size == 0:
        return groups_from(no_rows(x_ne), no_rows(x_ne), empty_attrs, spans)

    ids_a = _bit_field(shuffled.share_a[keep], 1, x_ne)
    ids_b = _bit_field(shuffled.share_b[keep], 1, x_ne)
    kept_bits_a = unpack_bits(ids_a, x_ne)
    kept_bits_b = unpack_bits(ids_b, x_ne)

    # one-hot fetch of every surviving neighbor's queried attribute values
    attrs: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    child_share = gshare.types[child_type]
    for a in needed_attrs:
        va, vb = child_share.attrs[a]
        additive = _select_many_additive(kept_bits_a, kept_bits_b, va, vb)
        attrs[a] = _reshare_matrix(rt, additive, attr_widths[a])
    return groups_from(ids_a, ids_b, attrs, spans)


# ---------------------------------------------------------------------------
# full query
# ---------------------------------------------------------------------------


def sec_match(rt, token: PartyToken, gshare: GraphShare,
              config: EngineConfig | None = None) -> MatchResultSet:
    """Run the whole query against the encrypted graph at one party."""
    config = config or EngineConfig()
    schema = gshare.schema
    if token.schema_digest != schema.digest():
        raise ValueError("token and graph share were built for different schemas")
    slots = token.structure["slots"]
    labels = _OpenLabels()
    audit: list[tuple[str, np.ndarray]] = []
    groups: list[list[CandidateGroup]] = [[] for _ in slots]
    records: list[list[MatchedRecord]] = [[] for _ in slots]

    def say(msg: str):
        if config.progress:
            config.progress(f"[party-{rt.index}] {msg}")

    for s, slot in enumerate(slots):
        vtype = slot["type"]
        ts = schema.types[vtype]
        needed = sorted({p["attr"] for p in slot["preds"]})
        if s == 0:
            tps = gshare.types[vtype]
            groups[0] = [CandidateGroup(
                None, None, ts.population, ts.population,
                tps.id_a, tps.id_b,
                {a: tps.attrs[a] for a in needed},
                {a: ts.attrs[a].domain_size for a in needed},
            )]
        unique_route = (
            len(slot["preds"]) == 1
            and slot["preds"][0]["kind"] == fss.KIND_EQ
            and ts.attrs[slot["preds"][0]["attr"]].unique
        )
        say(f"slot {s} ({slot['name']}): {sum(g.count for g in groups[s])} candidates "
            f"in {len(groups[s])} groups")
        live = [g for g in groups[s] if g.count]
        if live:
            with rt.meter.phase("secEval"):
                bits = [
                    sec_eval(rt, live, token.slot_keys[s][pi], pred["attr"],
                             ts.attrs[pred["attr"]].domain_size)
                    for pi, pred in enumerate(slot["preds"])
                ]
                flags = combine_predicates(rt, bits, slot["combiner"], config.any_mode)
            with rt.meter.phase("secFetch"):
                if unique_route:
                    records[s] = sec_fetch_unique(rt, live, flags)
                else:
                    records[s] = sec_fetch_multi(rt, live, flags, labels, audit)
        say(f"slot {s} ({slot['name']}): {len(records[s])} matched records")
        for child in slot["children"]:
            child_type = slots[child]["type"]
            child_attrs = sorted({p["attr"] for p in slots[child]["preds"]})
            with rt.meter.phase("secAccess"):
                groups[child] = sec_access(rt, records[s], vtype, child_type, child_attrs,
                                           gshare, s, labels, audit)

    subgraphs = _assemble(slots, records)
    say(f"assembled {len(subgraphs)} complete subgraphs")
    return MatchResultSet(rt.index, token.structure, records, subgraphs, audit)


def _assemble(slots, records: list[list[MatchedRecord]]) -> list[tuple[int, ...]]:
    """Walk public provenance links and keep only complete subtree products."""
    nslots = len(slots)
    children_of = [slot["children"] for slot in slots]
    by_parent: list[dict[int | None, list[int]]] = [{} for _ in range(nslots)]
    for s in range(nslots):
        for ri, rec in enumerate(records[s]):
            by_parent[s].setdefault(rec.parent_record, []).append(ri)

    def expand(slot: int, rec_idx: int) -> list[dict[int, int]]:
        parts: list[list[dict[int, int]]] = []
        for child in children_of[slot]:
            sub: list[dict[int, int]] = []
            for cri in by_parent[child].get(rec_idx, []):
                sub.extend(expand(child, cri))
            if not sub:
                return []
            parts.append(sub)
        out = []
        for pick in product(*parts):
            assignment = {slot: rec_idx}
            for d in pick:
                assignment.update(d)
            out.append(assignment)
        return out

    results = []
    for ri in range(len(records[0])):
        for assignment in expand(0, ri):
            results.append(tuple(assignment[s] for s in range(nslots)))
    return results


# ---------------------------------------------------------------------------
# result reconstruction (front-end side)
# ---------------------------------------------------------------------------


def open_results(result_sets: list[MatchResultSet], schema: GraphSchema):
    """Merge two or three party result sets into plaintext subgraphs.

    Returns ``(matches, details)``: slot-ordered ext-id tuples, and per-match
    decoded attribute values. Subgraphs containing a dummy (all-zero) vertex
    record collapse silently; they stem from unique-fetch groups without a
    satisfying candidate.
    """
    if len(result_sets) < 2:
        raise ValueError("need result shares from at least two parties")
    base = result_sets[0]
    for other in result_sets[1:]:
        if other.structure != base.structure:
            raise ValueError("result metadata differs between parties")
        if other.subgraphs != base.subgraphs:
            raise ValueError("result assembly differs between parties")
        if [len(r) for r in other.records] != [len(r) for r in base.records]:
            raise ValueError("record counts differ between parties")
    slots = base.structure["slots"]
    decoded: list[list[tuple[str | None, dict]]] = []
    for s, slot in enumerate(slots):
        ts = schema.types[slot["type"]]
        out = []
        for ri in range(len(base.records[s])):
            vid = rss.reconstruct([r.records[s][ri].vertex_id for r in result_sets])
            hot = vid.hot_index()
            ext = None if hot is None else ts.ext_ids[hot]
            attrs = {}
            for a in sorted({p["attr"] for p in slot["preds"]}):
                vec = rss.reconstruct([r.records[s][ri].attrs[a] for r in result_sets])
                idx = vec.hot_index()
                attrs[a] = None if idx is None else ts.attrs[a].values[idx]
            out.append((ext, attrs))
        decoded.append(out)
    matches = []
    details = []
    for combo in base.subgraphs:
        ids = tuple(decoded[s][ri][0] for s, ri in enumerate(combo))
        if any(v is None for v in ids):
            continue
        matches.append(ids)
        details.append([decoded[s][ri] for s, ri in enumerate(combo)])
    return matches, details
