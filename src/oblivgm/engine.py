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

Every batch of shares is an :class:`oblivgm.rss.MatchTable`: a candidate
group holds one table per field (the vertex ids and each queried
attribute), and every re-share goes through :func:`oblivgm.rss.reshare_rows`.

A vertex id takes one of two encodings. It is one-hot over the type's
population only while a one-hot selection may still read it: in a slot
that has children, until that slot's neighbor accesses are done. Everywhere
else it is the ``TypeSchema.id_width``-bit code ``c + 1`` of vertex ``c``,
with 0 marking a dummy record. One-hot ``e_c`` maps to ``c + 1`` by a public
GF(2)-linear map, which each party applies to its own two shares
(:func:`_id_codes`), so switching costs no message; a leaf slot's fetch
thus shuffles or folds ``id_width`` bits per candidate, not ``population``.
Root ids are public, row ``c`` being vertex ``c``, so the graph shares hold
none: the root slot's ids are a public constant, codes at a leaf root and
the one-hot identity at a root with children.

Each query slot runs as one batch. Its candidate groups, one per matched
parent record, are stacked into tables whose segments are the public
per-group row counts, and every protocol step carries the whole slot in one
message: one re-share per evaluation pass, one shuffle in which each group
is permuted under its own table id, one open of all shuffled flags. The
opened flags and the group boundaries are exactly what per-group steps
would reveal, so batching leaks nothing more, and the number of rounds a
query takes grows with its number of slots, not with its matches. Every
opened value is entered in the runtime's ledger (``rt.opened``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np

from . import fss, rss
from .bits import BitVector, mask_tail, pack_bits, unpack_bits, words_for
from .graphs import GraphSchema, GraphShare, TypeSchema
from .query import PartyToken
from .rss import MatchTable
from .shuffle import sec_shuffle


@dataclass
class EngineConfig:
    any_mode: str = "or"  # ANY combiner: logical "or", or the literal "xor" chain
    progress: object | None = None


@dataclass
class CandidateGroup:
    """Candidate shares, one table per field, with public provenance."""

    parent_slot: int | None
    parent_record: int | None
    ids: MatchTable  # one-hot ids, or id codes (see the module docstring)
    attrs: dict[str, MatchTable]


@dataclass
class MatchedRecord:
    parent_slot: int | None
    parent_record: int | None
    vertex_id: rss.SharedBitVector  # id code once the slot's accesses are done
    attrs: dict[str, rss.SharedBitVector]


@dataclass
class MatchResultSet:
    party_index: int
    structure: dict
    records: list[list[MatchedRecord]]
    subgraphs: list[tuple[int, ...]]


def _parity_rows(mat: np.ndarray) -> np.ndarray:
    if mat.size == 0:
        return np.zeros(mat.shape[0], dtype=np.uint8)
    acc = np.bitwise_xor.reduce(mat, axis=-1)
    return (np.bitwise_count(acc) & 1).astype(np.uint8)


@lru_cache(maxsize=32)
def _code_tables(population: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ``c``'s id code ``c + 1``, packed two ways; both arrays are read-only.

    Returns ``(codes, masks)``. ``codes`` has one word per row, row ``c``
    holding ``c + 1`` (``width`` is at most 32). Row ``j`` of the
    ``(width, words)`` matrix ``masks`` has bit ``c`` set when bit ``j`` of
    code ``c + 1`` is.
    """
    codes = np.arange(1, population + 1, dtype=np.uint32)
    masks = pack_bits((codes >> np.arange(width, dtype=np.uint32)[:, None]) & 1)
    codes = codes[:, None]
    codes.flags.writeable = masks.flags.writeable = False
    return codes, masks


def _id_codes(ids: MatchTable, ts: TypeSchema) -> MatchTable:
    """Shared one-hot ids as shared id codes, computed locally; segments are kept.

    Code bit ``j`` of a row is the parity of the row AND ``M_j``, the public
    mask of the positions whose code has bit ``j`` set. The map is linear
    over GF(2), so each share component is mapped on its own and no message
    is sent. Every row is ANDed with every mask, so the work does not depend
    on the shared bits.
    """
    _, masks = _code_tables(ts.population, ts.id_width)
    weights = np.uint32(1) << np.arange(ts.id_width, dtype=np.uint32)
    step = max(1, (1 << 16) // masks.size)  # bound the (step, width, words) intermediate

    def encode(share):
        out = np.empty((share.shape[0], 1), np.uint32)
        for lo in range(0, share.shape[0], step):
            acc = np.bitwise_xor.reduce(share[lo:lo + step, None, :] & masks, axis=-1)
            out[lo:lo + step, 0] = ((np.bitwise_count(acc) & 1) * weights).sum(axis=1)
        return out

    return MatchTable(ids.party_index, ts.id_width, encode(ids.share_a), encode(ids.share_b),
                      ids.segments)


def _root_ids(party: int, ts: TypeSchema, one_hot: bool) -> MatchTable:
    """The root slot's public ids, shared by the ``xor_public`` rule.

    Row ``c`` is vertex ``c``: the one-hot ``e_c`` for a root with children,
    whose accesses select by it, else the code ``c + 1``. Party 1 holds
    ``(x, 0)``, party 2 ``(0, 0)`` and party 3 ``(0, x)``.
    """
    x, zero = _public_rows(ts.population, ts.id_width, one_hot)
    return MatchTable(party, ts.population if one_hot else ts.id_width,
                      x if party == 1 else zero, x if party == 3 else zero)


@lru_cache(maxsize=8)
def _public_rows(population: int, width: int, one_hot: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only packed identity or code table, and zeros of its shape."""
    if one_hot:
        x = np.zeros((population, words_for(population)), np.uint32)
        c = np.arange(population)
        x[c, c // 32] = np.uint32(1) << (c % 32).astype(np.uint32)
    else:
        x = _code_tables(population, width)[0]
    zero = np.zeros_like(x)
    x.flags.writeable = zero.flags.writeable = False
    return x, zero


def _select_one_additive(bits_a, bits_b, mat_a, mat_b) -> np.ndarray:
    """Additive share of XOR_c bit[c] AND row[c], folded over the first axis.

    With ``p``, ``q`` the party's two shares of the bits and ``A``, ``B`` of
    the rows, the share is ``(p XOR q)·A XOR p·B`` over GF(2). Both bit
    vectors become 0/0xFFFFFFFF word masks ANDed with every row, so the
    kernel does the same work whatever the bits are. Reading only the rows
    ``p XOR q`` and ``p`` pick would not: ``p XOR q`` is the shared bits
    XOR the third share, so its run time would show the peer holding that
    share the popcount of the bits XOR a vector it knows.
    """
    mask_a = np.negative((bits_a ^ bits_b).astype(np.uint32))[:, None]  # 1 -> 0xFFFFFFFF
    mask_b = np.negative(bits_a.astype(np.uint32))[:, None]
    return (np.bitwise_xor.reduce(mat_a & mask_a, axis=0)
            ^ np.bitwise_xor.reduce(mat_b & mask_b, axis=0))


def _select_many_additive(sel_a, sel_b, mat_a, mat_b) -> np.ndarray:
    """Row-batched one-hot selection: (K, X) selector bits against (X, W) rows.

    Row ``k`` is :func:`_select_one_additive` of selector row ``k``. Its bits
    ``[p XOR q | p]`` become 0/0xFFFFFFFF word masks, ANDed with the
    transposed ``(W, 2X)`` matrix ``[A; B]^T`` and XOR-reduced along its
    contiguous last axis; as in the one-row case, the work does not depend
    on the bits.
    """
    k = sel_a.shape[0]
    rows_t = np.ascontiguousarray(np.concatenate([mat_a, mat_b]).T)
    out = np.empty((k, rows_t.shape[0]), dtype=np.uint32)
    # chunk over selector rows to bound the (step, W, 2X) intermediate and
    # its masks at 64 Ki words: a whole slot's posting lists are selected at
    # once, and chunks of this size run as fast as larger ones while keeping
    # peak memory at one transposed copy of the rows
    step = max(1, (1 << 16) // max(1, rows_t.size))
    for lo in range(0, k, step):
        hi = lo + step
        masks = np.negative(np.concatenate([sel_a[lo:hi] ^ sel_b[lo:hi], sel_a[lo:hi]], 1)
                            .astype(np.uint32))
        out[lo:hi] = np.bitwise_xor.reduce(masks[:, None, :] & rows_t, axis=-1)
    return out


def _open_flags(rt, shuffled: MatchTable) -> np.ndarray:
    """Open the flag column (bit 0 of every row) of a shuffled table."""
    flag_col = rss.SharedBitVector(
        rt.index,
        BitVector.from_bits(shuffled.share_a[:, 0] & 1),
        BitVector.from_bits(shuffled.share_b[:, 0] & 1),
    )
    return rss.open_shared(rt, flag_col).to_bits()


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


def _shuffle_open_keep(rt, flag_bits, fields: list[MatchTable], segments):
    """Shuffle rows of flag || fields segment by segment, open the flags, keep the ones.

    ``flag_bits`` holds the party's two shares of the flag column as 0/1
    arrays. Returns the kept row positions in the shuffled table (sorted, so
    :func:`_split` cuts them per segment) and one table of kept rows per field.
    """
    widths = [f.width for f in fields]

    def packed(bits, mats):
        return _pack_fields([(bits.astype(np.uint32)[:, None], 1)] + list(zip(mats, widths)))

    rows_a = packed(flag_bits[0], [f.share_a for f in fields])
    rows_b = packed(flag_bits[1], [f.share_b for f in fields])
    shuffled = sec_shuffle(rt, MatchTable(rt.index, 1 + sum(widths), rows_a, rows_b, segments))
    keep = np.nonzero(_open_flags(rt, shuffled))[0]
    kept = shuffled.take(keep)
    return keep, [MatchTable(rt.index, w, _bit_field(kept.share_a, pos, w),
                             _bit_field(kept.share_b, pos, w))
                  for pos, w in zip(np.cumsum([1] + widths[:-1]), widths)]


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
    values = MatchTable.stack([g.attrs[attr] for g in groups])
    result: rss.SharedBitVector | None = None
    for part_a, part_b in passes:
        ind_a = fss.full_domain_eval(part_a, domain_size).words
        ind_b = fss.full_domain_eval(part_b, domain_size).words
        additive_bits = (_parity_rows(values.share_a & ind_a[None, :])
                         ^ _parity_rows(values.share_b & ind_b[None, :]))
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
    bounds = np.cumsum([0] + [g.ids.rows for g in groups])
    spans = list(zip(bounds[:-1], bounds[1:]))

    def fold(tables: list[MatchTable]) -> MatchTable:
        additive = np.stack([_select_one_additive(fa[lo:hi], fb[lo:hi], t.share_a, t.share_b)
                             for t, (lo, hi) in zip(tables, spans)])
        return rss.reshare_rows(rt, additive, tables[0].width)

    vertex_ids = fold([g.ids for g in groups])
    attrs = {name: fold([g.attrs[name] for g in groups]) for name in sorted(groups[0].attrs)}
    return [
        MatchedRecord(g.parent_slot, g.parent_record, vertex_ids.row(i),
                      {name: t.row(i) for name, t in attrs.items()})
        for i, g in enumerate(groups)
    ]


def sec_fetch_multi(rt, groups: list[CandidateGroup],
                    flags: rss.SharedBitVector) -> list[MatchedRecord]:
    """General fetch: shuffle flag/id/value rows, open the flags, keep the ones.

    The slot's groups are the segments of one shuffled table, so each group
    is permuted on its own while all of them share the shuffle's four frames
    and one open of the flags. The id field is as wide as the groups' ids:
    ``id_width`` bits of code in a leaf slot, the population in a slot whose
    records are still to be accessed.
    """
    attr_names = sorted(groups[0].attrs)
    fields = [MatchTable.stack([g.ids for g in groups])]
    fields += [MatchTable.stack([g.attrs[a] for g in groups]) for a in attr_names]
    segments = fields[0].segments
    keep, cuts = _shuffle_open_keep(rt, (flags.share_a.to_bits(), flags.share_b.to_bits()),
                                    fields, segments)
    records = []
    for g, rows in zip(groups, _split(keep, segments)):
        for i in range(rows.start, rows.stop):
            vid, *vals = (cut.row(i) for cut in cuts)
            records.append(MatchedRecord(g.parent_slot, g.parent_record, vid,
                                         dict(zip(attr_names, vals))))
    return records


# ---------------------------------------------------------------------------
# neighbor access
# ---------------------------------------------------------------------------


def sec_access(rt, records: list[MatchedRecord], parent_type: str, child_type: str,
               needed_attrs: list[str], gshare: GraphShare,
               parent_slot: int) -> list[CandidateGroup]:
    """Pull every matched vertex's neighbors of ``child_type`` out of the graph.

    Selection runs over the whole parent-type population, so nothing about
    which vertex matched leaks; padding and zero-extension are discarded only
    after the validity flags have been shuffled. All records travel together:
    one selection re-share, one shuffle with one segment per record (its
    padded posting list), one open, and one re-share per attribute. Returns
    one candidate group per record, in record order.
    """
    child = gshare.schema.types[child_type]
    attr_widths = {a: child.attrs[a].domain_size for a in needed_attrs}
    lists_a, lists_b = gshare.types[parent_type].posting[child_type]
    x_pa, l_max = lists_a.shape[:2]

    def no_rows(width):
        empty = np.zeros((0, words_for(width)), np.uint32)
        return MatchTable(rt.index, width, empty, empty)

    ids = no_rows(child.population)
    attrs = {a: no_rows(w) for a, w in attr_widths.items()}
    spans = [slice(0, 0)] * len(records)
    if l_max and records:
        # one-hot selection of every matched vertex's padded posting list
        sel_a = np.stack([r.vertex_id.share_a.to_bits() for r in records])
        sel_b = np.stack([r.vertex_id.share_b.to_bits() for r in records])
        additive = _select_many_additive(sel_a, sel_b, lists_a.reshape(x_pa, -1),
                                         lists_b.reshape(x_pa, -1))
        fetched = rss.reshare_rows(rt, additive.reshape(-1, words_for(child.population)),
                                   child.population)

        # a fetched row is valid when it holds a one-hot id; shuffle, open, keep
        segments = (l_max,) * len(records)
        valid = (_parity_rows(fetched.share_a), _parity_rows(fetched.share_b))
        keep, (ids,) = _shuffle_open_keep(rt, valid, [fetched], segments)
        spans = _split(keep, segments)

        if keep.size:
            # one-hot fetch of every surviving neighbor's queried attribute values
            kept_a = unpack_bits(ids.share_a, child.population)
            kept_b = unpack_bits(ids.share_b, child.population)
            attrs = {a: rss.reshare_rows(rt, _select_many_additive(
                         kept_a, kept_b, *gshare.types[child_type].attrs[a]), w)
                     for a, w in attr_widths.items()}
    return [CandidateGroup(parent_slot, ri, ids.take(sp), {a: t.take(sp) for a, t in attrs.items()})
            for ri, sp in enumerate(spans)]


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
            tps = gshare.types[vtype]  # wrapped, not copied
            groups[0] = [CandidateGroup(
                None, None, _root_ids(rt.index, ts, one_hot=bool(slot["children"])),
                {a: MatchTable(rt.index, ts.attrs[a].domain_size, *tps.attrs[a]) for a in needed},
            )]
        unique_route = (
            len(slot["preds"]) == 1
            and slot["preds"][0]["kind"] == fss.KIND_EQ
            and ts.attrs[slot["preds"][0]["attr"]].unique
        )
        say(f"slot {s} ({slot['name']}): {sum(g.ids.rows for g in groups[s])} candidates "
            f"in {len(groups[s])} groups")
        live = [g for g in groups[s] if g.ids.rows]
        if live and s and not slot["children"]:  # no selection reads a leaf's ids
            codes = _id_codes(MatchTable.stack([g.ids for g in live]), ts)
            bounds = np.cumsum((0,) + codes.segments)
            live = [replace(g, ids=codes.take(slice(lo, hi)))
                    for g, lo, hi in zip(live, bounds, bounds[1:])]
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
                    records[s] = sec_fetch_multi(rt, live, flags)
        say(f"slot {s} ({slot['name']}): {len(records[s])} matched records")
        for child in slot["children"]:
            child_type = slots[child]["type"]
            child_attrs = sorted({p["attr"] for p in slots[child]["preds"]})
            with rt.meter.phase("secAccess"):
                groups[child] = sec_access(rt, records[s], vtype, child_type, child_attrs,
                                           gshare, s)
        if slot["children"] and records[s]:  # accessed: from here on, codes
            codes = _id_codes(MatchTable.from_rows([r.vertex_id for r in records[s]]), ts)
            records[s] = [replace(r, vertex_id=codes.row(i)) for i, r in enumerate(records[s])]

    subgraphs = _assemble(slots, records)
    say(f"assembled {len(subgraphs)} complete subgraphs")
    return MatchResultSet(rt.index, token.structure, records, subgraphs)


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
    decoded attribute values. Subgraphs containing a dummy vertex record (id
    code 0) collapse silently; they stem from unique-fetch groups without a
    satisfying candidate. A code past the type's population raises
    ``ValueError``.
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
            code = rss.reconstruct([r.records[s][ri].vertex_id for r in result_sets]).to_int()
            if code > ts.population:
                raise ValueError(f"slot {s} record {ri}: id code {code} exceeds the "
                                 f"{ts.population} vertices of type {slot['type']!r}")
            ext = ts.ext_ids[code - 1] if code else None
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
