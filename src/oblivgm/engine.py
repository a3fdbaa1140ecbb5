"""Secure matching engine.

Four cooperating pieces, each executed in lockstep by the three parties:

* predicate evaluation: every party evaluates its two FSS keys over the
  public positions of a candidate's attribute shares, producing two of the
  six additive terms per candidate; one bit per candidate is re-shared.
* matched-vertex fetch: a unique-valued attribute lets the parties fold each
  candidate group into a single record with pure local algebra plus one
  re-share; otherwise the flag/id/value table is obliviously
  shuffled and only the shuffled flag column is opened.
* neighbor access: matched vertices' posting lists are pulled out of the
  whole parent-type population by one-hot selection, validity flags are
  computed, shuffled and opened to discard padding, and the surviving
  neighbors' attribute values are fetched by one-hot selection again.
* the matcher walks the query tree level by level, carrying public
  provenance (which parent record each row descends from), and finally
  assembles complete subgraphs and prunes partial branches.

A query slot's candidates, and then its matched records, are one
:class:`RecordTable`: a :class:`oblivgm.rss.MatchTable` per field (the
vertex ids and each queried attribute) and a public ``parent_record`` array.
A candidate group is a run of rows with one parent record. Every re-share
goes through :func:`oblivgm.rss.reshare_rows`.

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
the one-hot identity at a root with children. A unique-route root needs
none at all: its folded one-hot id is its flag vector.

The query tree runs level by level. Slots are numbered breadth-first, and
each protocol step carries every slot of a level in one message per party:
one re-share of every predicate's bits, one AND re-share per combining
step, one fold re-share for the unique-route slots, one shuffle of the
multi-route slots' tables and one open of their flags, and, for all edges
out of the level together, one selection re-share, one shuffle, one open of
the validity flags and one attribute re-share. Within a table, each
candidate group is a segment permuted under its own table id. The opened
flags and the group boundaries are exactly what per-group steps would
reveal, so batching leaks nothing more, and the number of rounds a query
takes grows with the depth of its tree, not with its slots or its matches.
Every opened value is entered in the runtime's ledger (``rt.opened``), one
entry per slot with that slot's group segments.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np

from . import fss, rss
from .bits import BitVector, mask_tail, pack_bits, unpack_bits, words_for
from .graphs import GraphSchema, GraphShare, TypeSchema
from .query import PartyToken, QueryFormatError
from .rss import MatchTable
from .shuffle import sec_shuffle


@dataclass
class EngineConfig:
    any_mode: str = "or"  # ANY combiner: logical "or", or the literal "xor" chain
    progress: object | None = None


@dataclass
class RecordTable:
    """A query slot's rows: one table per field, with public provenance.

    Row ``r`` descends from record ``parent_record[r]`` of the parent slot
    (-1 at the root). Rows are sorted by parent record; a run of one parent
    record is one candidate group. ``ids`` are one-hot or id codes.
    """

    ids: MatchTable | None  # None only for the root's public ids in the unique route
    attrs: dict[str, MatchTable]
    parent_record: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.parent_record)

    def groups(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """The parent record of each candidate group, and each group's row count."""
        parents, counts = np.unique(self.parent_record, return_counts=True)
        return parents, tuple(counts.tolist())


@dataclass
class MatchResultSet:
    party_index: int
    structure: dict
    records: list[RecordTable]  # one table per query slot
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


def _no_rows(party: int, width: int) -> MatchTable:
    empty = np.zeros((0, words_for(width)), np.uint32)
    return MatchTable(party, width, empty, empty)


def _flag_bits(flag: MatchTable) -> tuple[np.ndarray, np.ndarray]:
    """The party's two shares of a one-row flag table as 0/1 arrays."""
    return unpack_bits(flag.share_a, flag.width)[0], unpack_bits(flag.share_b, flag.width)[0]


def _open_flags(rt, shuffled: list[MatchTable], slots=None) -> np.ndarray:
    """Open the flag columns (bit 0 of every row) of shuffled tables in one message.

    ``slots`` tags each table's flags in the ledger, split by its segments.
    """
    def column(side):
        return pack_bits(np.concatenate([getattr(t, side)[:, 0] & 1 for t in shuffled]))[None]

    parts = None if slots is None else [(s, t.segments) for s, t in zip(slots, shuffled)]
    flags = MatchTable(rt.index, sum(t.rows for t in shuffled), column("share_a"),
                       column("share_b"))
    return rss.open_shared(rt, flags, slots=parts).to_bits()


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


def _shuffle_open_keep(rt, jobs, slots=None):
    """Shuffle rows of flag || fields segment by segment, open the flags, keep the ones.

    ``jobs`` holds one ``(flag_bits, fields, segments)`` per table:
    ``flag_bits`` the party's two shares of the flag column as 0/1 arrays,
    ``fields`` a list of tables. Every job's table rides in one shuffle and
    its flags in one open, tagged ``slots`` in the ledger. Returns per job
    the kept row positions in its shuffled table, sorted, and one table of
    kept rows per field. A segment is permuted within its own rows, so a
    kept position tells which segment the row came from.
    """
    tables = []
    for flag_bits, fields, segments in jobs:
        rows = [_pack_fields([(bits.astype(np.uint32)[:, None], 1)]
                             + [(getattr(f, side), f.width) for f in fields])
                for bits, side in zip(flag_bits, ("share_a", "share_b"))]
        tables.append(MatchTable(rt.index, 1 + sum(f.width for f in fields), *rows, segments))
    shuffled = sec_shuffle(rt, tables[0], more=tables[1:])
    flags = _open_flags(rt, shuffled, slots)
    out, pos = [], 0
    for table, (_, fields, _) in zip(shuffled, jobs):
        keep = np.nonzero(flags[pos:pos + table.rows])[0]
        pos += table.rows
        kept = table.take(keep)
        widths = [f.width for f in fields]
        out.append((keep, [MatchTable(rt.index, w, _bit_field(kept.share_a, at, w),
                                      _bit_field(kept.share_b, at, w))
                           for at, w in zip(np.cumsum([1] + widths[:-1]), widths)]))
    return out


# ---------------------------------------------------------------------------
# predicate evaluation
# ---------------------------------------------------------------------------


def sec_eval(rt, preds: list[tuple[MatchTable, tuple]]) -> list[MatchTable]:
    """Evaluate predicates over candidate attribute tables; one shared bit per candidate each.

    ``preds`` holds one ``(values, key_pair)`` per predicate: the candidates'
    one-hot attribute rows over a domain of ``values.width`` values, and the
    party's two FSS keys. Every key takes one pass, interval keys included
    (:func:`oblivgm.fss.full_domain_eval` XORs their two comparison halves);
    all keys are evaluated in one call, and one message re-shares the bits
    of every predicate.
    """
    keys = [(key, values.width) for values, pair in preds for key in pair]
    ind = fss.full_domain_eval(*keys[0], more=keys[1:])
    additive = [BitVector.from_bits(_parity_rows(values.share_a & ind_a.words[None, :])
                                    ^ _parity_rows(values.share_b & ind_b.words[None, :]))
                for (values, _), ind_a, ind_b in zip(preds, ind[0::2], ind[1::2])]
    return rss.reshare(rt, additive[0], more=additive[1:])


def combine_predicates(rt, bits: list[list[MatchTable]], combiners: list[str],
                       any_mode: str = "or") -> list[MatchTable]:
    """Fold each slot's per-predicate shared bits by the slot's public Boolean combiner.

    The slots advance together: step ``j`` folds every slot's predicate
    ``j`` into its accumulator, and the AND gates of that step share one
    re-share, so a level of slots takes one round per combining step.
    """
    if not bits or not all(bits):
        raise ValueError("no predicate bits to combine")
    for combiner in combiners:
        if combiner not in ("ALL", "ANY"):
            raise ValueError(f"unknown combiner {combiner!r}")
        if combiner == "ANY" and any_mode not in ("or", "xor"):
            raise ValueError(f"unknown ANY mode {any_mode!r}")
    accs = [preds[0] for preds in bits]
    for j in range(1, max(map(len, bits))):
        step = [i for i, preds in enumerate(bits) if len(preds) > j]
        gated = [i for i in step if combiners[i] == "ALL" or any_mode == "or"]
        conj = {}
        if gated:
            pairs = [(accs[i], bits[i][j]) for i in gated]
            conj = dict(zip(gated, rss.and_gate(rt, *pairs[0], more=pairs[1:])))
        for i in step:
            if combiners[i] == "ALL":
                accs[i] = conj[i]
            elif any_mode == "xor":
                accs[i] = accs[i].xor(bits[i][j])
            else:  # a OR b = a XOR b XOR (a AND b)
                accs[i] = accs[i].xor(bits[i][j]).xor(conj[i])
    return accs


# ---------------------------------------------------------------------------
# matched-vertex fetch
# ---------------------------------------------------------------------------


def sec_fetch_unique(rt, cands: list[RecordTable],
                     flags: list[MatchTable]) -> list[RecordTable]:
    """Case with at most one satisfying candidate per group: fold by flag bits locally.

    Local AND terms accumulate additively over each group's candidates, then
    a single re-share carries every field of every table's folded records;
    communication does not grow with the candidate count. A zero-match group
    folds to the all-zero (dummy) record. Returns one record per group.

    A table without ``ids`` is the root slot's, whose row ``c`` is vertex
    ``c``: its one record's one-hot id, ``sum_c flag_c * e_c``, is the flag
    vector itself, so only its attributes are folded and re-shared.
    """
    folds, groups = [], []
    for cand, flag in zip(cands, flags):
        parents, counts = cand.groups()
        groups.append(parents)
        fa, fb = _flag_bits(flag)
        bounds = np.cumsum((0,) + counts)
        spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        fields = [cand.attrs[a] for a in sorted(cand.attrs)]
        for t in fields if cand.ids is None else [cand.ids] + fields:
            folds.append((np.stack([_select_one_additive(fa[sp], fb[sp], t.share_a[sp],
                                                         t.share_b[sp]) for sp in spans]),
                          t.width))
    tables = iter(rss.reshare_rows(rt, *folds[0], more=folds[1:]))
    out = []
    for cand, flag, parents in zip(cands, flags, groups):
        ids = flag if cand.ids is None else next(tables)
        out.append(RecordTable(ids, {a: next(tables) for a in sorted(cand.attrs)}, parents))
    return out


def sec_fetch_multi(rt, cands: list[RecordTable], flags: list[MatchTable],
                    slots=None) -> list[RecordTable]:
    """General fetch: shuffle flag/id/value rows, open the flags, keep the ones.

    A table's groups are its segments, so each group is permuted on its own,
    while every table shares the shuffle's four frames and one open of the
    flags, tagged ``slots`` in the ledger; a kept row keeps its group's
    parent record. The id field is as wide as the candidates' ids:
    ``id_width`` bits of code in a leaf slot, the population in a slot whose
    records are still to be accessed.
    """
    jobs = [(_flag_bits(flag), [cand.ids] + [cand.attrs[a] for a in sorted(cand.attrs)],
             cand.groups()[1]) for cand, flag in zip(cands, flags)]
    return [RecordTable(ids, dict(zip(sorted(cand.attrs), values)), cand.parent_record[keep])
            for cand, (keep, (ids, *values)) in zip(cands, _shuffle_open_keep(rt, jobs, slots))]


# ---------------------------------------------------------------------------
# neighbor access
# ---------------------------------------------------------------------------


def sec_access(rt, edges, gshare: GraphShare, slots=None) -> list[RecordTable]:
    """Pull every matched vertex's neighbors out of the graph, for several query edges.

    ``edges`` holds one ``(records, parent_type, child_type, needed_attrs)``
    per edge. Selection runs over the whole parent-type population, so
    nothing about which vertex matched leaks; padding and zero-extension are
    discarded only after the validity flags have been shuffled. All edges'
    records travel together: one selection re-share, one shuffle with one
    segment per record (its padded posting list), one open, tagged ``slots``
    in the ledger, and one re-share of every needed attribute. Returns each
    edge's child candidates, sorted by the record they descend from.
    """
    children = [gshare.schema.types[child_type] for _, _, child_type, _ in edges]
    lists = [gshare.types[parent_type].posting[child_type]
             for _, parent_type, child_type, _ in edges]
    l_max = [lists_a.shape[1] for lists_a, _ in lists]
    live = [i for i, (records, *_) in enumerate(edges) if l_max[i] and records.rows]
    kept = {}  # per live edge: kept positions and the kept rows' one-hot ids
    if live:
        # one-hot selection of every matched vertex's padded posting list
        sel = []
        for i in live:
            ids, (lists_a, lists_b) = edges[i][0].ids, lists[i]
            x_pa = lists_a.shape[0]
            sel.append((_select_many_additive(
                unpack_bits(ids.share_a, x_pa), unpack_bits(ids.share_b, x_pa),
                lists_a.reshape(x_pa, -1), lists_b.reshape(x_pa, -1),
            ).reshape(-1, words_for(children[i].population)), children[i].population))
        fetched = rss.reshare_rows(rt, *sel[0], more=sel[1:])

        # a fetched row is valid when it holds a one-hot id; shuffle, open, keep
        jobs = [((_parity_rows(f.share_a), _parity_rows(f.share_b)), [f],
                 (l_max[i],) * edges[i][0].rows) for i, f in zip(live, fetched)]
        tags = None if slots is None else [slots[i] for i in live]
        kept = {i: (keep, ids)
                for i, (keep, (ids,)) in zip(live, _shuffle_open_keep(rt, jobs, tags))}

    # one-hot fetch of every surviving neighbor's queried attribute values
    wanted = []
    for i, (keep, ids) in kept.items():
        if keep.size:
            child = children[i]
            kept_a = unpack_bits(ids.share_a, child.population)
            kept_b = unpack_bits(ids.share_b, child.population)
            wanted += [(_select_many_additive(kept_a, kept_b, *gshare.types[edges[i][2]].attrs[a]),
                        child.attrs[a].domain_size) for a in edges[i][3]]
    values = iter(rss.reshare_rows(rt, *wanted[0], more=wanted[1:]) if wanted else ())

    out = []
    for i, (_, _, _, needed) in enumerate(edges):
        child = children[i]
        keep, ids = kept.get(i, (np.zeros(0, np.int64), _no_rows(rt.index, child.population)))
        attrs = {a: next(values) if keep.size else _no_rows(rt.index, child.attrs[a].domain_size)
                 for a in needed}
        # record r's posting list is segment r, rows [r * l_max, (r + 1) * l_max)
        out.append(RecordTable(ids, attrs, keep // max(l_max[i], 1)))
    return out


# ---------------------------------------------------------------------------
# full query
# ---------------------------------------------------------------------------


def _levels(slots) -> list[list[int]]:
    """The query tree's slots by depth, in slot order within each level."""
    levels = [[0]]
    while nxt := [c for s in levels[-1] for c in slots[s]["children"]]:
        levels.append(nxt)
    return levels


def check_token(token: PartyToken, gshare: GraphShare) -> None:
    """Refuse a token that does not fit the graph share's schema, before any message is sent.

    Past the schema digest, a token that parsed may still be damaged: every
    slot's type, edges and predicate attributes must exist, and every key's
    depth must be its attribute's, since a deeper key would expand a tree of
    ``2**domain_bits`` leaves.
    """
    if token.schema_digest != gshare.schema_digest:
        raise QueryFormatError("token and graph share were built for different schemas")
    slots = token.structure["slots"]
    for slot, pairs in zip(slots, token.slot_keys):
        ts = gshare.schema.types.get(slot["type"])
        if ts is None or any(slots[c]["type"] not in ts.posting_types for c in slot["children"]):
            raise QueryFormatError(f"token slot {slot['name']!r} does not fit the schema")
        for pred, pair in zip(slot["preds"], pairs):
            attr = ts.attrs.get(pred["attr"])
            if attr is None or any(k.domain_bits != fss.domain_bits_for(attr.domain_size)
                                   for k in pair):
                raise QueryFormatError(f"token slot {slot['name']!r} predicate on "
                                       f"{pred['attr']!r} does not fit the schema")


def sec_match(rt, token: PartyToken, gshare: GraphShare,
              config: EngineConfig | None = None) -> MatchResultSet:
    """Run the whole query against the encrypted graph at one party, level by level."""
    config = config or EngineConfig()
    schema = gshare.schema
    check_token(token, gshare)
    slots = token.structure["slots"]
    types = [schema.types[slot["type"]] for slot in slots]
    cands: list[RecordTable | None] = [None] * len(slots)
    records: list[RecordTable | None] = [None] * len(slots)

    def say(msg: str):
        if config.progress:
            config.progress(f"[party-{rt.index}] {msg}")

    def needed(s: int) -> list[str]:
        return sorted({p["attr"] for p in slots[s]["preds"]})

    def unique_route(s: int) -> bool:
        preds = slots[s]["preds"]
        return (len(preds) == 1 and preds[0]["kind"] == fss.KIND_EQ
                and types[s].attrs[preds[0]["attr"]].unique)

    # the root's ids are public: none in the unique route, whose fold needs none
    root_ts, root_share = types[0], gshare.types[slots[0]["type"]]  # wrapped, not copied
    cands[0] = RecordTable(
        None if unique_route(0) else _root_ids(rt.index, root_ts, bool(slots[0]["children"])),
        {a: MatchTable(rt.index, root_ts.attrs[a].domain_size, *root_share.attrs[a])
         for a in needed(0)},
        np.full(root_ts.population, -1))

    for level in _levels(slots):
        for s in level:
            if s and not slots[s]["children"]:  # no selection reads a leaf's ids
                cands[s] = replace(cands[s], ids=_id_codes(cands[s].ids, types[s]))
            say(f"slot {s} ({slots[s]['name']}): {cands[s].rows} candidates "
                f"in {len(cands[s].groups()[1])} groups")
            records[s] = cands[s]  # no candidates, no records
        live = [s for s in level if cands[s].rows]
        if live:
            with rt.meter.phase("secEval"):
                bits = iter(sec_eval(rt, [(cands[s].attrs[p["attr"]], token.slot_keys[s][pi])
                                          for s in live for pi, p in enumerate(slots[s]["preds"])]))
                flags = dict(zip(live, combine_predicates(
                    rt, [[next(bits) for _ in slots[s]["preds"]] for s in live],
                    [slots[s]["combiner"] for s in live], config.any_mode)))
            with rt.meter.phase("secFetch"):
                unique = [s for s in live if unique_route(s)]
                multi = [s for s in live if not unique_route(s)]
                if unique:
                    fetched = sec_fetch_unique(rt, [cands[s] for s in unique],
                                               [flags[s] for s in unique])
                    for s, matched in zip(unique, fetched):
                        records[s] = matched
                if multi:
                    fetched = sec_fetch_multi(rt, [cands[s] for s in multi],
                                              [flags[s] for s in multi], slots=multi)
                    for s, matched in zip(multi, fetched):
                        records[s] = matched
        for s in level:
            say(f"slot {s} ({slots[s]['name']}): {records[s].rows} matched records")
        edges = [(s, c) for s in level for c in slots[s]["children"]]
        if edges:
            with rt.meter.phase("secAccess"):
                accessed = sec_access(rt, [(records[s], slots[s]["type"], slots[c]["type"],
                                            needed(c)) for s, c in edges],
                                      gshare, slots=[c for _, c in edges])
            for (_, c), child_cands in zip(edges, accessed):
                cands[c] = child_cands
        for s in level:  # one-hot ids, accessed or the root's flag vector, become codes
            if slots[s]["children"] or cands[s].ids is None:
                records[s] = replace(records[s], ids=_id_codes(records[s].ids, types[s]))

    subgraphs = _assemble(slots, records)
    say(f"assembled {len(subgraphs)} complete subgraphs")
    return MatchResultSet(rt.index, token.structure, records, subgraphs)


def _assemble(slots, records: list[RecordTable]) -> list[tuple[int, ...]]:
    """Walk the public ``parent_record`` links and keep only complete subtree products."""
    # a slot's records are sorted by parent record: the children of record p
    # of slot s are the rows [first[child][p], first[child][p + 1])
    first = {child: np.searchsorted(records[child].parent_record,
                                    np.arange(records[s].rows + 1)).tolist()
             for s, slot in enumerate(slots) for child in slot["children"]}

    def expand(slot: int, ri: int) -> list[ChainMap]:
        parts = [[a for cri in range(first[c][ri], first[c][ri + 1]) for a in expand(c, cri)]
                 for c in slots[slot]["children"]]
        return [ChainMap({slot: ri}, *pick) for pick in product(*parts)]

    return [tuple(a[s] for s in range(len(slots)))
            for ri in range(records[0].rows) for a in expand(0, ri)]


# ---------------------------------------------------------------------------
# result reconstruction (front-end side)
# ---------------------------------------------------------------------------


def decode_records(result_sets: list[MatchResultSet], schema: GraphSchema):
    """Open every slot's records from two or three party result sets, field by field.

    Returns per slot ``(ext_ids, attrs)``: each record's ext id (``None``
    for a dummy, id code 0) and per queried attribute each record's value
    (``None`` for an all-zero row). Raises ``ValueError`` where the parties'
    structure, subgraphs, record counts, provenance or copies of a share
    component differ, a code passes the population or a value row is two-hot.
    """
    if len(result_sets) < 2:
        raise ValueError("need result shares from at least two parties")
    base = result_sets[0]
    for other in result_sets[1:]:
        if other.structure != base.structure:
            raise ValueError("result metadata differs between parties")
        if other.subgraphs != base.subgraphs:
            raise ValueError("result assembly differs between parties")
        if [t.rows for t in other.records] != [t.rows for t in base.records]:
            raise ValueError("record counts differ between parties")
        if not all(np.array_equal(t.parent_record, u.parent_record)
                   for t, u in zip(other.records, base.records)):
            raise ValueError("record provenance differs between parties")
    decoded = []
    for s, slot in enumerate(base.structure["slots"]):
        ts = schema.types[slot["type"]]
        tables = [r.records[s] for r in result_sets]
        codes = rss.reconstruct_rows([t.ids for t in tables])[:, 0]  # id_width <= 32
        if (codes > ts.population).any():
            ri = int(np.argmax(codes > ts.population))
            raise ValueError(f"slot {s} record {ri}: id code {codes[ri]} exceeds the "
                             f"{ts.population} vertices of type {slot['type']!r}")
        ext_of = [None] + ts.ext_ids  # indexed by code
        attrs = {}
        for a in sorted({p["attr"] for p in slot["preds"]}):
            plain = rss.reconstruct_rows([t.attrs[a] for t in tables])
            weight = np.bitwise_count(plain).sum(axis=1)
            if (weight > 1).any():
                ri = int(np.argmax(weight > 1))
                raise ValueError(f"slot {s} record {ri}: attribute {a!r} expected Hamming "
                                 f"weight <= 1, got {weight[ri]}")
            hot = unpack_bits(plain, ts.attrs[a].domain_size).argmax(axis=1) + 1
            value_of = [None] + ts.attrs[a].values  # indexed by hot bit + 1
            attrs[a] = [value_of[i] for i in np.where(weight == 1, hot, 0).tolist()]
        decoded.append(([ext_of[c] for c in codes.tolist()], attrs))
    return decoded


def open_results(result_sets: list[MatchResultSet], schema: GraphSchema):
    """Merge two or three party result sets into plaintext subgraphs.

    Returns ``(matches, details)``: slot-ordered ext-id tuples, and per-match
    decoded ``(ext_id, attribute values)`` per slot. Subgraphs containing a
    dummy vertex record (id code 0) collapse silently; they stem from
    unique-fetch groups without a satisfying candidate. Every check of
    :func:`decode_records` applies.
    """
    decoded = decode_records(result_sets, schema)
    matches = []
    details = []
    for combo in result_sets[0].subgraphs:
        ids = tuple(decoded[s][0][ri] for s, ri in enumerate(combo))
        if any(v is None for v in ids):
            continue
        matches.append(ids)
        details.append([(ext, {a: vals[ri] for a, vals in decoded[s][1].items()})
                        for s, (ri, ext) in enumerate(zip(combo, ids))])
    return matches, details
