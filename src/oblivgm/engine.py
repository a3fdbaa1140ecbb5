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
the one-hot identity at a root with children.

Each query slot runs as one batch. Its candidate groups are the segments
of its tables, and every protocol step carries the whole slot in one
message: one re-share per evaluation pass, one shuffle in which each group
is permuted under its own table id, one open of all shuffled flags. The
opened flags and the group boundaries are exactly what per-group steps
would reveal, so batching leaks nothing more, and the number of rounds a
query takes grows with its number of slots, not with its matches. Every
opened value is entered in the runtime's ledger (``rt.opened``).
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
from .query import PartyToken
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

    ids: MatchTable
    attrs: dict[str, MatchTable]
    parent_record: np.ndarray

    @property
    def rows(self) -> int:
        return self.ids.rows

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


def _shuffle_open_keep(rt, flag_bits, fields: list[MatchTable], segments):
    """Shuffle rows of flag || fields segment by segment, open the flags, keep the ones.

    ``flag_bits`` holds the party's two shares of the flag column as 0/1
    arrays. Returns the kept row positions in the shuffled table, sorted, and
    one table of kept rows per field. A segment is permuted within its own
    rows, so a kept position tells which segment the row came from.
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


def sec_eval(rt, cands: RecordTable, key_pair, attr: str,
             domain_size: int) -> rss.SharedBitVector:
    """Evaluate one predicate over a slot's candidates; one shared bit each.

    Each evaluation pass re-shares one bit per candidate of every group in a
    single message. Interval keys run two passes (their two comparison
    halves), doubling the communication.
    """
    first, second = key_pair
    passes = list(zip(fss.key_parts_for_engine(first), fss.key_parts_for_engine(second)))
    values = cands.attrs[attr]
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


def sec_fetch_unique(rt, cands: RecordTable, flags: rss.SharedBitVector) -> RecordTable:
    """Case with at most one satisfying candidate per group: fold by flag bits locally.

    Local AND terms accumulate additively over each group's candidates, then
    a single re-share per field carries every group's folded record;
    communication does not grow with the candidate count. A zero-match group
    folds to the all-zero (dummy) record. Returns one record per group.
    """
    parents, counts = cands.groups()
    fa, fb = flags.share_a.to_bits(), flags.share_b.to_bits()
    bounds = np.cumsum((0,) + counts)
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def fold(t: MatchTable) -> MatchTable:  # ids first, then the attributes in name order
        return rss.reshare_rows(rt, np.stack([_select_one_additive(
            fa[sp], fb[sp], t.share_a[sp], t.share_b[sp]) for sp in spans]), t.width)

    return RecordTable(fold(cands.ids), {a: fold(t) for a, t in sorted(cands.attrs.items())},
                       parents)


def sec_fetch_multi(rt, cands: RecordTable, flags: rss.SharedBitVector) -> RecordTable:
    """General fetch: shuffle flag/id/value rows, open the flags, keep the ones.

    The slot's groups are the segments of one shuffled table, so each group
    is permuted on its own while all of them share the shuffle's four frames
    and one open of the flags; a kept row keeps its group's parent record.
    The id field is as wide as the candidates' ids: ``id_width`` bits of code
    in a leaf slot, the population in a slot whose records are still to be
    accessed.
    """
    names = sorted(cands.attrs)
    keep, (ids, *values) = _shuffle_open_keep(
        rt, (flags.share_a.to_bits(), flags.share_b.to_bits()),
        [cands.ids] + [cands.attrs[a] for a in names], cands.groups()[1])
    return RecordTable(ids, dict(zip(names, values)), cands.parent_record[keep])


# ---------------------------------------------------------------------------
# neighbor access
# ---------------------------------------------------------------------------


def sec_access(rt, records: RecordTable, parent_type: str, child_type: str,
               needed_attrs: list[str], gshare: GraphShare) -> RecordTable:
    """Pull every matched vertex's neighbors of ``child_type`` out of the graph.

    Selection runs over the whole parent-type population, so nothing about
    which vertex matched leaks; padding and zero-extension are discarded only
    after the validity flags have been shuffled. All records travel together:
    one selection re-share, one shuffle with one segment per record (its
    padded posting list), one open, and one re-share per attribute. Returns
    the child slot's candidates, sorted by the record they descend from.
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
    keep = np.zeros(0, np.int64)
    if l_max and records.rows:
        # one-hot selection of every matched vertex's padded posting list
        additive = _select_many_additive(
            unpack_bits(records.ids.share_a, x_pa), unpack_bits(records.ids.share_b, x_pa),
            lists_a.reshape(x_pa, -1), lists_b.reshape(x_pa, -1))
        fetched = rss.reshare_rows(rt, additive.reshape(-1, words_for(child.population)),
                                   child.population)

        # a fetched row is valid when it holds a one-hot id; shuffle, open, keep
        valid = (_parity_rows(fetched.share_a), _parity_rows(fetched.share_b))
        keep, (ids,) = _shuffle_open_keep(rt, valid, [fetched], (l_max,) * records.rows)

        if keep.size:
            # one-hot fetch of every surviving neighbor's queried attribute values
            kept_a = unpack_bits(ids.share_a, child.population)
            kept_b = unpack_bits(ids.share_b, child.population)
            attrs = {a: rss.reshare_rows(rt, _select_many_additive(
                         kept_a, kept_b, *gshare.types[child_type].attrs[a]), w)
                     for a, w in attr_widths.items()}
    # record r's posting list is segment r, rows [r * l_max, (r + 1) * l_max)
    return RecordTable(ids, attrs, keep // max(l_max, 1))


# ---------------------------------------------------------------------------
# full query
# ---------------------------------------------------------------------------


def sec_match(rt, token: PartyToken, gshare: GraphShare,
              config: EngineConfig | None = None) -> MatchResultSet:
    """Run the whole query against the encrypted graph at one party."""
    config = config or EngineConfig()
    schema = gshare.schema
    if token.schema_digest != gshare.schema_digest:
        raise ValueError("token and graph share were built for different schemas")
    slots = token.structure["slots"]
    cands: list[RecordTable | None] = [None] * len(slots)
    records: list[RecordTable] = []

    def say(msg: str):
        if config.progress:
            config.progress(f"[party-{rt.index}] {msg}")

    for s, slot in enumerate(slots):
        vtype = slot["type"]
        ts = schema.types[vtype]
        if s == 0:
            tps = gshare.types[vtype]  # wrapped, not copied
            needed = sorted({p["attr"] for p in slot["preds"]})
            cands[0] = RecordTable(
                _root_ids(rt.index, ts, one_hot=bool(slot["children"])),
                {a: MatchTable(rt.index, ts.attrs[a].domain_size, *tps.attrs[a]) for a in needed},
                np.full(ts.population, -1))
        elif not slot["children"]:  # no selection reads a leaf's ids
            cands[s] = replace(cands[s], ids=_id_codes(cands[s].ids, ts))
        unique_route = (
            len(slot["preds"]) == 1
            and slot["preds"][0]["kind"] == fss.KIND_EQ
            and ts.attrs[slot["preds"][0]["attr"]].unique
        )
        say(f"slot {s} ({slot['name']}): {cands[s].rows} candidates "
            f"in {len(cands[s].groups()[1])} groups")
        matched = cands[s]  # no candidates, no records
        if cands[s].rows:
            with rt.meter.phase("secEval"):
                bits = [
                    sec_eval(rt, cands[s], token.slot_keys[s][pi], pred["attr"],
                             ts.attrs[pred["attr"]].domain_size)
                    for pi, pred in enumerate(slot["preds"])
                ]
                flags = combine_predicates(rt, bits, slot["combiner"], config.any_mode)
            with rt.meter.phase("secFetch"):
                fetch = sec_fetch_unique if unique_route else sec_fetch_multi
                matched = fetch(rt, cands[s], flags)
        say(f"slot {s} ({slot['name']}): {matched.rows} matched records")
        for child in slot["children"]:
            child_type = slots[child]["type"]
            child_attrs = sorted({p["attr"] for p in slots[child]["preds"]})
            with rt.meter.phase("secAccess"):
                cands[child] = sec_access(rt, matched, vtype, child_type, child_attrs, gshare)
        if slot["children"]:  # accessed: from here on, codes
            matched = replace(matched, ids=_id_codes(matched.ids, ts))
        records.append(matched)

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
