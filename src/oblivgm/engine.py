"""Secure matching engine.

Four cooperating pieces, each executed in lockstep by the three parties:

* predicate evaluation: every party evaluates its two FSS keys over the
  public positions of a candidate's attribute shares, producing two of the
  six additive terms per candidate; one bit per candidate is re-shared.
* matched-vertex fetch: a unique-valued attribute lets the parties fold each
  candidate group into a single record with pure local algebra plus one
  re-share. A leaf below the root, whose candidates are its parent records'
  padded lists, a public count, is gated: every row of id and attribute
  codes is ANDed with its flag and re-shared, a non-match becoming a dummy,
  and nothing is opened. Otherwise, at the root and at a slot with
  children, rows of flag, id and attribute codes are obliviously shuffled
  and only the shuffled flag column is opened. Either way a record's
  attribute values leave the fetch as codes.
* neighbor access: matched vertices' padded posting lists of neighbor id
  codes are pulled out of the whole parent-type population by one-hot
  selection; the codes become one-hot rows through uniformly masked codes,
  the only values an access opens, and every selected row's attribute
  values are pulled out by one-hot selection again. A padding code 0 gives
  an all-zero row, which fails every predicate and so drops out, or
  becomes a dummy, in the child slot's own fetch.
* the matcher walks the query tree level by level, carrying public
  provenance (which parent record each row descends from); a party's
  result is its records, and the client drops the dummies, then assembles
  and prunes subgraphs.

A query slot's candidates, and then its matched records, are one
:class:`RecordTable`: a :class:`oblivgm.rss.MatchTable` per field (the
vertex ids and each queried attribute) and a public ``parent_record`` array.
A candidate group is a run of rows with one parent record. Every re-share
goes through :func:`oblivgm.rss.reshare_rows`.

A vertex id and an attribute value each take one of two encodings: a row
is one-hot only while a one-hot selection or a predicate may still read it,
and a code ``c + 1`` everywhere else, 0 marking a dummy record or an
all-zero value. An id is one-hot over the type's population in a slot that
has children, until that slot's neighbor accesses are done, and otherwise
the ``TypeSchema.id_width``-bit code of vertex ``c``; posting entries are
stored as such codes. An attribute value is one-hot over its dictionary of
D values in the graph shares and in a slot's candidates, where
:func:`sec_eval` reads it and an access selects it, and a
``D.bit_length()``-bit code in the fetch, the records and the result.
An access selects codes, and :class:`oblivgm.shuffle.UnitVectors` expands
them into the one-hot rows that select attributes; a leaf child keeps the
selected codes as its ids, and a child with children keeps the one-hot
rows, so a leaf slot's fetch gates or folds ``id_width`` bits per
candidate, not ``population``. One-hot ``e_c`` maps to ``c + 1`` by a
public GF(2)-linear map, which each party applies to its own two shares
(:func:`_codes`), so a slot with children switches to codes without a
message once its accesses are done, and a fetch maps attribute values
before it shuffles or re-shares them. Root ids are public, row ``c`` being
vertex ``c``, so the graph shares hold none. In the unique route a root's
folded one-hot id is its flag vector; in the multi route it shuffles the
public codes, and a root with children expands its K kept codes with
:class:`oblivgm.shuffle.UnitVectors` before its accesses, in two rounds:
three mask frames of ``K * 2^id_width / 32`` words and one open of the
masked codes.

The query tree runs level by level. Slots are numbered breadth-first, and
each protocol step carries every slot of a level in one message per party:
one re-share of every predicate's bits, one AND re-share per combining
step, one fold re-share for the unique-route slots, one shuffle of the
other root and inner slots' tables and one open of their flags, one gate
re-share for the leaves below the root (in the open's round when the level
shuffles, and then the level's only fetch message otherwise), and, for
all edges out of the level together, one selection re-share, one open of
the masked codes and one attribute re-share. Within a table, each
candidate group is a segment permuted under its own table id; a child
slot's groups are ``max_padded`` rows each, a public size. The opened flags
and the group boundaries are exactly what per-group steps would reveal, so
batching leaks nothing more, and the number of rounds a query takes grows
with the depth of its tree, not with its slots or its matches. Every opened
value is entered in the runtime's ledger (``rt.opened``), one entry per
slot with that slot's group segments: a fetch's flags (phase ``secFetch``,
root and inner slots only) and an access's masked codes (phase
``secAccess``, under the child slot, ``max_padded * id_width`` bits a
group, or under the root, ``id_width`` bits a kept root record). Every
FSS key of the token is evaluated once, before the first level
(:func:`eval_keys`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import fss, rss
from .bits import BitVector, mask_tail, pack_bits, unpack_bits, words_for
from .graphs import GraphSchema, GraphShare, TypeSchema
from .query import PartyToken, QueryFormatError, check_structure, slot_attrs
from .rss import MatchTable
from .shuffle import UnitVectors, sec_shuffle


@dataclass
class RecordTable:
    """A query slot's rows: one table per field, with public provenance.

    Row ``r`` descends from record ``parent_record[r]`` of the parent slot
    (-1 at the root). Rows are sorted by parent record; a run of one parent
    record is one candidate group. ``ids`` are one-hot or id codes;
    ``attrs`` are one-hot in candidates and value codes in records.
    """

    ids: MatchTable | None  # None only for a unique-route root's public ids, before its fetch
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


def _parity_rows(mat: np.ndarray) -> np.ndarray:
    if mat.size == 0:
        return np.zeros(mat.shape[0], dtype=np.uint8)
    acc = np.bitwise_xor.reduce(mat, axis=-1)
    return (np.bitwise_count(acc) & 1).astype(np.uint8)


@lru_cache(maxsize=64)
def _byte_codes(width: int) -> np.ndarray:
    """The code map of rows of ``width`` bits as a read-only byte table.

    Entry ``256 * b + v`` is the XOR of the codes ``i + 1`` of the set bits
    ``i = 8b + j`` of byte value ``v`` at byte ``b`` of a row, for ``i`` below
    the width, so a row's code is the XOR of one entry per byte.
    """
    values = np.arange(256, dtype=np.uint32)
    pos = np.arange((width + 7) // 8 * 8, dtype=np.uint32).reshape(-1, 8)
    codes = np.where(pos < width, pos + 1, 0)
    table = np.zeros((len(pos), 256), np.uint32)
    for j in range(8):  # one bit of the byte at a time keeps the intermediate at the table's size
        table ^= ((values >> np.uint32(j)) & np.uint32(1)) * codes[:, j:j + 1]
    table = table.reshape(-1)
    table.flags.writeable = False
    return table


def _code_words(mat: np.ndarray, width: int) -> np.ndarray:
    """The ``(rows, 1)`` codes of packed rows of ``width`` bits; bits past the width are ignored.

    A row's code is the XOR of ``i + 1`` over its set bits ``i``: ``e_i``
    maps to ``i + 1`` and the zero row to 0. Every row takes one table
    lookup per byte of the width, whatever its bits.
    """
    table, nbytes = _byte_codes(width), (width + 7) // 8
    offsets = np.arange(0, 256 * nbytes, 256)
    as_bytes = np.ascontiguousarray(mat).view(np.uint8)[:, :nbytes]
    out = np.empty((mat.shape[0], 1), np.uint32)
    step = max(1, (1 << 16) // nbytes)  # bound the (step, nbytes) index intermediate
    for lo in range(0, mat.shape[0], step):
        out[lo:lo + step, 0] = np.bitwise_xor.reduce(
            np.take(table, as_bytes[lo:lo + step] + offsets), axis=1)
    return out


def _codes(rows: MatchTable) -> MatchTable:
    """Shared one-hot rows as shared codes ``c + 1``, computed locally; segments are kept.

    A one-hot id over a population of N maps to its ``id_width``-bit code,
    and a one-hot attribute value over a dictionary of D values to its
    ``D.bit_length()``-bit code. The map is linear over GF(2), so each share
    component is mapped on its own and no message is sent.
    """
    return MatchTable(rows.party_index, rows.width.bit_length(),
                      _code_words(rows.share_a, rows.width),
                      _code_words(rows.share_b, rows.width), rows.segments)


def _root_ids(party: int, ts: TypeSchema) -> MatchTable:
    """A multi-route root's public ids, the codes ``c + 1``, shared by :meth:`MatchTable.public`."""
    codes = np.arange(1, ts.population + 1, dtype=np.uint32)[:, None]
    return MatchTable.public(party, ts.id_width, codes, np.zeros_like(codes))


def _select_groups_additive(bits_a, bits_b, mat_a, mat_b, groups: int) -> np.ndarray:
    """Additive shares of XOR_c bit[c] AND row[c], one per each of ``groups`` equal row runs.

    With ``p``, ``q`` the party's two shares of the bits and ``A``, ``B`` of
    the rows, a run's share is ``(p XOR q)·A XOR p·B`` over GF(2). Both bit
    vectors become 0/0xFFFFFFFF word masks ANDed with every row, so the
    kernel does the same work whatever the bits are. Reading only the rows
    ``p XOR q`` and ``p`` pick would not: ``p XOR q`` is the shared bits
    XOR the third share, so its run time would show the peer holding that
    share the popcount of the bits XOR a vector it knows.
    """
    mask_a = np.negative((bits_a ^ bits_b).astype(np.uint32))[:, None]  # 1 -> 0xFFFFFFFF
    mask_b = np.negative(bits_a.astype(np.uint32))[:, None]
    runs = (groups, mat_a.shape[0] // groups, mat_a.shape[1])
    # each share folds on its own: XORing the two masked matrices first
    # costs more than the second reduction saves
    return (np.bitwise_xor.reduce((mat_a & mask_a).reshape(runs), axis=1)
            ^ np.bitwise_xor.reduce((mat_b & mask_b).reshape(runs), axis=1))


def _select_many_additive(sel_a, sel_b, mat_a, mat_b) -> np.ndarray:
    """Row-batched one-hot selection: (K, X) selector bits against (X, W) rows.

    Row ``k`` is :func:`_select_groups_additive` of selector row ``k`` as one
    run. Its bits ``[p XOR q | p]`` become 0/0xFFFFFFFF word masks, ANDed
    with the transposed ``(W, 2X)`` matrix ``[A; B]^T`` and XOR-reduced
    along its contiguous last axis; as there, the work does not depend on
    the bits.
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


def _open_flags(rt, shuffled: list[MatchTable], slots=None, during=None) -> np.ndarray:
    """Open the flag columns (bit 0 of every row) of shuffled tables in one message.

    ``slots`` tags each table's flags in the ledger, split by its segments;
    ``during`` runs in the open's round (:func:`oblivgm.rss.open_shared`).
    """
    def column(side):
        return pack_bits(np.concatenate([getattr(t, side)[:, 0] & 1 for t in shuffled]))[None]

    parts = None if slots is None else [(s, t.segments) for s, t in zip(slots, shuffled)]
    flags = MatchTable(rt.index, sum(t.rows for t in shuffled), column("share_a"),
                       column("share_b"))
    return rss.open_shared(rt, flags, slots=parts, during=during).to_bits()


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


def _fetch_fields(cand: RecordTable) -> list[MatchTable]:
    """The fields a fetch carries: the ids, then each attribute mapped to codes, by name."""
    return [cand.ids, *(_codes(cand.attrs[a]) for a in sorted(cand.attrs))]


def _unpack_fields(table: MatchTable, widths: list[int], pos: int = 0) -> list[MatchTable]:
    """The fields of ``widths`` bits laid end to end from bit ``pos`` of a table's rows."""
    return [MatchTable(table.party_index, w, _bit_field(table.share_a, at, w),
                       _bit_field(table.share_b, at, w))
            for at, w in zip(pos + np.cumsum([0] + widths[:-1]), widths)]


# ---------------------------------------------------------------------------
# predicate evaluation
# ---------------------------------------------------------------------------


def eval_keys(token: PartyToken, types: list[TypeSchema]) -> list[list[tuple]]:
    """The party's two keys of every predicate of the token, evaluated over their domains.

    Returns per slot, per predicate, the two keys' indicator vectors over the
    predicate attribute's dictionary. All keys are evaluated in one
    :func:`oblivgm.fss.full_domain_eval` call, so the trees of one depth, of
    every slot, descend together; an interval's two trees are XORed there.
    """
    slots = token.structure["slots"]
    keys = [(key, types[s].attrs[p["attr"]].domain_size)
            for s, slot in enumerate(slots) for pi, p in enumerate(slot["preds"])
            for key in token.slot_keys[s][pi]]
    ind = iter(fss.full_domain_eval(*keys[0], more=keys[1:]))
    return [[(next(ind), next(ind)) for _ in slot["preds"]] for slot in slots]


def sec_eval(rt, preds: list[tuple[MatchTable, tuple[BitVector, BitVector]]]) -> list[MatchTable]:
    """Evaluate predicates over candidate attribute tables; one shared bit per candidate each.

    ``preds`` holds one ``(values, indicators)`` per predicate: the
    candidates' one-hot attribute rows over a domain of ``values.width``
    values, and the indicator vectors of the party's two FSS keys over that
    domain (:func:`eval_keys`). A candidate's additive bit is the parity of
    each share of its row ANDed with one key's indicator, and one message
    re-shares the bits of every predicate.
    """
    additive = [BitVector.from_bits(_parity_rows(values.share_a & ind_a.words[None, :])
                                    ^ _parity_rows(values.share_b & ind_b.words[None, :]))
                for values, (ind_a, ind_b) in preds]
    return rss.reshare(rt, additive[0], more=additive[1:])


def combine_predicates(rt, bits: list[list[MatchTable]], combiners: list[str]) -> list[MatchTable]:
    """Fold each slot's per-predicate shared bits by the slot's public Boolean combiner.

    ALL is the AND of the bits, ANY their inclusive OR ``a ^ b ^ (a & b)``.
    The slots advance together: step ``j`` folds every slot's predicate
    ``j`` into its accumulator, and the AND gates of that step share one
    re-share, so a level of slots takes one round per combining step.
    """
    if not bits or not all(bits):
        raise ValueError("no predicate bits to combine")
    for combiner in combiners:
        if combiner not in ("ALL", "ANY"):
            raise ValueError(f"unknown combiner {combiner!r}")
    accs = [preds[0] for preds in bits]
    for j in range(1, max(map(len, bits))):
        step = [i for i, preds in enumerate(bits) if len(preds) > j]
        pairs = [(accs[i], bits[i][j]) for i in step]
        for i, conj in zip(step, rss.and_gate(rt, *pairs[0], more=pairs[1:])):
            accs[i] = conj if combiners[i] == "ALL" else accs[i].xor(bits[i][j]).xor(conj)
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
    A table's groups share one public size, the population at the root and
    ``max_padded`` below it, so each field folds in one call.

    A table without ``ids`` is the root slot's, whose row ``c`` is vertex
    ``c``: its one record's one-hot id, ``sum_c flag_c * e_c``, is the flag
    vector itself, so only its attributes are folded and re-shared. A folded
    attribute row is an additive share of a one-hot row, which the code map
    turns into an additive share of its code, so only code bits are
    re-shared.
    """
    folds, groups = [], []
    for cand, flag in zip(cands, flags):
        parents, counts = cand.groups()
        if len(set(counts)) != 1:
            raise ValueError(f"unique-route groups of unequal sizes {sorted(set(counts))}")
        groups.append(parents)
        fa, fb = _flag_bits(flag)
        fields = [cand.attrs[a] for a in sorted(cand.attrs)]
        for t in fields if cand.ids is None else [cand.ids] + fields:
            fold = _select_groups_additive(fa, fb, t.share_a, t.share_b, len(counts))
            # ids keep their encoding: one-hot where an access will select by them
            folds.append((fold, t.width) if t is cand.ids
                         else (_code_words(fold, t.width), t.width.bit_length()))
    tables = iter(rss.reshare_rows(rt, *folds[0], more=folds[1:]))
    out = []
    for cand, flag, parents in zip(cands, flags, groups):
        ids = flag if cand.ids is None else next(tables)
        out.append(RecordTable(ids, {a: next(tables) for a in sorted(cand.attrs)}, parents))
    return out


def sec_fetch_multi(rt, cands: list[RecordTable], flags: list[MatchTable],
                    slots=None, during=None) -> list[RecordTable]:
    """General fetch: shuffle flag/id/value rows, open the flags, keep the ones.

    A table's groups are its segments, so each group is permuted on its own,
    while every table shares the shuffle's four frames and one open of the
    flags, tagged ``slots`` in the ledger; a kept row keeps its group's
    parent record. The id field is as wide as the candidates' ids:
    ``id_width`` bits of code in a root slot, the population in a slot
    whose records are still to be accessed. Each attribute is mapped to its
    code before the shuffle, with no message. ``during`` runs in the open's
    round, after its frame is sent.
    """
    tables, widths = [], []
    for cand, flag in zip(cands, flags):
        fields = _fetch_fields(cand)
        rows = [_pack_fields([(bits.astype(np.uint32)[:, None], 1)]
                             + [(getattr(f, side), f.width) for f in fields])
                for bits, side in zip(_flag_bits(flag), ("share_a", "share_b"))]
        widths.append([f.width for f in fields])
        tables.append(MatchTable(rt.index, 1 + sum(widths[-1]), *rows, cand.groups()[1]))
    shuffled = sec_shuffle(rt, tables[0], more=tables[1:])
    opened = _open_flags(rt, shuffled, slots, during)
    out, pos = [], 0
    for cand, table, ws in zip(cands, shuffled, widths):
        # a group is permuted within its own rows, so a kept row keeps its parent record
        keep = np.nonzero(opened[pos:pos + table.rows])[0]
        pos += table.rows
        ids, *fields = _unpack_fields(table.take(keep), ws, 1)
        out.append(RecordTable(ids, dict(zip(sorted(cand.attrs), fields)),
                               cand.parent_record[keep]))
    return out


def _gate_additive(fa, fb, rows_a, rows_b) -> np.ndarray:
    """Additive shares of every packed row ANDed with its shared flag bit.

    With ``fa``, ``fb`` the party's two shares of the flags and ``rows_a``,
    ``rows_b`` of the rows, the terms are ``(fa&xa) ^ (fa&xb) ^ (fb&xa)``,
    the AND of two replicated sharings (:func:`oblivgm.rss.and_terms`). The
    flag shares become 0/0xFFFFFFFF word masks, so the work does not depend
    on them.
    """
    mask_a = np.negative(fa.astype(np.uint32))[:, None]  # 1 -> 0xFFFFFFFF
    mask_b = np.negative(fb.astype(np.uint32))[:, None]
    return (mask_a & (rows_a ^ rows_b)) ^ (mask_b & rows_a)


def sec_fetch_gated(rt, cands: list[RecordTable], flags: list[MatchTable]) -> list[RecordTable]:
    """Leaf fetch below the root: gate every candidate row by its flag and keep them all.

    A slot that is not the root and has no children holds its parent
    records' ``max_padded`` candidates each, a public count. Each row, ``[id
    code || attribute codes]``, is ANDed with its shared flag bit, so a
    non-match becomes the all-zero row: id code 0, a dummy that the client
    drops. One message re-shares every table's rows and nothing is opened,
    so no server learns the slot's match counts; every row keeps its parent
    record.
    """
    parts, widths = [], []
    for cand, flag in zip(cands, flags):
        fields = _fetch_fields(cand)
        rows = [_pack_fields([(getattr(f, side), f.width) for f in fields])
                for side in ("share_a", "share_b")]
        widths.append([f.width for f in fields])
        parts.append((_gate_additive(*_flag_bits(flag), *rows), sum(widths[-1])))
    tables = rss.reshare_rows(rt, *parts[0], more=parts[1:])
    out = []
    for cand, table, ws in zip(cands, tables, widths):
        ids, *fields = _unpack_fields(table, ws)
        out.append(RecordTable(ids, dict(zip(sorted(cand.attrs), fields)), cand.parent_record))
    return out


# ---------------------------------------------------------------------------
# neighbor access
# ---------------------------------------------------------------------------


def _unit_ids(rt, codes: MatchTable, ts: TypeSchema) -> MatchTable:
    """The root's kept id codes as one-hot rows, by one :class:`UnitVectors` expansion.

    Its open of the masked codes is entered under slot 0, one ``id_width``-bit
    segment per record. With no record nothing is sent.
    """
    if not codes.rows:
        return _no_rows(rt.index, ts.population)
    units = UnitVectors(rt, [(codes.rows, ts.id_width)])
    units.send_masks()
    return units.expand([codes], [ts.population], [(0, (ts.id_width,) * codes.rows)])[0]


def sec_access(rt, edges, gshare: GraphShare, slots: list[int]) -> list[RecordTable]:
    """Pull every matched vertex's neighbors out of the graph, for several query edges.

    ``edges`` holds one ``(records, parent_type, child_type, needed_attrs,
    hot)`` per edge. Selection runs over the whole parent-type population,
    so nothing about which vertex matched leaks. It picks each record's
    padded posting list, ``max_padded`` id codes, and all edges' codes are
    re-shared in one message. :class:`oblivgm.shuffle.UnitVectors` turns
    them into one-hot rows: its mask frames ride in that re-share's round,
    and one open of the uniformly masked codes ``d`` (tagged with each
    edge's child slot from ``slots``, one segment of ``max_padded *
    id_width`` bits per record) in the next. The one-hot rows select every
    needed attribute of every row, in one more re-share: an access level
    takes three rounds.

    Each edge's child candidates are its records' ``max_padded`` rows each,
    in record order, so a candidate group's size is public. Their ids are
    the re-shared codes, or the one-hot rows when ``hot`` says the child
    has accesses of its own to come. A padding row's code is 0, so its
    one-hot row and its attribute rows are zero, which no predicate
    accepts: the child's own fetch drops it with the non-matches, or gates
    it to a dummy.
    """
    schema = gshare.schema
    children = [schema.types[child_type] for _, _, child_type, _, _ in edges]
    l_max = [schema.types[parent_type].max_padded(child_type)
             for _, parent_type, child_type, _, _ in edges]
    live = [i for i, (records, *_) in enumerate(edges) if l_max[i] and records.rows]

    # one-hot selection of every matched vertex's padded list of id codes
    sel = []
    for i in live:
        records, parent_type, child_type, _, _ = edges[i]
        ids, x_pa = records.ids, schema.types[parent_type].population
        posting = gshare.types[parent_type].posting[child_type]
        sel.append((_select_many_additive(
            unpack_bits(ids.share_a, x_pa), unpack_bits(ids.share_b, x_pa),
            posting.share_a.reshape(x_pa, -1), posting.share_b.reshape(x_pa, -1),
        ).reshape(-1, 1), children[i].id_width))
    codes, unit = {}, {}
    if live:
        units = UnitVectors(rt, [(len(additive), width) for additive, width in sel])
        codes = dict(zip(live, rss.reshare_rows(rt, *sel[0], more=sel[1:],
                                                during=units.send_masks)))
        tags = [(slots[i], (l_max[i] * children[i].id_width,) * edges[i][0].rows) for i in live]
        unit = dict(zip(live, units.expand(list(codes.values()),
                                           [children[i].population for i in live], tags)))

    # one-hot fetch of every selected row's queried attribute values
    wanted = []
    for i, rows in unit.items():
        child = children[i]
        ids_a = unpack_bits(rows.share_a, child.population)
        ids_b = unpack_bits(rows.share_b, child.population)
        fields = gshare.types[edges[i][2]].attrs
        wanted += [(_select_many_additive(ids_a, ids_b, fields[a].share_a, fields[a].share_b),
                    child.attrs[a].domain_size) for a in edges[i][3]]
    values = iter(rss.reshare_rows(rt, *wanted[0], more=wanted[1:]) if wanted else ())

    out = []
    for i, (records, _, _, needed, hot) in enumerate(edges):
        child = children[i]
        ids = (unit if hot else codes).get(
            i, _no_rows(rt.index, child.population if hot else child.id_width))
        attrs = {a: next(values) if i in unit else _no_rows(rt.index, child.attrs[a].domain_size)
                 for a in needed}
        out.append(RecordTable(ids, attrs, np.repeat(np.arange(records.rows), l_max[i])))
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
    """Refuse a token that does not fit the graph share, before any message is sent.

    Token and share must be one party's and built for one schema, and the
    token's structure must fit that schema (:func:`query.check_structure`).
    Key depths need no check: a token file's key sizes follow from the
    structure and the schema, so it cannot hold a key deeper than its
    attribute's domain.
    """
    if token.schema_digest != gshare.schema.digest():
        raise QueryFormatError("token and graph share were built for different schemas")
    if token.party_index != gshare.party_index:
        raise QueryFormatError(f"token of party {token.party_index} given the graph share "
                               f"of party {gshare.party_index}")
    check_structure(token.structure, gshare.schema)


def sec_match(rt, token: PartyToken, gshare: GraphShare, progress=None) -> MatchResultSet:
    """Run the whole query at one party, level by level; ``progress`` gets a line per slot."""
    schema = gshare.schema
    if token.party_index != rt.index:
        raise QueryFormatError(f"token of party {token.party_index} run at party {rt.index}")
    check_token(token, gshare)
    slots = token.structure["slots"]
    types = [schema.types[slot["type"]] for slot in slots]
    cands: list[RecordTable | None] = [None] * len(slots)
    records: list[RecordTable | None] = [None] * len(slots)

    def say(msg: str):
        if progress:
            progress(f"[party-{rt.index}] {msg}")

    def unique_route(s: int) -> bool:
        preds = slots[s]["preds"]
        return (len(preds) == 1 and preds[0]["kind"] == fss.KIND_EQ
                and types[s].attrs[preds[0]["attr"]].unique)

    def gated(s: int) -> bool:  # a leaf below the root, whose candidate count is public
        return s != 0 and not slots[s]["children"] and not unique_route(s)

    # the root's ids are public: shuffled codes in the multi route, and none in the unique
    # route, whose fold gives the kept one-hot id
    root_ts, root_share = types[0], gshare.types[slots[0]["type"]]
    cands[0] = RecordTable(
        None if unique_route(0) else _root_ids(rt.index, root_ts),
        {a: root_share.attrs[a] for a in slot_attrs(slots[0])}, np.full(root_ts.population, -1))
    indicators = eval_keys(token, types)

    for level in _levels(slots):
        for s in level:
            say(f"slot {s} ({slots[s]['name']}): {cands[s].rows} candidates "
                f"in {len(cands[s].groups()[1])} groups")
            if not cands[s].rows:  # no candidates, no records
                records[s] = replace(cands[s],
                                     attrs={a: _codes(t) for a, t in cands[s].attrs.items()})
        live = [s for s in level if cands[s].rows]
        if live:
            with rt.meter.phase("secEval"):
                bits = iter(sec_eval(rt, [(cands[s].attrs[p["attr"]], indicators[s][pi])
                                          for s in live for pi, p in enumerate(slots[s]["preds"])]))
                flags = dict(zip(live, combine_predicates(
                    rt, [[next(bits) for _ in slots[s]["preds"]] for s in live],
                    [slots[s]["combiner"] for s in live])))
            with rt.meter.phase("secFetch"):
                unique = [s for s in live if unique_route(s)]
                gate = [s for s in live if gated(s)]
                multi = [s for s in live if s not in unique and s not in gate]

                def fetch(route, fetch_route, **kwargs):
                    fetched = fetch_route(rt, [cands[s] for s in route], [flags[s] for s in route],
                                          **kwargs)
                    for s, matched in zip(route, fetched):
                        records[s] = matched

                if unique:
                    fetch(unique, sec_fetch_unique)
                # the gate's re-share rides in the open's round of a level that also shuffles
                gate_fetch = (lambda: fetch(gate, sec_fetch_gated)) if gate else None
                if multi:
                    fetch(multi, sec_fetch_multi, slots=multi, during=gate_fetch)
                elif gate_fetch:
                    gate_fetch()
        for s in level:
            say(f"slot {s} ({slots[s]['name']}): {records[s].rows} "
                + ("gated rows" if gated(s) else "matched records"))
        edges = [(s, c) for s in level for c in slots[s]["children"]]
        if edges:
            with rt.meter.phase("secAccess"):
                if level == [0] and not unique_route(0):  # the kept root codes, one-hot
                    records[0] = replace(records[0], ids=_unit_ids(rt, records[0].ids, root_ts))
                accessed = sec_access(rt, [(records[s], slots[s]["type"], slots[c]["type"],
                                            slot_attrs(slots[c]), bool(slots[c]["children"]))
                                           for s, c in edges], gshare, [c for _, c in edges])
            for (_, c), child_cands in zip(edges, accessed):
                cands[c] = child_cands
        for s in level:  # one-hot ids, accessed, expanded or the root's flag vector, become codes
            if slots[s]["children"] or cands[s].ids is None:
                records[s] = replace(records[s], ids=_codes(records[s].ids))

    return MatchResultSet(rt.index, token.structure, records)


def assemble(slots, records: list[RecordTable]) -> list[tuple[int, ...]]:
    """Walk the public ``parent_record`` links and keep only complete subtree products.

    Subgraphs come grouped by root record, and a record's are the product of
    its children's, the first child varying slowest (``itertools.product``
    order). Built bottom-up: ``tree[s]`` holds, per slot of ``s``'s subtree,
    the column of its record in every complete assignment of the subtree,
    grouped by ``s``'s record in order; ``count[s]`` is each record's share.
    """
    tree: dict[int, dict[int, np.ndarray]] = {}
    count: dict[int, np.ndarray] = {}
    for s in reversed(range(len(slots))):  # breadth-first numbering: children come later
        rows = records[s].rows
        runs = []  # per child slot: each record's run of the child's tree rows
        for c in slots[s]["children"]:
            # the children of record p are the rows [first[p], first[p + 1]) of slot c
            first = np.searchsorted(records[c].parent_record, np.arange(rows + 1))
            bounds = np.concatenate(([0], np.cumsum(count[c])))[first]
            runs.append((c, bounds[:-1], np.diff(bounds)))
        count[s] = np.prod([size for *_, size in runs], axis=0) if runs else np.ones(rows, np.int64)
        record = np.repeat(np.arange(rows), count[s])
        pick = np.arange(len(record)) - np.repeat(np.cumsum(count[s]) - count[s], count[s])
        tree[s] = {s: record}
        for c, start, size in reversed(runs):  # the last child varies fastest
            size = size[record]
            row = start[record] + pick % size
            pick //= size
            tree[s].update((slot, column[row]) for slot, column in tree.pop(c).items())
    return list(zip(*(tree[0][s].tolist() for s in range(len(slots)))))


# ---------------------------------------------------------------------------
# result reconstruction (front-end side)
# ---------------------------------------------------------------------------


def _open_codes(tables: list[MatchTable], names: list, slot: int, field: str, of: str) -> list:
    """Open a slot's column of codes, reading code ``c`` as ``names[c - 1]`` and 0 as ``None``.

    A code past ``len(names)`` raises ``ValueError``, naming the slot, the
    record, the ``field`` and what ``names`` holds (``of``).
    """
    codes = rss.reconstruct_rows(tables)[:, 0]  # a code is at most 32 bits
    if (codes > len(names)).any():
        ri = int(np.argmax(codes > len(names)))
        raise ValueError(f"slot {slot} record {ri}: {field} code {codes[ri]} exceeds the "
                         f"{len(names)} {of}")
    lookup = [None, *names]
    return [lookup[c] for c in codes.tolist()]


def decode_records(result_sets: list[MatchResultSet], schema: GraphSchema):
    """Open every slot's records from two or three party result sets, field by field.

    Returns per slot ``(ext_ids, attrs)``: each record's ext id (``None``
    for a dummy, id code 0) and per queried attribute each record's value
    (``None`` for code 0, an all-zero row). Raises ``ValueError`` where the
    parties' structure, record counts, provenance or copies of a share
    component differ, or an id or value code passes its type's population or
    its attribute's dictionary.
    """
    if len(result_sets) < 2:
        raise ValueError("need result shares from at least two parties")
    base = result_sets[0]
    for other in result_sets[1:]:
        if other.structure != base.structure:
            raise ValueError("result metadata differs between parties")
        if [t.rows for t in other.records] != [t.rows for t in base.records]:
            raise ValueError("record counts differ between parties")
        if not all(np.array_equal(t.parent_record, u.parent_record)
                   for t, u in zip(other.records, base.records)):
            raise ValueError("record provenance differs between parties")
    decoded = []
    for s, slot in enumerate(base.structure["slots"]):
        ts = schema.types[slot["type"]]
        tables = [r.records[s] for r in result_sets]
        ext_ids = _open_codes([t.ids for t in tables], ts.ext_ids, s, "id",
                              f"vertices of type {slot['type']!r}")
        attrs = {a: _open_codes([t.attrs[a] for t in tables], ts.attrs[a].values, s,
                                f"attribute {a!r}", "values of its dictionary")
                 for a in slot_attrs(slot)}
        decoded.append((ext_ids, attrs))
    return decoded


def open_results(result_sets: list[MatchResultSet], schema: GraphSchema):
    """Merge two or three party result sets into plaintext subgraphs.

    Returns ``(matches, details)``: slot-ordered ext-id tuples, and per-match
    decoded ``(ext_id, attribute values)`` per slot. Dummy records (id code
    0), a gated leaf's non-matches and the folds of unique-route groups
    without a satisfying candidate, are dropped from each slot before
    assembly, with every row that descends from one, so the products grow
    with the matches, not with the padding. Every check of
    :func:`decode_records` applies, and subgraphs are assembled only after.
    """
    decoded = decode_records(result_sets, schema)
    slots = result_sets[0].structure["slots"]
    parent = {c: s for s, slot in enumerate(slots) for c in slot["children"]}
    kept, tables = [], []  # per slot: the indices of its live records, and their provenance
    for s, (ext_ids, _) in enumerate(decoded):
        live = np.array([ext is not None for ext in ext_ids], dtype=bool)
        parent_record = result_sets[0].records[s].parent_record
        if s in parent:  # a live parent record's new index, -1 for a dropped one
            renumber = np.full(len(decoded[parent[s]][0]), -1)
            renumber[kept[parent[s]]] = np.arange(len(kept[parent[s]]))
            parent_record = renumber[parent_record]
            live &= parent_record >= 0
        kept.append(np.nonzero(live)[0])
        tables.append(RecordTable(None, {}, parent_record[live]))
    matches = []
    details = []
    for combo in assemble(slots, tables):
        rows = [int(kept[s][ri]) for s, ri in enumerate(combo)]
        ids = tuple(decoded[s][0][ri] for s, ri in enumerate(rows))
        matches.append(ids)
        details.append([(ext, {a: vals[ri] for a, vals in decoded[s][1].items()})
                        for s, (ri, ext) in enumerate(zip(rows, ids))])
    return matches, details
