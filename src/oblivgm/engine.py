"""Secure matching engine.

Four cooperating pieces, each executed in lockstep by the three parties:

* predicate evaluation: every party evaluates its two FSS keys over the
  public positions of its attribute shares, producing two of the six
  additive terms per vertex. A predicate bit belongs to the vertex, so
  every predicate of the query is evaluated once, over its type's whole
  population, and one message re-shares the bits of them all.
* matched-vertex fetch, at the root and at every slot that the query's
  plan routes ``fetched`` (:class:`QueryPlan`): rows of flag, id and
  attribute codes are obliviously shuffled and only the shuffled flag
  column is opened, in the shuffle's last round. A unique-valued attribute
  lets the root fold its value codes into a single record instead, with
  pure local algebra plus one re-share, sent in the round of its access's
  open.
* neighbor access: matched vertices' padded posting lists of neighbor id
  codes are pulled out of the whole parent-type population by one-hot
  selection; the codes become one-hot rows through uniformly masked codes,
  the only values an access opens, and the one-hot rows select rows of the
  child slot's population table. A padding code 0 gives an all-zero row,
  which selects the zero row.
* the matcher walks the query tree level by level, carrying public
  provenance (which parent record each row descends from); a party's
  result is its records, and the client drops the dummies, then assembles
  and prunes subgraphs.

Below the root, each slot gets one population table per query, row ``v``
for vertex ``v`` of its type: ``[flag || attribute codes]`` in a fetched
slot, whose access gives its candidates their flags and codes, and
``[flag * code(v) || flag * attribute codes]`` in a gated or unique one,
whose access gives its records with nothing opened, a non-match as the
all-zero row, code 0, a dummy that the client drops. The id part of a gated
table is local, as ``code(v) = v + 1`` is public; the attribute part is one
AND re-share, sent in the root's fetch whatever the root matches, so its
size follows from public populations and code widths. :class:`QueryPlan`
says which route each slot takes, and what that reveals.

A query slot's candidates, and then its matched records, are one
:class:`RecordTable`. Every re-share goes through
:func:`oblivgm.rss.reshare_rows`, whole or in steps, and every AND of two
shared values takes its additive terms from :func:`oblivgm.rss.and_terms`:
the gate of a population table by its flags, a unique root's fold, a gated
slot's one-hot ids and the predicate combiners.

A vertex id and an attribute value each take one of two encodings: a row
is one-hot only while a one-hot selection or a predicate may still read it,
and a code ``c + 1`` everywhere else, 0 marking a dummy record or an
all-zero value. An id is one-hot over the type's population in a slot that
has children, until that slot's neighbor accesses are done, and otherwise
the ``TypeSchema.id_width``-bit code of vertex ``c``; posting entries are
stored as such codes. An attribute value is one-hot over its dictionary of
D values in the graph shares, where only :func:`sec_eval` reads it, and a
``D.bit_length()``-bit code everywhere else, a unique root's fold
included. One-hot ``e_c`` maps to ``c + 1`` by a public GF(2)-linear map,
which each party applies to its own two shares (:func:`_codes`), so a slot
with children switches to codes without a message once its accesses are
done, and a share's attribute tables are mapped once. Root ids
are public, row ``c`` being vertex ``c``, so the graph shares hold none. In
the unique route a root's folded one-hot id is its flag vector; in the
multi route it shuffles the public codes, and a root with children expands
its kept codes to one-hot rows before its accesses (:func:`_unit_ids`).

The query tree runs level by level (:attr:`QueryPlan.levels`), and each
protocol step carries every slot of a level in one message per party: one
shuffle of the level's fetched tables, whose last round opens their flags,
and, for all edges out of the level together, one open of the masked codes,
straight from the selection's additive shares, and one re-share of the rows
selected from the children's population tables: two rounds, after party 3's
first mask frame, which goes out as soon as party 3 knows the level's counts
(:attr:`QueryPlan.masks`). Before the first level come the evaluation's one
re-share and its combining steps, ``ceil(log2(j))`` AND re-shares for a
slot of ``j`` predicates. Within a table, each candidate group is a segment
permuted under its own table id; a child slot's groups are ``max_padded``
rows each, a public size. The opened
flags and the group boundaries are exactly what per-group steps would
reveal, so batching leaks nothing more, and the number of rounds a query
takes grows with the depth of its tree, not with its slots or its matches.
Every opened value is entered in the runtime's ledger (``rt.opened``), one
entry per slot with that slot's group segments: a fetch's flags (phase
``secFetch``, root and fetched slots only) and an access's masked codes
(phase ``secAccess``, under the child slot, ``max_padded * id_width`` bits a
group, or under the root, ``id_width`` bits a kept root record).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import fss, rss
from .bits import mask_tail, pack_bits, unpack_bits, words_for
from .graphs import GraphSchema, GraphShare, TypePartyShare, TypeSchema
from .query import PartyToken, QueryFormatError, check_structure, slot_attrs
from .rss import MatchTable
from .shuffle import UnitVectors, sec_shuffle

PHASES = ("secEval", "secFetch", "secAccess")  # a query's meter phases, in protocol order


@dataclass
class RecordTable:
    """A query slot's rows: one table per field, with public provenance.

    Row ``r`` descends from record ``parent_record[r]`` of the parent slot
    (-1 at the root). Rows are sorted by parent record; a run of one parent
    record is one candidate group. ``ids`` are one-hot or id codes, and
    ``attrs`` value codes.
    """

    ids: MatchTable | None  # None only in a table of provenance alone (open_results)
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


def _attr_codes(share: TypePartyShare, attr: str) -> MatchTable:
    """A graph share's one-hot attribute table as value codes, mapped once per loaded share."""
    if attr not in share.codes:
        share.codes[attr] = _codes(share.attrs[attr])
    return share.codes[attr]


def _root_ids(party: int, ts: TypeSchema) -> MatchTable:
    """A multi-route root's public ids, the codes ``c + 1``, shared by :meth:`MatchTable.public`."""
    codes = np.arange(1, ts.population + 1, dtype=np.uint32)[:, None]
    return MatchTable.public(party, ts.id_width, codes, np.zeros_like(codes))


def _select_many_additive(sel_a, sel_b, mat_a, mat_b) -> np.ndarray:
    """Row-batched one-hot selection: (K, X) selector bits against (X, W) rows.

    Row ``k`` is :func:`oblivgm.rss.and_terms` of selector row ``k``'s bits
    ``p``, ``q``, as word masks, with the rows ``A``, ``B``, XORed over the
    rows: ``(p XOR q)·A XOR p·B``. The masks ``[p XOR q | p]`` are ANDed with
    the transposed ``(W, 2X)`` matrix ``[A; B]^T`` and XOR-reduced along its
    contiguous last axis; as there, the work does not depend on the bits.
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


def _flag_column(flag: MatchTable) -> MatchTable:
    """A one-row flag vector as a table of 1-bit rows, row ``c`` holding bit ``c``."""
    return MatchTable(flag.party_index, 1, *(unpack_bits(m, flag.width).reshape(-1, 1)
                                             .astype(np.uint32)
                                             for m in (flag.share_a, flag.share_b)))


def _masks(column: MatchTable) -> list[np.ndarray]:
    """The party's two shares of a table of 1-bit rows as 0/0xFFFFFFFF word masks."""
    return [np.negative(m) for m in (column.share_a, column.share_b)]


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


def _unpack_fields(table: MatchTable, widths) -> list[MatchTable]:
    """The fields of ``widths`` bits laid end to end in a table's rows."""
    return [MatchTable(table.party_index, w, _bit_field(table.share_a, at, w),
                       _bit_field(table.share_b, at, w))
            for at, w in zip(np.cumsum([0, *widths[:-1]]), widths)]


# ---------------------------------------------------------------------------
# predicate evaluation
# ---------------------------------------------------------------------------


def eval_keys(token: PartyToken, types: list[TypeSchema]) -> list[list[tuple]]:
    """The party's two keys of every predicate of the token, evaluated over their domains.

    Returns per slot, per predicate, the two keys' indicator vectors over the
    predicate attribute's dictionary, each packed into one row of words. All
    keys are evaluated in one :func:`oblivgm.fss.full_domain_eval` call, so
    the trees of one depth, of every slot, descend together; an interval's
    two trees are XORed there.
    """
    slots = token.structure["slots"]
    keys = [(key, types[s].attrs[p["attr"]].domain_size)
            for s, slot in enumerate(slots) for pi, p in enumerate(slot["preds"])
            for key in token.slot_keys[s][pi]]
    ind = iter(pack_bits(bits)[None] for bits in fss.full_domain_eval(*keys[0], more=keys[1:]))
    return [[(next(ind), next(ind)) for _ in slot["preds"]] for slot in slots]


def sec_eval(rt, preds: list[tuple[MatchTable, tuple[np.ndarray, np.ndarray]]], during=None
             ) -> list[MatchTable]:
    """Evaluate predicates over attribute tables; one shared bit per row each.

    ``preds`` holds one ``(values, indicators)`` per predicate: one-hot
    attribute rows over a domain of ``values.width`` values, a type's whole
    population in :func:`sec_match`, and the packed indicator rows of the
    party's two FSS keys over that domain (:func:`eval_keys`). A row's
    additive bit is the parity of each share of the row ANDed with one
    key's indicator, and one message re-shares the bits of every predicate;
    ``during`` runs in its round (:func:`oblivgm.rss.reshare_rows`).
    """
    additive = [(pack_bits(_parity_rows(values.share_a & ind_a)
                           ^ _parity_rows(values.share_b & ind_b))[None], values.rows)
                for values, (ind_a, ind_b) in preds]
    return rss.reshare_rows(rt, *additive[0], more=additive[1:], during=during)


def combine_predicates(rt, bits: list[list[MatchTable]], combiners: list[str]) -> list[MatchTable]:
    """Fold each slot's per-predicate shared bits by the slot's public Boolean combiner.

    ALL is the AND of the bits, ANY their inclusive OR ``a ^ b ^ (a & b)``.
    The fold is balanced: each step combines a slot's terms in pairs, an odd
    one waiting for the next step, so a slot of ``j`` predicates takes
    ``ceil(log2(j))`` steps. The slots advance together, and the AND gates
    of a step share one re-share, so the query takes one round per step of
    its slot with the most predicates.
    """
    if not bits or not all(bits):
        raise ValueError("no predicate bits to combine")
    for combiner in combiners:
        if combiner not in ("ALL", "ANY"):
            raise ValueError(f"unknown combiner {combiner!r}")
    terms = [list(preds) for preds in bits]
    while pairs := [(i, j) for i, t in enumerate(terms) for j in range(1, len(t), 2)]:
        operands = [(terms[i][j - 1], terms[i][j]) for i, j in pairs]
        for (i, j), (a, b), conj in zip(pairs, operands,
                                        rss.and_gate(rt, *operands[0], more=operands[1:])):
            terms[i][j - 1], terms[i][j] = (conj if combiners[i] == "ALL"
                                            else a.xor(b).xor(conj)), None
        terms = [[t for t in ts if t is not None] for ts in terms]
    return [ts[0] for ts in terms]


# ---------------------------------------------------------------------------
# matched-vertex fetch
# ---------------------------------------------------------------------------


def sec_fetch_unique(rt, cand: RecordTable, flag: MatchTable, *, more=()):
    """The root's fetch when at most one of its vertices can match: fold its rows by its flags.

    The root's row ``c`` is vertex ``c``, so its one record's one-hot id,
    ``sum_c flag_c * e_c``, is the one-row flag vector itself. Each
    attribute's value codes, ANDed with the flags
    (:func:`oblivgm.rss.and_terms`) and XORed over the rows, fold into an
    additive share of the record's code, and one re-share carries every
    attribute's; a root without a match folds to the all-zero (dummy)
    record. ``more`` holds further ``(additive, width)`` tables that ride in
    the same message. The folds are made, and the re-share's zero-sharing
    drawn, at the call, which returns the rest in two steps, as
    :func:`oblivgm.rss.reshare_steps` runs it: the first ``next`` sends, and
    the second receives and yields the record and the tables of ``more``.
    """
    masks = _masks(_flag_column(flag))
    names = sorted(cand.attrs)
    folds = [(np.bitwise_xor.reduce(rss.and_terms(*masks, t.share_a, t.share_b), axis=0,
                                    keepdims=True), t.width)
             for t in (cand.attrs[a] for a in names)]
    parts = folds + list(more)
    steps = rss.reshare_steps(rt, *parts[0], more=parts[1:])
    next(steps)

    def rest():
        next(steps)
        yield
        tables = next(steps)
        yield RecordTable(flag, dict(zip(names, tables)), np.full(1, -1)), tables[len(names):]

    return rest()


def sec_fetch_multi(rt, cands: list[RecordTable], flags: list[MatchTable],
                    slots=None, during=None) -> list[RecordTable]:
    """General fetch: shuffle flag/id/value rows, open the flags, keep the ones.

    ``flags`` holds each table's flags as 1-bit rows, its rows' first field.
    A table's groups are its segments, so each group is permuted on its own,
    while every table shares the shuffle's four frames and one open of the
    flags inside them (:func:`oblivgm.shuffle.sec_shuffle`), tagged
    ``slots`` in the ledger; a kept row keeps its group's parent record. The
    id field is as wide as the candidates' ids: ``id_width`` bits of code in
    a root slot, the population in a slot whose records are still to be
    accessed. The attributes are codes. ``during`` runs in the shuffle's
    rounds, after the party's last frame of it is sent.
    """
    tables, widths = [], []
    for cand, flag in zip(cands, flags):
        fields = [flag, cand.ids, *(cand.attrs[a] for a in sorted(cand.attrs))]
        rows = [_pack_fields([(getattr(f, side), f.width) for f in fields])
                for side in ("share_a", "share_b")]
        widths.append([f.width for f in fields])
        tables.append(MatchTable(rt.index, sum(widths[-1]), *rows, cand.groups()[1]))
    shuffled, flags = sec_shuffle(rt, tables[0], more=tables[1:], open_flags=True, slots=slots,
                                  during=during)
    out, pos = [], 0
    for cand, table, ws in zip(cands, shuffled, widths):
        # a group is permuted within its own rows, so a kept row keeps its parent record
        keep = np.nonzero(flags[pos:pos + table.rows])[0]
        pos += table.rows
        _, ids, *fields = _unpack_fields(table.take(keep), ws)
        out.append(RecordTable(ids, dict(zip(sorted(cand.attrs), fields)),
                               cand.parent_record[keep]))
    return out


# ---------------------------------------------------------------------------
# neighbor access
# ---------------------------------------------------------------------------


def _unit_ids(rt, codes: MatchTable, ts: TypeSchema, during=None) -> MatchTable:
    """The root's K kept id codes as one-hot rows, by one :class:`UnitVectors` expansion.

    K comes with the flag open, whose round carries party 3's mask frame of
    ``K * 2^id_width / 32`` words, as party 3 sends its flag columns last.
    The other two ride in the open of the masked codes, of each code's
    first component as its additive share, entered under slot 0, one
    ``id_width``-bit segment per record; ``during`` runs in its round. With
    no record nothing is sent.
    """
    if not codes.rows:
        return _no_rows(rt.index, ts.population)
    units = UnitVectors(rt, [(codes.rows, ts.id_width)])
    units.send_masks()
    return units.expand([(codes.share_a, codes.width)], [ts.population],
                        [(0, (ts.id_width,) * codes.rows)], during=during)[0]


def sec_access(rt, qp: QueryPlan, edges, gshare: GraphShare, units, tables, opening=None,
               during=None):
    """Pull every matched vertex's neighbors out of the graph, for several query edges.

    ``edges`` holds one ``(slot, records, parent_type, child_type, flags)``
    per edge, ``slot`` being its child slot in ``qp``, the query's plan.
    Selection runs over the whole parent-type population, so nothing about
    which vertex matched leaks, and picks each record's ``padded`` id codes
    as additive shares. ``units``, a :class:`oblivgm.shuffle.UnitVectors` of
    one ``(records * padded, id_width)`` shape per edge with codes to
    select, in edge order, whose masks' first step is sent
    (:attr:`QueryPlan.masks`), turns them into one-hot rows: one open of the
    uniformly masked codes ``d``, straight from the additive shares and
    tagged with the child slot, one segment of ``padded * id_width`` bits a
    record, carries the second step. ``opening`` runs in that open's round.
    The one-hot rows select rows of the child slots' population tables,
    which ``tables()`` gives, one per edge, once the open is done, so that a
    message sent by ``opening`` may make them: the unique root's fold, which
    carries the population gate. One re-share carries the selected rows,
    and ``during`` runs in its round: an access level takes two rounds.

    A ``unique`` child's selected rows are XORed into one per record.
    ``flags``, a gated child's population flags when it has children, is
    ANDed with each one-hot row in the same re-share, giving the child's
    gated one-hot ids, folded likewise. A padding row's code is 0, so its
    one-hot row, and the row it selects, are zero; so is a non-match's
    gated one-hot id.

    Returns per edge the selected rows, the child's one-hot ids (the rows
    that selected, or with ``flags`` their gated products) and each row's
    parent record: ``padded`` rows per record, in record order, or one if
    folded.
    """
    schema = gshare.schema
    children = [schema.types[child_type] for _, _, _, child_type, _ in edges]
    l_max = [qp.padded[c] for c, *_ in edges]
    fold = [qp.route[c] == "unique" for c, *_ in edges]
    live = [i for i, (_, records, *_) in enumerate(edges) if l_max[i] and records.rows]

    # one-hot selection of every matched vertex's padded list of id codes
    sel = []
    for i in live:
        _, records, parent_type, child_type, _ = edges[i]
        ids, x_pa = records.ids, schema.types[parent_type].population
        posting = gshare.types[parent_type].posting[child_type]
        sel.append((_select_many_additive(
            unpack_bits(ids.share_a, x_pa), unpack_bits(ids.share_b, x_pa),
            posting.share_a.reshape(x_pa, -1), posting.share_b.reshape(x_pa, -1),
        ).reshape(-1, 1), children[i].id_width))
    unit = {}
    if live:
        tags = [(edges[i][0], (l_max[i] * children[i].id_width,) * edges[i][1].rows) for i in live]
        unit = dict(zip(live, units.expand(sel, [children[i].population for i in live], tags,
                                           during=opening)))
    elif opening is not None:  # nothing to open: its frames go on their own
        opening()
    pops = tables()

    # one selection of every row out of its child's population table
    wanted = []
    for i, rows in unit.items():
        _, records, _, _, flags = edges[i]
        table = pops[i]

        def folded(additive):  # a record's rows XORed into one
            return np.bitwise_xor.reduce(additive.reshape(records.rows, l_max[i], -1), axis=1)

        n = children[i].population
        picked = _select_many_additive(unpack_bits(rows.share_a, n), unpack_bits(rows.share_b, n),
                                       table.share_a, table.share_b)
        wanted.append((folded(picked) if fold[i] else picked, table.width))
        if flags is not None:
            gated = rss.and_terms(rows.share_a, rows.share_b, flags.share_a, flags.share_b)
            wanted.append((folded(gated) if fold[i] else gated, n))
    if wanted:
        values = iter(rss.reshare_rows(rt, *wanted[0], more=wanted[1:], during=during))
    elif during is not None:  # nothing to re-share: its frames go on their own
        during()

    out = []
    for i, (_, records, _, _, flags) in enumerate(edges):
        if i not in unit:
            out.append((_no_rows(rt.index, pops[i].width),
                        _no_rows(rt.index, children[i].population), np.zeros(0, np.int64)))
            continue
        picked = next(values)
        out.append((picked, next(values) if flags is not None else unit[i],
                    np.repeat(np.arange(records.rows), 1 if fold[i] else l_max[i])))
    return out


# ---------------------------------------------------------------------------
# full query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryPlan:
    """What each slot and level of a query does, from the schema and its structure alone.

    Slots are numbered breadth-first. Each one's ``route`` is one of:

    * ``unique root``: a root matched by one equality on a unique
      attribute, which folds its rows into one record;
    * ``shuffled root``: any other root, which shuffles its rows, opens
      their flags and, with children, expands its kept codes to one-hot;
    * ``unique``: a slot below the root matched so, whose access XORs each
      group's rows into one record;
    * ``gated leaf``: any other leaf, whose records are its access's rows;
    * ``gated inner``: a slot with children that the gate rule allows,
      whose records are so too, with one-hot ids gated by its flags;
    * ``fetched``: any other slot, whose access gives candidates that it
      shuffles, opening their flags, as the root does.

    The gate rule: a gated inner slot's children select from all of its
    ``padded`` rows per parent record, not from its matches. So a slot is
    gated only if its children are all leaves, so that gated rows never
    multiply over two levels and no open below them shows which rows match,
    and if the parent type's padded lengths toward it are even: their
    maximum at most twice their mean, a provisional factor. A plan reads
    only public values, so which slots open their flags is public too; but a
    unique slot's subtree may hold a fetched slot, whose opened counts show
    which of the unique slot's records match.

    Below the root, ``padded`` is the rows each parent record gives a slot,
    the parent type's ``max_padded`` toward its type, and ``widths`` its
    population table's fields: a 1-bit flag if fetched, else an
    ``id_width``-bit gated code, then the attributes' codes. Per level,
    ``levels`` holds its slots and ``masks`` the round of party 3's mask
    frame for its accesses, one in which party 3 already knows the level's
    counts: ``evaluation``, the evaluation's re-share, at a unique
    root, whose count 1 is public; ``expansion``, the open of a shuffled
    root's codes; ``above``, the level above's final re-share, when every
    slot of the level is gated; ``flags``, the flag open of the level's
    fetched slots; ``None`` at a level without children. The other two mask
    frames ride in the access's open, so every access takes two rounds.
    """

    route: tuple[str, ...]
    parent: tuple[int, ...]  # -1 at the root
    padded: tuple[int, ...]  # 0 at the root
    widths: tuple[tuple[int, ...], ...]  # () at the root
    levels: tuple[tuple[int, ...], ...]
    masks: tuple[str | None, ...]

    def count(self, s: int, opened) -> int:
        """Slot ``s``'s record count; ``opened(t)`` is a shuffled or fetched slot ``t``'s."""
        if self.route[s] == "unique root":
            return 1
        if self.route[s] in ("shuffled root", "fetched"):
            return opened(s)
        n = self.count(self.parent[s], opened)
        return min(n, n * self.padded[s]) if self.route[s] == "unique" else n * self.padded[s]


def plan(schema: GraphSchema, structure: dict) -> QueryPlan:
    """The plan of a query whose structure fits the schema (:func:`query.check_structure`)."""
    slots = structure["slots"]  # breadth-first: the child lists in slot order count 1, 2, ...
    parent = (-1, *(s for s, slot in enumerate(slots) for _ in slot["children"]))
    route, padded, widths = [], [], []
    for s, slot in enumerate(slots):
        ts, (pred, *more) = schema.types[slot["type"]], slot["preds"]
        unique = not more and pred["kind"] == fss.KIND_EQ and ts.attrs[pred["attr"]].unique
        lens = schema.types[slots[parent[s]]["type"]].padded_len.get(slot["type"], []) if s else []
        padded.append(max(lens, default=0))
        if s == 0:
            route.append("unique root" if unique else "shuffled root")
        elif unique or not slot["children"]:
            route.append("unique" if unique else "gated leaf")
        else:  # the gate rule
            even = padded[s] * len(lens) <= 2 * sum(lens)
            leaves = not any(slots[c]["children"] for c in slot["children"])
            route.append("gated inner" if even and leaves else "fetched")
        widths.append(() if s == 0 else (ts.id_width if route[s] != "fetched" else 1,
                                         *(ts.attrs[a].code_width for a in slot_attrs(slot))))
    levels = [(0,)]
    while nxt := tuple(c for s in levels[-1] for c in slots[s]["children"]):
        levels.append(nxt)
    masks = ["evaluation" if route[0] == "unique root" else "expansion"] + [
        "flags" if any(route[s] == "fetched" for s in level) else "above" for level in levels[1:]]
    masks = [m if any(slots[s]["children"] for s in level) else None
             for m, level in zip(masks, levels)]
    return QueryPlan(tuple(route), parent, tuple(padded), tuple(widths),
                     tuple(levels), tuple(masks))


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
    """Run the query's :class:`QueryPlan` at one party; ``progress`` gets a line per slot."""
    schema = gshare.schema
    if token.party_index != rt.index:
        raise QueryFormatError(f"token of party {token.party_index} run at party {rt.index}")
    check_token(token, gshare)
    qp, slots = plan(schema, token.structure), token.structure["slots"]
    types = [schema.types[slot["type"]] for slot in slots]
    shares = [gshare.types[slot["type"]] for slot in slots]
    records: list[RecordTable | None] = [None] * len(slots)

    def say(msg: str):
        if progress:
            progress(f"[party-{rt.index}] {msg}")

    units = {}  # per level, its accesses' UnitVectors or None

    def send_masks(li: int) -> None:
        """Make level ``li``'s access unit vectors and send their masks' first step."""
        shapes = [(qp.count(s, lambda t: records[t].rows) * qp.padded[c], types[c].id_width)
                  for s in qp.levels[li] for c in slots[s]["children"]]
        shapes = [shape for shape in shapes if shape[0]]
        units[li] = UnitVectors(rt, shapes) if shapes else None
        if units[li]:
            units[li].send_masks()

    def send_root_masks():  # a unique root's count, 1, is public from the start
        with rt.meter.phase("secAccess"):
            send_masks(0)

    # every predicate over its type's whole population, in one message
    indicators = eval_keys(token, types)
    with rt.meter.phase("secEval"):
        bits = iter(sec_eval(rt, [(shares[s].attrs[p["attr"]], indicators[s][pi])
                                  for s, slot in enumerate(slots)
                                  for pi, p in enumerate(slot["preds"])],
                             during=send_root_masks if qp.masks[0] == "evaluation" else None))
        flags = combine_predicates(rt, [[next(bits) for _ in slot["preds"]] for slot in slots],
                                   [slot["combiner"] for slot in slots])

    # below the root, each slot's population table: all is local but the gated attribute
    # codes, one AND re-share of a bit row per slot, in a message of the root's fetch
    heads, rows, gate = {}, {}, []
    for s in range(1, len(slots)):
        column = _flag_column(flags[s])
        codes = [_attr_codes(shares[s], a) for a in slot_attrs(slots[s])]
        rows[s] = [_pack_fields([(getattr(t, side), t.width) for t in codes])
                   for side in ("share_a", "share_b")]
        heads[s] = [column.share_a, column.share_b]
        if qp.route[s] != "fetched":
            ids = np.arange(1, types[s].population + 1, dtype=np.uint32)[:, None]
            masks = _masks(column)
            heads[s] = [m & ids for m in masks]
            width = sum(qp.widths[s][1:])
            gate.append((pack_bits(unpack_bits(rss.and_terms(*masks, *rows[s]), width)
                                   .reshape(1, -1)), types[s].population * width))
    pops = {}

    def populations(gated_attrs) -> None:
        """Each population table below the root, once the gate's re-share is received."""
        gated_attrs = iter(gated_attrs)
        for s in rows:
            w = qp.widths[s]
            if qp.route[s] != "fetched":
                t = next(gated_attrs)
                rows[s] = [pack_bits(unpack_bits(m, t.width).reshape(-1, sum(w[1:])))
                           for m in (t.share_a, t.share_b)]
            pops[s] = MatchTable(rt.index, sum(w), *(_pack_fields([(h, w[0]), (r, sum(w[1:]))])
                                                     for h, r in zip(heads[s], rows[s])))

    def send_fold():  # the unique root's fold, in the round of its access's open
        with rt.meter.phase("secFetch"):
            next(fold)

    def receive_fold():
        records[0], gated_attrs = next(fold)
        populations(gated_attrs)

    # the root's rows are its population, its ids public codes: the unique route folds its
    # value codes, the multi route shuffles its rows
    root = RecordTable(_root_ids(rt.index, types[0]),
                       {a: _attr_codes(shares[0], a) for a in slot_attrs(slots[0])},
                       np.full(types[0].population, -1))
    say(f"slot 0 ({slots[0]['name']}): {root.rows} candidates in 1 groups")
    with rt.meter.phase("secFetch"):
        if qp.route[0] == "unique root":
            fold = sec_fetch_unique(rt, root, flags[0], more=gate)
            # its one record's one-hot id is its flag vector; the fold brings its attributes
            records[0] = RecordTable(flags[0], {}, np.full(1, -1))
            if qp.masks[0] is None:  # no access for the fold to ride with
                next(fold)
                receive_fold()
        else:
            gated_attrs = []

            def send_gate():  # in the shuffle's rounds
                gated_attrs.extend(rss.reshare_rows(rt, *gate[0], more=gate[1:]))

            (records[0],) = sec_fetch_multi(rt, [root], [_flag_column(flags[0])], slots=[0],
                                            during=send_gate if gate else None)
            populations(gated_attrs)

    cands, fetch_flags = {}, {}  # a fetched slot's candidates, and their flags
    for li, level in enumerate(qp.levels):
        fetched = [s for s in level if qp.route[s] == "fetched"]
        for s in fetched:
            say(f"slot {s} ({slots[s]['name']}): {cands[s].rows} candidates "
                f"in {len(cands[s].groups()[1])} groups")
            records[s] = cands[s]  # the fetch's records, unless it has no candidates
        if live := [s for s in fetched if cands[s].rows]:
            with rt.meter.phase("secFetch"):
                for s, matched in zip(live, sec_fetch_multi(rt, [cands[s] for s in live],
                                                            [fetch_flags[s] for s in live],
                                                            slots=live)):
                    records[s] = matched
        for s in level:
            say(f"slot {s} ({slots[s]['name']}): {records[s].rows} "
                + ("gated rows" if qp.route[s].startswith("gated") else "matched records"))
        if qp.masks[li] is not None:
            edges = [(s, c) for s in level for c in slots[s]["children"]]
            folding = qp.masks[li] == "evaluation"  # the fold rides in the access's open

            def tables():
                if folding:
                    receive_fold()
                return [pops[c] for _, c in edges]

            with rt.meter.phase("secAccess"):
                if qp.masks[li] == "expansion":  # the kept root codes, one-hot
                    records[0] = replace(records[0], ids=_unit_ids(
                        rt, records[0].ids, types[0], during=lambda: send_masks(0)))
                elif qp.masks[li] == "flags":  # party 3 learned the counts in the flag open
                    send_masks(li)
                accessed = sec_access(rt, qp, [
                    (c, records[s], slots[s]["type"], slots[c]["type"],
                     flags[c] if qp.route[c] != "fetched" and slots[c]["children"] else None)
                    for s, c in edges], gshare, units.get(li), tables,
                    opening=send_fold if folding else None,
                    during=(lambda: send_masks(li + 1)) if "above" in qp.masks[li + 1:li + 2]
                    else None)
            for (_, c), (picked, hot, parents) in zip(edges, accessed):
                head, *fields = _unpack_fields(picked, qp.widths[c])
                attrs = dict(zip(slot_attrs(slots[c]), fields))
                if qp.route[c] == "fetched":
                    cands[c], fetch_flags[c] = RecordTable(hot, attrs, parents), head
                else:  # a leaf's ids are its gated codes
                    records[c] = RecordTable(hot if slots[c]["children"] else head, attrs, parents)
        for s in level:  # one-hot ids, accessed, expanded or the root's flag vector, become codes
            if slots[s]["children"] or qp.route[s] == "unique root":
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
    parent = plan(schema, result_sets[0].structure).parent
    kept, tables = [], []  # per slot: the indices of its live records, and their provenance
    for s, (ext_ids, _) in enumerate(decoded):
        live = np.array([ext is not None for ext in ext_ids], dtype=bool)
        parent_record = result_sets[0].records[s].parent_record
        if s:  # a live parent record's new index, -1 for a dropped one
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
