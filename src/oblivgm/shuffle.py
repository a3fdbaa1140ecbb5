"""Secret-shared shuffle of a table of replicated-shared rows.

The permutation is the composition of three pairwise-seeded permutations,
each known to exactly two parties, so no single party can reconstruct it.
All blinding tables and permutations are expanded deterministically from the
pairwise seeds with domain separation by table id, which keeps the protocol
reproducible under fixed seeds and lets tests simulate the exact outcome in
plaintext.

The table is an :class:`oblivgm.rss.MatchTable`. Its segments, public row
counts, are each shuffled as a table of their own, under their own table id,
but all segments travel in the same four frames. So do further tables of
other widths passed in the same call: their words are laid end to end, so
no table is padded to another's width.

Shared id codes become shared one-hot rows in :class:`UnitVectors`, as in
three-party distributed ORAM. Each code is masked by one offset from each
pair seed; :func:`_pairwise_steps` shares the unit vector of the mask,
moving the public unit vector of 0 through the three pairs' translations;
and after one open of the masked code, made straight from additive shares
of the code, each party moves its own shares to the code's unit vector.
"""

from __future__ import annotations

import numpy as np

from .bits import mask_tail, one_hot_rows, pack_bits, unpack_bits, words_for
from .net import OP_OPEN, OP_SHUFFLE, ProtocolError
from .prf import prf_stream, seeded_permutation
from . import rss
from .rss import MatchTable, _held

_LABEL_PERM = b"SHPI"
_LABEL_BLIND = b"SHTB"
_LABEL_RAND = b"SHRD"
_LABEL_UNMASK = b"SHUM"  # _pairwise_steps' mask R31
_LABEL_UNSHARE = b"SHUS"  # _pairwise_steps' output components x1 (from s31) and x3 (from s23)
_LABEL_OFFSET = b"UVOF"  # a pair's code offsets, one per unit vector
# the lower half of every 2^(b+1)-bit block of a word, for b = 0..4
_HALF_BLOCKS = tuple(np.uint32(m) for m in (0x55555555, 0x33333333, 0x0F0F0F0F, 0x00FF00FF,
                                            0x0000FFFF))


def sec_shuffle(rt, table: MatchTable, *, more=None, open_flags=False, slots=None, during=None):
    """Obliviously permute the rows of each segment; returns fresh replicated shares.

    Each segment takes the next table id, and its permutations and blinding
    tables come from that id alone. Four frames cross the wire, each the
    size of the whole table however many segments it has: party 1 sends one
    to party 2, party 2 sends two to party 3, and party 3 sends one back to
    party 2. They take three rounds, since party 2's two frames go out
    together. A one-segment table is the plain shuffle of the whole table.

    ``more`` is a list of further tables, of any widths. They ride in the
    same four frames: the segments of every table, in order, take
    consecutive table ids, each frame holds every table's words laid end to
    end with no padding to a common width, and the list of all shuffled
    tables comes back. Without ``more`` the one table comes back.

    With ``open_flags`` the flag column, bit 0 of every shuffled row of
    every table, is opened inside the shuffle, and ``(shuffled, flags)``
    comes back, ``flags`` a 0/1 array of one bit per row. Party 1 draws its
    output components ``(r1, r2)`` from its seeds, so it sends its ``r2``
    column to party 3 with its shuffle frame; party 3, once it has ``r3``,
    sends its ``r3`` column to party 1 and its ``r1`` column to party 2 with
    its own. Every party receives the one component it lacks, as in
    :func:`oblivgm.rss.open_shared`, and the open adds no round. The open
    takes the runtime's next open label, and ``slots``, one per table, tags
    each table's flags in the ledger, split by its segments.

    ``during`` runs once the party's shuffle frame is sent, party 1's flag
    column too, and before the open's frames are received, so that the
    frames it sends ride in the shuffle's rounds. A link carries its frames
    in order, so it may do what a re-share does, send to the next party and
    receive from the previous one, but no more: party 3 sends its flag
    columns after ``during``, and party 1 receives its column after it.
    """
    tables = [table] + list(more or ())
    if any(t.party_index != rt.index for t in tables):
        raise ValueError("table does not belong to this party")
    segments = [n for t in tables for n in t.segments]
    # segment i takes table id tid + i: the ids are consecutive, so the first identifies the batch
    tid = [rt.alloc_table_id() for _ in segments][0]
    open_label = rt.alloc_open_label() if open_flags else None
    # every operation below acts on the tables' words laid end to end in one flat array
    nwords = [words_for(t.width) for t in tables]
    word_starts = np.cumsum([0] + [t.rows * w for t, w in zip(tables, nwords)])
    row_starts = np.cumsum([0] + [t.rows for t in tables])
    tails = np.concatenate([np.tile(mask_tail(np.full(w, 0xFFFFFFFF, np.uint32), t.width), t.rows)
                            for t, w in zip(tables, nwords)])
    bits = sum(t.rows * t.width for t in tables)
    head = int(tid).to_bytes(4, "little")
    # the flat word that holds bit 0 of each row
    firsts = np.concatenate([start + np.arange(t.rows) * w
                             for t, w, start in zip(tables, nwords, word_starts)])

    def send_next(flat):
        rt.send_next(OP_SHUFFLE, head + flat.tobytes(), logical_bits=bits)

    def send_prev(flat):
        rt.send_prev(OP_SHUFFLE, head + flat.tobytes(), logical_bits=bits)

    def parse(raw) -> np.ndarray:
        return _check_frame(raw, tid, tails.nbytes)

    def column(flat) -> np.ndarray:
        return pack_bits((flat[firsts] & 1).astype(np.uint8))

    def send_column(send, flat):
        if open_flags:
            rss.send_open(send, open_label, column(flat), len(firsts))

    def recv_column(recv) -> np.ndarray | None:
        if open_flags:
            return rss.read_open(recv(OP_OPEN), open_label, 4 * words_for(len(firsts)))
        return None

    def perm(seed):
        """Word gather for the block-diagonal row permutation: segment i under tid + i."""
        rows = seeded_permutation(seed, _LABEL_PERM, tid, segments)
        return np.concatenate([
            start + ((rows[lo:hi] - lo)[:, None] * w + np.arange(w)).ravel()
            for start, lo, hi, w in zip(word_starts, row_starts[:-1], row_starts[1:], nwords)])

    def blind(seed, label):
        raw = prf_stream(seed, label, tid, [n * w * 4 for t, w in zip(tables, nwords)
                                            for n in t.segments])
        return np.frombuffer(raw, dtype=np.uint32) & tails

    share_a = np.concatenate([t.share_a.ravel() for t in tables])
    share_b = np.concatenate([t.share_b.ravel() for t in tables])
    if rt.index == 1:
        s12, s31 = rt.seed_with_next, rt.seed_with_prev
        pi12 = perm(s12)
        t12 = blind(s12, _LABEL_BLIND)
        r2 = blind(s12, _LABEL_RAND)
        pi31 = perm(s31)
        t31 = blind(s31, _LABEL_BLIND)
        r1 = blind(s31, _LABEL_RAND)
        x1 = ((share_a ^ share_b ^ t12)[pi12] ^ t31)[pi31]
        send_next(x1)
        send_column(rt.send_prev, r2)
        if during is not None:
            during()
        out_a, out_b = r1, r2
        missing = recv_column(rt.recv_prev)
    elif rt.index == 2:
        s23, s12 = rt.seed_with_next, rt.seed_with_prev
        pi12 = perm(s12)
        t12 = blind(s12, _LABEL_BLIND)
        r2 = blind(s12, _LABEL_RAND)
        pi23 = perm(s23)
        t23 = blind(s23, _LABEL_BLIND)
        y1 = (share_b ^ t12)[pi12]
        x1 = parse(rt.recv_prev(OP_SHUFFLE))
        c1 = (x1 ^ t23)[pi23] ^ r2
        send_next(y1)
        send_next(c1)
        if during is not None:
            during()
        r3 = parse(rt.recv_next(OP_SHUFFLE))
        out_a, out_b = r2, r3
        missing = recv_column(rt.recv_next)
    else:
        s31, s23 = rt.seed_with_next, rt.seed_with_prev
        pi23 = perm(s23)
        t23 = blind(s23, _LABEL_BLIND)
        pi31 = perm(s31)
        t31 = blind(s31, _LABEL_BLIND)
        r1 = blind(s31, _LABEL_RAND)
        y1 = parse(rt.recv_prev(OP_SHUFFLE))
        c1 = parse(rt.recv_prev(OP_SHUFFLE))
        c2 = ((y1 ^ t31)[pi31] ^ t23)[pi23] ^ r1
        r3 = c1 ^ c2
        send_prev(r3)
        if during is not None:  # before the flag columns: party 1 takes its frame first
            during()
        send_column(rt.send_next, r3)
        send_column(rt.send_prev, r1)
        out_a, out_b = r3, r1
        missing = recv_column(rt.recv_next)
    shuffled = [MatchTable(rt.index, t.width, out_a[lo:hi].reshape(t.rows, w),
                           out_b[lo:hi].reshape(t.rows, w), t.segments)
                for t, w, lo, hi in zip(tables, nwords, word_starts[:-1], word_starts[1:])]
    out = shuffled if more is not None else shuffled[0]
    if not open_flags:
        return out
    flags = unpack_bits(column(out_a) ^ column(out_b) ^ missing, len(firsts))
    rt.note_opened(open_label, flags, None if slots is None else
                   [(s, t.segments) for s, t in zip(slots, tables)])
    return out, flags


def _check_frame(raw, tid: int, nbytes: int) -> np.ndarray:
    """The words of a shuffle or unit-vector frame, after checking its table id and length."""
    got_tid = int.from_bytes(raw[:4], "little")
    if got_tid != tid:
        raise ProtocolError(f"shuffle table id mismatch: {got_tid} != {tid}")
    if len(raw) - 4 != nbytes:
        raise ProtocolError(f"shuffle message has {len(raw) - 4} bytes, expected {nbytes}")
    return np.frombuffer(raw[4:], dtype=np.uint32)


def _pairwise_steps(rt, table_id: int, widths: np.ndarray, positions: int):
    """Shares of ``T12(T31(T23(E)))``, ``E`` the unit vectors of 0, as a generator of three steps.

    ``E`` has one row of ``positions`` bits per entry of ``widths``, and
    ``T_s`` moves bit ``j`` of row ``k`` to ``j ^ t_k``, with ``t_k`` the
    ``widths[k]``-bit offset that the pair holding seed ``s`` draws from it
    (:func:`code_offsets`). Party 3 knows T23 and T31, so it moves ``E``
    through both alone. Three frames the size of ``E`` follow:

    * party 3 sends ``V = T31(T23(E)) ^ R31`` to party 2;
    * party 1 sends ``U = T12(R31) ^ x1`` to party 2, and party 2 sends
      ``x2' = T12(V) ^ x3`` to party 1;
    * both set ``x2 = x2' ^ U``.

    Then ``x1 ^ x2 ^ x3 = T12(T31(T23(E)))``, since ``T12`` is linear.
    ``R31`` and ``x1`` come from s31 and ``x3`` from s23, under labels of
    their own and ``table_id``, so they reuse no pad of a shuffle. Party 3
    holds ``(x3, x1)`` from its seeds alone and receives nothing. Party 1
    receives ``x2'`` where it would receive ``x2``; it sent ``U``, so each
    gives the other, and its view is the same.

    Each ``next`` runs one step, so that the frames can ride in the rounds
    of other messages: the first sends party 3's frame, so only party 3
    needs the row count; the second sends party 1's and party 2's, party 2
    receiving party 3's first; and the third has parties 1 and 2 receive
    each other's and yields the party's table. A link carries its frames in
    order, so party 2 receives what party 1 sends it before the second
    step, such as an open frame, before ``U``, and what party 1 sends it
    after the second step only after the third.
    """
    rows, nwords = len(widths), words_for(positions)
    head = int(table_id).to_bytes(4, "little")

    def move(seed, words) -> np.ndarray:
        return translate_rows(words, positions, code_offsets(seed, table_id, widths))

    def draw(seed, label) -> np.ndarray:
        raw = prf_stream(seed, label, table_id, rows * nwords * 4)
        return mask_tail(np.frombuffer(raw, np.uint32).reshape(rows, nwords).copy(), positions)

    def send(send_to, mat):
        send_to(OP_SHUFFLE, head + mat.tobytes(), logical_bits=rows * positions)

    def recv(raw) -> np.ndarray:
        return _check_frame(raw, table_id, rows * nwords * 4).reshape(rows, nwords)

    if rt.index == 1:
        s12, s31 = rt.seed_with_next, rt.seed_with_prev
        yield
        x1 = draw(s31, _LABEL_UNSHARE)
        u = move(s12, draw(s31, _LABEL_UNMASK)) ^ x1
        send(rt.send_next, u)
        yield
        components = (x1, recv(rt.recv_next(OP_SHUFFLE)) ^ u, None)
    elif rt.index == 2:
        s23, s12 = rt.seed_with_next, rt.seed_with_prev
        yield
        x3 = draw(s23, _LABEL_UNSHARE)
        x2_prime = move(s12, recv(rt.recv_next(OP_SHUFFLE))) ^ x3
        send(rt.send_prev, x2_prime)
        yield
        components = (None, x2_prime ^ recv(rt.recv_prev(OP_SHUFFLE)), x3)
    else:
        s31, s23 = rt.seed_with_next, rt.seed_with_prev
        e_0 = one_hot_rows(rows, positions, np.arange(rows), np.zeros(rows, np.int64))
        send(rt.send_prev, move(s31, move(s23, e_0)) ^ draw(s31, _LABEL_UNMASK))
        yield
        yield
        components = (draw(s31, _LABEL_UNSHARE), None, draw(s23, _LABEL_UNSHARE))
    yield MatchTable(rt.index, positions, *_held(rt.index, components))


def translate_rows(words: np.ndarray, width: int, offsets: np.ndarray) -> np.ndarray:
    """Packed rows with bit ``j`` of row ``k`` moved to bit ``j ^ offsets[k]``.

    ``width`` is a power of two above every offset, so each row's bits are
    only permuted: offset bits 5 and up permute whole words, and each lower
    bit ``b`` swaps the halves of every ``2^(b+1)``-bit block within a word
    where it is set. Translating twice by one offset gives the rows back.
    """
    offsets = np.asarray(offsets, np.uint32)
    out = words[np.arange(len(words))[:, None], np.arange(words.shape[1]) ^ (offsets >> 5)[:, None]]
    for b, mask in enumerate(_HALF_BLOCKS):
        shift = np.uint32(1 << b)
        swapped = ((out & mask) << shift) | ((out >> shift) & mask)
        out = np.where(((offsets >> b) & 1).astype(bool)[:, None], swapped, out)
    return out


def code_offsets(seed: bytes, table_id: int, widths: np.ndarray) -> np.ndarray:
    """A pair's offset per row, drawn from its seed: ``widths[k]`` random bits for row ``k``."""
    raw = prf_stream(seed, _LABEL_OFFSET, table_id, 4 * len(widths))
    return np.frombuffer(raw, np.uint32) & ((np.uint32(1) << widths) - np.uint32(1))


class UnitVectors:
    """Shared unit vectors of shared id codes: row ``c`` one-hot at ``c - 1``, code 0 a zero row.

    Made for code tables of ``shapes``, ``(rows, id width)`` each, before the
    codes exist, so that party 3's mask frame can ride in a round before them.
    Each row ``k`` of width ``w`` takes a mask ``r = r12 ^ r23 ^ r31``, one
    ``w``-bit offset from each pair seed (:func:`code_offsets`). The three
    offsets are the components of a replicated sharing of ``r`` that costs
    nothing, and translating by all three takes the public ``e_0`` to
    ``e_r``; :func:`_pairwise_steps` shares it, a pair translating by its
    own offset, over ``2^w`` positions (the widest table's, for all rows).
    :meth:`expand` then opens ``d = c ^ r``, which is uniform since no party
    knows ``r``, and each party translates its two components of ``e_r`` by
    ``d`` without a message, which gives ``e_c``. Dropping position 0 leaves
    a padding code's row all zero.

    The codes come to :meth:`expand` as additive shares ``a_i``, whose XOR
    over the parties is ``c``: a selection's own output, or a replicated
    table's first component. Party ``i`` opens ``a_i ^ x_i``, ``x_i`` the
    first of its two components of ``r`` (x1 = r31, x2 = r12, x3 = r23), by
    :func:`oblivgm.rss.open_additive`, whose fresh zero-sharing keeps the
    frames uniform given ``d``. Blinding with ``x_i`` alone would not do:
    the party before ``i`` holds ``x_i`` too, and would read ``a_i``, its
    next peer's additive share, off the frame.

    Call :meth:`send_masks` in a round before the open, once party 3 knows
    the row counts, as only party 3 sends in that step: a count that comes
    with a shuffle's flag open is known to party 3 in that open's round,
    where it sends its flag columns. Then call :meth:`expand`: the masks'
    second step rides with the open of ``d`` and their third follows it,
    so the expansion takes the open's one round.
    """

    def __init__(self, rt, shapes: list[tuple[int, int]]):
        self.rt, self.table_id = rt, rt.alloc_table_id()
        self.rows = [n for n, _ in shapes]
        self.widths = np.repeat(np.array([w for _, w in shapes], np.uint32), self.rows)
        self.positions = 1 << int(self.widths.max())
        self._steps = _pairwise_steps(rt, self.table_id, self.widths, self.positions)

    def send_masks(self) -> None:
        next(self._steps)

    def expand(self, codes: list[tuple[np.ndarray, int]], sizes: list[int], slots=None,
               during=None) -> list[MatchTable]:
        """Each code table's rows as one-hot rows of ``sizes[i]`` bits, after one open of ``d``.

        ``codes`` holds one ``(additive, width)`` per shape: the party's
        ``(rows, words)`` additive shares of ``width``-bit codes. ``slots``
        tags the opened ``d`` of consecutive tables in the ledger, as
        :func:`oblivgm.rss.open_shared`'s ``slots`` do, in bits. ``during``
        runs in the open's round, after its frames and the masks' second
        step are sent, so its frames are received after this returns.
        """
        rt = self.rt
        if [len(a) for a, _ in codes] != self.rows:
            raise ValueError(f"code tables of {[len(a) for a, _ in codes]} rows for unit vectors "
                             f"made for {self.rows}")
        mask = code_offsets(rt.seed_with_prev, self.table_id, self.widths)  # x_i
        bounds = np.cumsum([0] + self.rows)
        blinded = np.concatenate([unpack_bits(a[:, :1] ^ mask[lo:hi, None], w).ravel()
                                  for (a, w), lo, hi in zip(codes, bounds[:-1], bounds[1:])])

        def in_round():  # parties 1 and 2 send their mask frames in the open's round
            next(self._steps)
            if during is not None:
                during()

        opened = rss.open_additive(rt, blinded, slots=slots, during=in_round)
        ends = np.cumsum([0] + [len(a) * w for a, w in codes])
        d = np.concatenate([pack_bits(opened[lo:hi].reshape(len(a), w))[:, 0]
                            for (a, w), lo, hi in zip(codes, ends[:-1], ends[1:])])
        e_r = next(self._steps)
        hot = [unpack_bits(translate_rows(m, self.positions, d), self.positions)
               for m in (e_r.share_a, e_r.share_b)]
        return [MatchTable(rt.index, n, *(pack_bits(h[lo:hi, 1:n + 1]) for h in hot))
                for n, lo, hi in zip(sizes, bounds[:-1], bounds[1:])]


def composed_permutation(s12: bytes, s23: bytes, s31: bytes, table_id: int, rows: int) -> np.ndarray:
    """The realized row permutation: apply pi12, then pi31, then pi23."""
    pi12 = seeded_permutation(s12, _LABEL_PERM, table_id, rows)
    pi31 = seeded_permutation(s31, _LABEL_PERM, table_id, rows)
    pi23 = seeded_permutation(s23, _LABEL_PERM, table_id, rows)
    return pi12[pi31[pi23]]


def simulate_shuffle(s12: bytes, s23: bytes, s31: bytes, table_id: int,
                     plain_rows: np.ndarray) -> np.ndarray:
    """Plaintext reference: the rows the protocol's output must reconstruct to."""
    return plain_rows[composed_permutation(s12, s23, s31, table_id, len(plain_rows))]


def simulate_unit_vectors(s12: bytes, s23: bytes, s31: bytes, table_id: int,
                          widths, codes) -> tuple[np.ndarray, np.ndarray]:
    """Plaintext reference for :class:`UnitVectors` built under ``table_id``.

    ``widths`` and ``codes`` give each row's code width and code. Returns
    the opened ``d = c ^ r12 ^ r23 ^ r31`` and the rows of ``e_c`` over the
    ``2^w - 1`` positions of codes 1 and up (the caller keeps a type's
    population of them), as a 0/1 matrix as wide as the widest row's.
    """
    widths = np.asarray(widths, np.uint32)
    codes = np.asarray(codes, np.uint32)
    r = [code_offsets(s, table_id, widths) for s in (s12, s23, s31)]
    hot = np.zeros((len(codes), (1 << int(widths.max(initial=0))) - 1), np.uint8)
    hot[np.nonzero(codes)[0], codes[codes > 0].astype(np.int64) - 1] = 1
    return codes ^ r[0] ^ r[1] ^ r[2], hot
