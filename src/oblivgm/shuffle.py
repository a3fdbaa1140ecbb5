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

After a shuffle, :func:`sec_unshuffle_keep` undoes the same permutation on a
public input: the unit vectors of some shuffled positions. It gives shares
of those rows' original positions as one-hot rows in two rounds and three
frames, so a table whose rows are public vertices need not carry their
one-hot ids through the shuffle.
"""

from __future__ import annotations

import numpy as np

from .bits import BitVector, mask_tail, one_hot_rows, pack_bits, unpack_bits, words_for
from .net import OP_SHUFFLE, ProtocolError
from .prf import prf_stream, seeded_permutation
from .rss import MatchTable, _held

_LABEL_PERM = b"SHPI"
_LABEL_BLIND = b"SHTB"
_LABEL_RAND = b"SHRD"
_LABEL_UNMASK = b"SHUM"  # the unshuffle's mask R31
_LABEL_UNSHARE = b"SHUS"  # the unshuffle's output components x1 (from s31) and x3 (from s23)


def sec_shuffle(rt, table: MatchTable, *, more=None):
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
    """
    tables = [table] + list(more or ())
    if any(t.party_index != rt.index for t in tables):
        raise ValueError("table does not belong to this party")
    segments = [n for t in tables for n in t.segments]
    # segment i takes table id tid + i: the ids are consecutive, so the first identifies the batch
    tid = [rt.alloc_table_id() for _ in segments][0]
    # every operation below acts on the tables' words laid end to end in one flat array
    nwords = [words_for(t.width) for t in tables]
    word_starts = np.cumsum([0] + [t.rows * w for t, w in zip(tables, nwords)])
    row_starts = np.cumsum([0] + [t.rows for t in tables])
    tails = np.concatenate([np.tile(mask_tail(np.full(w, 0xFFFFFFFF, np.uint32), t.width), t.rows)
                            for t, w in zip(tables, nwords)])
    bits = sum(t.rows * t.width for t in tables)
    head = int(tid).to_bytes(4, "little")

    def send_next(flat):
        rt.send_next(OP_SHUFFLE, head + flat.tobytes(), logical_bits=bits)

    def send_prev(flat):
        rt.send_prev(OP_SHUFFLE, head + flat.tobytes(), logical_bits=bits)

    def parse(raw) -> np.ndarray:
        return _check_frame(raw, tid, tails.nbytes)

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
        out_a, out_b = r1, r2
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
        r3 = parse(rt.recv_next(OP_SHUFFLE))
        out_a, out_b = r2, r3
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
        out_a, out_b = r3, r1
    shuffled = [MatchTable(rt.index, t.width, out_a[lo:hi].reshape(t.rows, w),
                           out_b[lo:hi].reshape(t.rows, w), t.segments)
                for t, w, lo, hi in zip(tables, nwords, word_starts[:-1], word_starts[1:])]
    return shuffled if more is not None else shuffled[0]


def _check_frame(raw, tid: int, nbytes: int) -> np.ndarray:
    """The words of a shuffle or unshuffle frame, after checking its table id and length."""
    got_tid = int.from_bytes(raw[:4], "little")
    if got_tid != tid:
        raise ProtocolError(f"shuffle table id mismatch: {got_tid} != {tid}")
    if len(raw) - 4 != nbytes:
        raise ProtocolError(f"shuffle message has {len(raw) - 4} bytes, expected {nbytes}")
    return np.frombuffer(raw[4:], dtype=np.uint32)


def sec_unshuffle_keep(rt, table_id: int, rows: int, keep: np.ndarray) -> MatchTable:
    """Shared one-hot original positions of kept rows of a shuffled segment.

    The segment of ``rows`` rows was shuffled under ``table_id``, so its
    shuffled row ``i`` is its row ``sigma[i]``, with ``sigma`` the
    :func:`composed_permutation` pi12(pi31(pi23)). ``keep`` holds K public
    shuffled positions. Returns a table of K rows of ``rows`` bits whose row
    ``k`` is the unit vector of ``sigma[keep[k]]``.

    That is the transpose of ``scatter_sigma(E)``, where the public
    ``rows`` x K matrix ``E`` has column ``k`` the unit vector of ``keep[k]``
    and ``scatter_p(A)[p[i]] = A[i]``. Since ``E`` is public, party 3, which
    knows pi23 and pi31, scatters it through both alone. Two rounds and three
    frames of ``rows * ceil(K / 32)`` words follow:

    * party 3 sends ``V = scatter_pi31(scatter_pi23(E)) ^ R31`` to party 2,
      and party 1 sends ``U = scatter_pi12(R31) ^ x1`` to party 2;
    * party 2 sets ``x2 = scatter_pi12(V) ^ U ^ x3`` and sends it to party 1.

    ``R31`` and ``x1`` come from s31 and ``x3`` from s23, under labels of
    their own and the segment's table id, so they reuse no pad of the
    shuffle. Party 3 holds ``(x3, x1)`` from its seeds alone and receives
    nothing; with K = 0 no frame is sent. Transposing is local.
    """
    k = len(keep)
    if not k:
        empty = np.zeros((0, words_for(rows)), np.uint32)
        return MatchTable(rt.index, rows, empty, empty)
    nwords = words_for(k)
    head = int(table_id).to_bytes(4, "little")

    def draw(seed, label) -> np.ndarray:
        raw = prf_stream(seed, label, table_id, rows * nwords * 4)
        return mask_tail(np.frombuffer(raw, np.uint32).reshape(rows, nwords).copy(), k)

    def perm(seed) -> np.ndarray:
        return seeded_permutation(seed, _LABEL_PERM, table_id, rows)

    def scatter(seed, mat) -> np.ndarray:
        out = np.empty_like(mat)
        out[perm(seed)] = mat
        return out

    def send(send_to, mat):
        send_to(OP_SHUFFLE, head + mat.tobytes(), logical_bits=rows * k)

    def recv(raw) -> np.ndarray:
        return _check_frame(raw, table_id, rows * nwords * 4).reshape(rows, nwords)

    if rt.index == 1:
        s12, s31 = rt.seed_with_next, rt.seed_with_prev
        x1 = draw(s31, _LABEL_UNSHARE)
        send(rt.send_next, scatter(s12, draw(s31, _LABEL_UNMASK)) ^ x1)
        components = (x1, recv(rt.recv_next(OP_SHUFFLE)), None)
    elif rt.index == 2:
        s23, s12 = rt.seed_with_next, rt.seed_with_prev
        x3 = draw(s23, _LABEL_UNSHARE)
        u = recv(rt.recv_prev(OP_SHUFFLE))
        x2 = scatter(s12, recv(rt.recv_next(OP_SHUFFLE))) ^ u ^ x3
        send(rt.send_prev, x2)
        components = (None, x2, x3)
    else:
        s31, s23 = rt.seed_with_next, rt.seed_with_prev
        z = one_hot_rows(rows, k, perm(s31)[perm(s23)[keep]], np.arange(k))
        send(rt.send_prev, z ^ draw(s31, _LABEL_UNMASK))
        components = (draw(s31, _LABEL_UNSHARE), None, draw(s23, _LABEL_UNSHARE))
    return MatchTable(rt.index, rows, *(pack_bits(unpack_bits(m, k).T)
                                        for m in _held(rt.index, components)))


def composed_permutation(s12: bytes, s23: bytes, s31: bytes, table_id: int, rows: int) -> np.ndarray:
    """The realized row permutation: apply pi12, then pi31, then pi23."""
    pi12 = seeded_permutation(s12, _LABEL_PERM, table_id, rows)
    pi31 = seeded_permutation(s31, _LABEL_PERM, table_id, rows)
    pi23 = seeded_permutation(s23, _LABEL_PERM, table_id, rows)
    return pi12[pi31[pi23]]


def simulate_shuffle(s12: bytes, s23: bytes, s31: bytes, table_id: int,
                     plain_rows: list[BitVector]) -> list[BitVector]:
    """Plaintext reference: what the protocol's output must reconstruct to."""
    perm = composed_permutation(s12, s23, s31, table_id, len(plain_rows))
    return [plain_rows[int(i)] for i in perm]


def simulate_unshuffle(s12: bytes, s23: bytes, s31: bytes, table_id: int, rows: int,
                       keep) -> list[BitVector]:
    """Plaintext reference for :func:`sec_unshuffle_keep`: each kept row's origin, one-hot."""
    perm = composed_permutation(s12, s23, s31, table_id, rows)
    return [BitVector.one_hot(rows, int(perm[i])) for i in keep]
