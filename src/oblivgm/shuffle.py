"""Secret-shared shuffle of a table of replicated-shared rows.

The permutation is the composition of three pairwise-seeded permutations,
each known to exactly two parties, so no single party can reconstruct it.
All blinding tables and permutations are expanded deterministically from the
pairwise seeds with domain separation by table id, which keeps the protocol
reproducible under fixed seeds and lets tests simulate the exact outcome in
plaintext.

The table is an :class:`oblivgm.rss.MatchTable`. Its segments, public row
counts, are each shuffled as a table of their own, under their own table id,
but all segments travel in the same four frames.
"""

from __future__ import annotations

import numpy as np

from .bits import BitVector, mask_tail, words_for
from .net import OP_SHUFFLE, ProtocolError
from .prf import prf_stream, seeded_permutation
from .rss import MatchTable

_LABEL_PERM = b"SHPI"
_LABEL_BLIND = b"SHTB"
_LABEL_RAND = b"SHRD"


def _blind_table(seed: bytes, label: bytes, first_id: int, segments, width: int) -> np.ndarray:
    """Blinding rows of every segment, segment ``i`` drawn under table id ``first_id + i``."""
    nwords = words_for(width)
    raw = prf_stream(seed, label, first_id, [rows * nwords * 4 for rows in segments])
    mat = np.frombuffer(raw, dtype=np.uint32).reshape(-1, nwords).copy()
    return mask_tail(mat, width)


def _apply(perm: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return mat[perm]


def sec_shuffle(rt, table: MatchTable) -> MatchTable:
    """Obliviously permute the rows of each segment; returns fresh replicated shares.

    Each segment takes the next table id, and its permutations and blinding
    tables come from that id alone. Four frames cross the wire, each the
    size of the whole table however many segments it has: party 1 sends one
    to party 2, party 2 sends two to party 3, and party 3 sends one back to
    party 2. They take three rounds, since party 2's two frames go out
    together. A one-segment table is the plain shuffle of the whole table.
    """
    if table.party_index != rt.index:
        raise ValueError("table does not belong to this party")
    rows, width, segments = table.rows, table.width, table.segments
    # segment i takes table id tid + i: the ids are consecutive, so the first identifies the batch
    tid = [rt.alloc_table_id() for _ in segments][0]
    bits = rows * width
    head = int(tid).to_bytes(4, "little")
    payload_bytes = rows * words_for(width) * 4

    def send_next(mat):
        rt.send_next(OP_SHUFFLE, head + mat.tobytes(), logical_bits=bits)

    def send_prev(mat):
        rt.send_prev(OP_SHUFFLE, head + mat.tobytes(), logical_bits=bits)

    def parse(raw) -> np.ndarray:
        got_tid = int.from_bytes(raw[:4], "little")
        if got_tid != tid:
            raise ProtocolError(f"shuffle table id mismatch: {got_tid} != {tid}")
        if len(raw) - 4 != payload_bytes:
            raise ProtocolError(f"shuffle message has {len(raw) - 4} bytes, "
                                f"expected {payload_bytes}")
        return np.frombuffer(raw[4:], dtype=np.uint32).reshape(rows, words_for(width))

    def perm(seed):  # block diagonal: segment i is permuted under tid + i
        return seeded_permutation(seed, _LABEL_PERM, tid, segments)

    def blind(seed, label):
        return _blind_table(seed, label, tid, segments, width)

    if rt.index == 1:
        s12, s31 = rt.seed_with_next, rt.seed_with_prev
        pi12 = perm(s12)
        t12 = blind(s12, _LABEL_BLIND)
        r2 = blind(s12, _LABEL_RAND)
        pi31 = perm(s31)
        t31 = blind(s31, _LABEL_BLIND)
        r1 = blind(s31, _LABEL_RAND)
        x1 = _apply(pi31, _apply(pi12, table.share_a ^ table.share_b ^ t12) ^ t31)
        send_next(x1)
        out_a, out_b = r1, r2
    elif rt.index == 2:
        s23, s12 = rt.seed_with_next, rt.seed_with_prev
        pi12 = perm(s12)
        t12 = blind(s12, _LABEL_BLIND)
        r2 = blind(s12, _LABEL_RAND)
        pi23 = perm(s23)
        t23 = blind(s23, _LABEL_BLIND)
        y1 = _apply(pi12, table.share_b ^ t12)
        x1 = parse(rt.recv_prev(OP_SHUFFLE))
        c1 = _apply(pi23, x1 ^ t23) ^ r2
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
        c2 = _apply(pi23, _apply(pi31, y1 ^ t31) ^ t23) ^ r1
        r3 = c1 ^ c2
        send_prev(r3)
        out_a, out_b = r3, r1
    return MatchTable(rt.index, width, np.ascontiguousarray(out_a),
                      np.ascontiguousarray(out_b), segments)


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
