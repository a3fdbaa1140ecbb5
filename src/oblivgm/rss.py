"""Three-party replicated secret sharing over packed bit vectors.

A secret ``x`` is split into ``x1 ^ x2 ^ x3``; party ``i`` holds the pair
``(x_i, x_{i+1})`` with wrap-around. XOR is local. AND produces a 3-out-of-3
additive sharing locally and becomes replicated again through a one-round
re-share: each party blinds its additive share with a fresh zero-sharing and
forwards it to the next party.

One container holds one party's shares: :class:`MatchTable`, a batch of
uniform-width rows as two word matrices, with public segment row counts. A
shared vector, such as a column of predicate bits or the flags to open, is
a table of one row. Tables are what every protocol step of the engine
moves, what a query's matched records are, and what result files store.
One re-share message can carry several tables of different widths, laid
end to end.

Local share algebra lives here as pure functions. The operations that
communicate (:func:`reshare_rows`, with :func:`reshare` its one-row case,
:func:`and_gate`, :func:`open_shared`) take a party runtime (see
:mod:`oblivgm.net`) providing ordered channels, the zero-share context, open
labels, the leakage ledger and traffic metering. :func:`reshare_rows` is the
only code that sends and receives re-share frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitVector, mask_tail, words_for
from .net import OP_OPEN, OP_RESHARE, ProtocolError
from .prf import prf_words

PARTIES = (1, 2, 3)


def next_party(i: int) -> int:
    return i % 3 + 1


def prev_party(i: int) -> int:
    return (i + 1) % 3 + 1


@dataclass
class MatchTable:
    """One party's share of an ordered batch of uniform-width rows: the pairs (x_i, x_{i+1}).

    ``share_a``/``share_b`` are ``(rows, words)`` uint32 matrices, the
    party's two components of every row. ``segments`` are the public row
    counts of consecutive blocks, such as the candidate groups of one query
    slot; by default the whole table is one segment. A shared vector of
    ``n`` bits is a table of one row of width ``n``.
    """

    party_index: int
    width: int
    share_a: np.ndarray
    share_b: np.ndarray
    segments: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.party_index not in PARTIES:
            raise ValueError(f"party_index must be in {PARTIES}")
        expected = (self.rows, words_for(self.width))
        if self.share_a.shape != expected or self.share_b.shape != expected:
            raise ValueError(f"table shares must have shape {expected}")
        self.segments = (self.rows,) if self.segments is None else tuple(self.segments)
        if not self.segments or min(self.segments) < 0 or sum(self.segments) != self.rows:
            raise ValueError(f"segments {self.segments} do not split {self.rows} rows")

    @property
    def rows(self) -> int:
        return self.share_a.shape[0]

    @property
    def logical_len(self) -> int:
        return self.rows * self.width

    @classmethod
    def from_rows(cls, rows: list["MatchTable"]) -> "MatchTable":
        """Stack one party's one-row tables into one table."""
        if not rows:
            raise ValueError("empty table")
        width, party = rows[0].width, rows[0].party_index
        for r in rows:
            if r.width != width or r.party_index != party:
                raise ValueError("rows must share width and party")
        return cls(party, width, np.concatenate([r.share_a for r in rows]),
                   np.concatenate([r.share_b for r in rows]))

    def take(self, rows) -> "MatchTable":
        """The rows picked by a slice or an index array, as a one-segment table."""
        return MatchTable(self.party_index, self.width, self.share_a[rows], self.share_b[rows])

    def row(self, i: int) -> "MatchTable":
        return self.take(slice(i, i + 1))

    def _check_operand(self, other: "MatchTable"):
        if self.party_index != other.party_index:
            raise ValueError("cannot combine shares of different parties")
        if (self.rows, self.width) != (other.rows, other.width):
            raise ValueError("length mismatch")

    def xor(self, other: "MatchTable") -> "MatchTable":
        """Local XOR of two tables of one shape held by the same party; segments are kept."""
        self._check_operand(other)
        return MatchTable(self.party_index, self.width, self.share_a ^ other.share_a,
                          self.share_b ^ other.share_b, self.segments)

    def xor_public(self, const: BitVector) -> "MatchTable":
        """Add a public constant to every row: it is folded into share x1 only."""
        if const.logical_len != self.width:
            raise ValueError("length mismatch")
        a, b = self.share_a, self.share_b
        if self.party_index == 1:
            a = a ^ const.words
        elif self.party_index == 3:
            b = b ^ const.words
        return MatchTable(self.party_index, self.width, a, b, self.segments)


def share(plaintext: BitVector, rng: np.random.Generator):
    """Split a plaintext vector into the three parties' one-row tables."""
    n = plaintext.logical_len
    if n == 0:
        raise ValueError("cannot share a zero-length vector")
    s1 = BitVector.random(n, rng)
    s2 = BitVector.random(n, rng)
    s3 = plaintext ^ s1 ^ s2
    parts = {1: s1, 2: s2, 3: s3}
    return tuple(
        MatchTable(i, n, parts[i].words[None], parts[next_party(i)].words[None]) for i in PARTIES
    )


def reconstruct(shares) -> BitVector:
    """Recover one vector from the one-row tables of any two or three parties."""
    shares = list(shares)
    (row,) = reconstruct_rows(shares)
    return BitVector(row, shares[0].width)


def reconstruct_rows(tables) -> np.ndarray:
    """Recover a table's plaintext rows from the shares of any two or three parties.

    Duplicated components must agree; all three share indices must be
    covered. Returns the packed rows, with the bits past the width zero.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("no shares given")
    shape = tables[0].width, tables[0].rows
    components: dict[int, np.ndarray] = {}
    for t in tables:
        if (t.width, t.rows) != shape:
            raise ValueError("length mismatch between share pairs")
        for idx, mat in ((t.party_index, t.share_a), (next_party(t.party_index), t.share_b)):
            mat = mask_tail(mat.copy(), t.width)
            if idx in components:
                if not np.array_equal(components[idx], mat):
                    raise ValueError(f"inconsistent copies of share {idx}")
            else:
                components[idx] = mat
    if set(components) != set(PARTIES):
        raise ValueError(f"share indices {sorted(components)} do not cover all of {PARTIES}")
    return components[1] ^ components[2] ^ components[3]


def and_terms(a: MatchTable, b: MatchTable) -> BitVector:
    """Local additive share of a AND b for one-row tables: a_i&b_i ^ a_i&b_{i+1} ^ a_{i+1}&b_i."""
    a._check_operand(b)
    words = (a.share_a & b.share_a) ^ (a.share_a & b.share_b) ^ (a.share_b & b.share_a)
    return BitVector(words, a.logical_len)


@dataclass
class ZeroShareContext:
    """Per-party state for PRF-based fresh sharings of zero.

    Party ``i`` holds its own key and the previous party's key; with aligned
    counters the three parties' outputs XOR to zero.
    """

    prf_key_own: bytes
    prf_key_prev: bytes
    counter: int = 0

    LABEL = b"ZSHR"

    def next_share(self, nbits: int) -> BitVector:
        j = self.counter
        self.counter += 1
        words = prf_words(self.prf_key_own, self.LABEL, j, nbits)
        words ^= prf_words(self.prf_key_prev, self.LABEL, j, nbits)
        return BitVector(mask_tail(words, nbits), nbits)


# ---------------------------------------------------------------------------
# Communicating operations. ``rt`` is a PartyRuntime (oblivgm.net).
# ---------------------------------------------------------------------------


def reshare_rows(rt, additive: np.ndarray, width: int, *, more=None):
    """Turn additive shares of ``(rows, words)`` rows of ``width`` bits into a replicated table.

    One message of ``rows * width`` logical bits to the next party, blinded
    by one zero-sharing drawn for the whole matrix. The blinded additive
    share sent by party i becomes replicated share index i+1.

    ``more`` is a list of further ``(additive, width)`` tables of any row
    counts and widths. They ride in the same message, each table's words
    laid after the previous table's with no padding to a common width, under
    one zero-sharing drawn for all of them; the list of every replicated
    table comes back, in order. Without ``more`` the one table comes back.
    """
    parts = [(additive, width)] + list(more or ())
    pad = rt.zero_share(sum(a.size for a, _ in parts) * 32).words
    blinded, pos = [], 0
    for a, w in parts:
        blinded.append(mask_tail(a ^ pad[pos:pos + a.size].reshape(a.shape), w))
        pos += a.size
    payload = b"".join(b.tobytes() for b in blinded)
    rt.send_next(OP_RESHARE, payload, logical_bits=sum(a.shape[0] * w for a, w in parts))
    raw = rt.recv_prev(OP_RESHARE)
    if len(raw) != len(payload):
        raise ProtocolError(f"re-share message has {len(raw)} bytes, expected {len(payload)}")
    received = np.frombuffer(raw, dtype=np.uint32)
    tables, pos = [], 0
    for b, (_, w) in zip(blinded, parts):
        tables.append(MatchTable(rt.index, w, received[pos:pos + b.size].reshape(b.shape), b))
        pos += b.size
    return tables if more is not None else tables[0]


def reshare(rt, additive: BitVector, *, more=None):
    """Re-share one additive vector into a one-row table: the one-row case of :func:`reshare_rows`.

    ``more`` is a list of further vectors re-shared in the same message; the
    list of every shared table comes back, in order. A zero-sharing is an
    AES-CTR stream, so drawing it for whole words gives the same bits as
    drawing it for ``len(additive)`` bits.
    """
    return reshare_rows(rt, additive.words[None, :], additive.logical_len,
                        more=None if more is None else [(v.words[None, :], v.logical_len)
                                                        for v in more])


def and_gate(rt, a: MatchTable, b: MatchTable, *, more=None):
    """Bitwise AND of two one-row tables; one round, n bits per party.

    ``more`` is a list of further ``(a, b)`` pairs ANDed in the same
    message; the list of every product comes back, in order.
    """
    terms = None if more is None else [and_terms(x, y) for x, y in more]
    return reshare(rt, and_terms(a, b), more=terms)


def open_shared(rt, x: MatchTable, *, slots=None) -> BitVector:
    """Reveal a one-row table to every party and enter it in the runtime's ledger.

    Each party forwards its first share component to the next party under the
    runtime's next open label; labels advance in lockstep, so a mismatch means
    the parties are opening different values. ``slots`` lists the
    ``(slot, segments)`` of consecutive runs of ``x``, each entered in the
    ledger on its own under this label (see :meth:`oblivgm.net.PartyRuntime.note_opened`).
    """
    label = rt.alloc_open_label()
    n = x.logical_len
    payload = int(label).to_bytes(4, "little") + x.share_a.tobytes()
    rt.send_next(OP_OPEN, payload, logical_bits=n)
    raw = rt.recv_prev(OP_OPEN)
    peer_label = int.from_bytes(raw[:4], "little")
    if peer_label != label:
        raise ProtocolError(f"open label mismatch: local {label}, peer {peer_label}")
    expected = x.share_a.nbytes
    if len(raw) - 4 != expected:
        raise ProtocolError(f"open message has {len(raw) - 4} bytes, expected {expected}")
    plain = BitVector(x.share_a ^ x.share_b ^ np.frombuffer(raw[4:], dtype=np.uint32), n)
    rt.note_opened(label, plain, slots)
    return plain
