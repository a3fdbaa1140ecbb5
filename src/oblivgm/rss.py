"""Three-party replicated secret sharing over packed bit rows.

A secret ``x`` is split into ``x1 ^ x2 ^ x3``; party ``i`` holds the pair
``(x_i, x_{i+1})`` with wrap-around. XOR is local. AND produces a 3-out-of-3
additive sharing locally and becomes replicated again through a one-round
re-share: each party blinds its additive share with a fresh zero-sharing and
forwards it to the next party.

One type holds one party's shares: :class:`MatchTable`, a batch of
uniform-width rows as two word matrices, with public segment row counts. A
shared vector, such as a column of predicate bits or the flags to open, is
a table of one row. Tables are what an encrypted graph is made of, what
every protocol step of the engine moves, what a query's matched records
are, and what graph share and result files store. :func:`share_rows` is the
one place plaintext rows are split into the three parties' tables.
One re-share message can carry several tables of different widths, laid
end to end. Additive shares are ``(rows, words)`` word matrices, and an
opened value comes back as a ``uint8`` 0/1 array.

Local share algebra lives here as pure functions. The operations that
communicate (:func:`reshare_rows`, with :func:`reshare` its one-row case,
:func:`and_gate`, :func:`open_shared`, :func:`open_additive`) take a party
runtime (see :mod:`oblivgm.net`) providing ordered channels, the zero-share
context, open labels, the leakage ledger and traffic metering.
:func:`reshare_rows` is the only code that sends and receives re-share
frames; :func:`send_open` and :func:`read_open` write and check every open
frame, the shuffle's fused flag open included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import BitVector, mask_tail, pack_bits, unpack_bits, words_for
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

    @classmethod
    def public(cls, party: int, width: int, rows: np.ndarray, zero: np.ndarray) -> "MatchTable":
        """Party's share of public rows: their components are ``(rows, zero, zero)``.

        The public value is folded into x1 only, so party 1 holds
        ``(rows, 0)``, party 2 ``(0, 0)`` and party 3 ``(0, rows)``; the
        arrays are held as given, not copied.
        """
        return cls(party, width, *_held(party, (rows, zero, zero)))


def _held(party: int, components):
    """The two of the three components ``(x1, x2, x3)`` that party i holds: ``(x_i, x_{i+1})``."""
    return components[party - 1], components[next_party(party) - 1]


def share_rows(plain: np.ndarray, width: int, rng: np.random.Generator, runs=None):
    """Split packed plaintext rows of ``width`` bits into the three parties' tables.

    x1 and x2 are uniform, x3 is ``plain ^ x1 ^ x2``, and party i's table
    holds :func:`_held` ``(x_i, x_{i+1})``; the three tables share the
    component arrays. ``runs`` lists the ``(start, rows)`` blocks drawn one
    after another, x1's rows then x2's, by default the whole matrix in one
    block; rows outside every run are public zeros in all three components,
    and must be zero in ``plain``. Every run is drawn in one call: full-range
    ``uint32`` draws concatenate exactly, so this equals one call per run
    and component.
    """
    if runs is None:
        x1, x2 = rng.integers(0, 1 << 32, size=(2, *plain.shape), dtype=np.uint32)
    else:
        starts, counts = np.array(runs, np.int64).reshape(-1, 2).T
        first = np.cumsum(counts) - counts  # each run's first row among all runs' rows
        within = np.arange(counts.sum()) - np.repeat(first, counts)
        dest, src = np.repeat(starts, counts) + within, np.repeat(2 * first, counts) + within
        draw = rng.integers(0, 1 << 32, size=(2 * len(within), plain.shape[1]), dtype=np.uint32)
        x1, x2 = np.zeros_like(plain), np.zeros_like(plain)
        x1[dest], x2[dest] = draw[src], draw[src + np.repeat(counts, counts)]
    components = (mask_tail(x1, width), mask_tail(x2, width), plain ^ x1 ^ x2)
    return tuple(MatchTable(i, width, *_held(i, components)) for i in PARTIES)


def share(plaintext: BitVector, rng: np.random.Generator):
    """Split a plaintext vector into the three parties' one-row tables."""
    if plaintext.logical_len == 0:
        raise ValueError("cannot share a zero-length vector")
    return share_rows(plaintext.words[None], plaintext.logical_len, rng)


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


def and_terms(a_a: np.ndarray, a_b: np.ndarray, b_a: np.ndarray, b_b: np.ndarray) -> np.ndarray:
    """Local additive share ``a_i&b_i ^ a_i&b_{i+1} ^ a_{i+1}&b_i`` of a AND b, on word arrays.

    The arrays broadcast: one row of ``a`` against many of ``b``, or per-row
    0/0xFFFFFFFF flag masks, shape ``(rows, 1)``, against rows of words.
    Flags are masks ANDed with every row, so the work does not depend on
    them. Reading only the rows they pick would: ``a_i ^ a_{i+1}`` is the
    shared bits XOR the third component, so the run time would show the peer
    holding that component the popcount of the bits XOR a vector it knows.
    """
    return (a_a & (b_a ^ b_b)) ^ (a_b & b_a)


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

    def next_share(self, nbits: int) -> np.ndarray:
        """The words of this party's share of ``nbits`` zero bits, the bits past them zero."""
        j = self.counter
        self.counter += 1
        words = prf_words(self.prf_key_own, self.LABEL, j, nbits)
        words ^= prf_words(self.prf_key_prev, self.LABEL, j, nbits)
        return mask_tail(words, nbits)


# ---------------------------------------------------------------------------
# Communicating operations. ``rt`` is a PartyRuntime (oblivgm.net).
# ---------------------------------------------------------------------------


def reshare_rows(rt, additive: np.ndarray, width: int, *, more=None, during=None):
    """Turn additive shares of ``(rows, words)`` rows of ``width`` bits into a replicated table.

    One message of ``rows * width`` logical bits to the next party, blinded
    by one zero-sharing drawn for the whole matrix. The blinded additive
    share sent by party i becomes replicated share index i+1.

    ``more`` is a list of further ``(additive, width)`` tables of any row
    counts and widths. They ride in the same message, each table's words
    laid after the previous table's with no padding to a common width, under
    one zero-sharing drawn for all of them; the list of every replicated
    table comes back, in order. Without ``more`` the one table comes back.

    ``during`` is called after the send and before the receive, so that the
    frames it sends ride in this message's round.
    """
    parts = [(additive, width)] + list(more or ())
    pad = rt.zero_share(sum(a.size for a, _ in parts) * 32)
    blinded, pos = [], 0
    for a, w in parts:
        blinded.append(mask_tail(a ^ pad[pos:pos + a.size].reshape(a.shape), w))
        pos += a.size
    payload = b"".join(b.tobytes() for b in blinded)
    rt.send_next(OP_RESHARE, payload, logical_bits=sum(a.shape[0] * w for a, w in parts))
    if during is not None:
        during()
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
    """Bitwise AND of two tables of one shape; one round, a bit per party per shared bit.

    ``more`` is a list of further ``(a, b)`` pairs ANDed in the same
    message; the list of every product comes back, in order.
    """
    def terms(x: MatchTable, y: MatchTable):
        x._check_operand(y)
        return and_terms(x.share_a, x.share_b, y.share_a, y.share_b), x.width

    parts = [terms(x, y) for x, y in [(a, b)] + list(more or ())]
    return reshare_rows(rt, *parts[0], more=None if more is None else parts[1:])


def send_open(send, label: int, words: np.ndarray, nbits: int) -> None:
    """Send one open frame: the open's label, then the words of ``nbits`` shared bits."""
    send(OP_OPEN, int(label).to_bytes(4, "little") + words.tobytes(), logical_bits=nbits)


def read_open(raw: bytes, label: int, nbytes: int) -> np.ndarray:
    """The words of a received open frame, after checking its label and its length."""
    peer_label = int.from_bytes(raw[:4], "little")
    if peer_label != label:
        raise ProtocolError(f"open label mismatch: local {label}, peer {peer_label}")
    if len(raw) - 4 != nbytes:
        raise ProtocolError(f"open message has {len(raw) - 4} bytes, expected {nbytes}")
    return np.frombuffer(raw[4:], dtype=np.uint32)


def open_shared(rt, x: MatchTable, *, slots=None, during=None) -> np.ndarray:
    """Reveal a one-row table to every party as a 0/1 array, and enter it in the ledger.

    Each party forwards its second share component to the previous party,
    which lacks exactly that one, under the runtime's next open label;
    labels advance in lockstep, so a mismatch means the parties are opening
    different values. ``slots`` lists the ``(slot, segments)`` of
    consecutive runs of ``x``, each entered in the ledger on its own under
    this label (see :meth:`oblivgm.net.PartyRuntime.note_opened`).
    ``during`` is called after the send and before the receive, so that the
    frames it sends ride in this round.

    The engine opens no table this way: a shuffle opens its flags in its
    own last round (:func:`oblivgm.shuffle.sec_shuffle`), and a unit-vector
    expansion opens its masked codes from additive shares
    (:func:`open_additive`).
    """
    label = rt.alloc_open_label()
    send_open(rt.send_prev, label, x.share_b, x.logical_len)
    if during is not None:
        during()
    missing = read_open(rt.recv_next(OP_OPEN), label, x.share_b.nbytes)
    plain = unpack_bits(x.share_a ^ x.share_b ^ missing, x.width)[0]
    rt.note_opened(label, plain, slots)
    return plain


def open_additive(rt, additive: np.ndarray, *, slots=None, during=None) -> np.ndarray:
    """Reveal the XOR of the parties' additive 0/1 arrays in one round; enter it in the ledger.

    Each party XORs its share with a fresh zero-sharing and sends the result
    to both peers under the runtime's next open label; the XOR of its own
    and the two received frames is the value. The zero-sharing makes the two
    frames a party receives uniform given the value, so they show nothing of
    the peers' shares. ``slots`` and ``during`` are as in
    :func:`open_shared`; ``during`` runs after both sends.

    One zero-sharing is drawn per call, as one :func:`reshare_rows` draws,
    so an open that replaces a re-share leaves later re-shares' pads as
    they were.
    """
    label = rt.alloc_open_label()
    n = len(additive)
    blinded = pack_bits(additive) ^ rt.zero_share(n)
    send_open(rt.send_next, label, blinded, n)
    send_open(rt.send_prev, label, blinded, n)
    if during is not None:
        during()
    plain = blinded.copy()
    for recv in (rt.recv_prev, rt.recv_next):
        plain ^= read_open(recv(OP_OPEN), label, blinded.nbytes)
    plain = unpack_bits(plain, n)
    rt.note_opened(label, plain, slots)
    return plain
