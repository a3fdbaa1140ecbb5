"""Bit vectors packed into 32-bit words.

All share material and one-hot encodings in this package are bit strings.
They are stored little-endian in ``numpy.uint32`` words: logical bit ``i``
lives at bit ``i % 32`` of word ``i // 32``. Bits past ``logical_len`` are
kept zero by every constructor and operation, so word-level comparisons
and serialization are canonical.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

WORD_BITS = 32


def words_for(nbits: int) -> int:
    """Number of 32-bit words needed to hold ``nbits`` bits."""
    return (nbits + WORD_BITS - 1) // WORD_BITS


def mask_tail(words: np.ndarray, nbits: int) -> np.ndarray:
    """Zero any bits at positions >= nbits, in place. Returns ``words``."""
    rem = nbits % WORD_BITS
    if rem and words.size:
        words[..., -1] &= np.uint32((1 << rem) - 1)
    return words


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a uint8 0/1 array (possibly 2-D, bits along the last axis) into words."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n = bits.shape[-1]
    pad = (-n) % (WORD_BITS // 8 * 8)
    if pad:
        shape = bits.shape[:-1] + (pad,)
        bits = np.concatenate([bits, np.zeros(shape, dtype=np.uint8)], axis=-1)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint32).reshape(bits.shape[:-1] + (words_for(n),))


def unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns a uint8 array with ``nbits`` along the last axis."""
    words = np.ascontiguousarray(words, dtype=np.uint32)
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :nbits]


def one_hot_rows(rows: int, width: int, row: np.ndarray, hot: np.ndarray) -> np.ndarray:
    """Packed ``(rows, words)`` matrix with bit ``hot[j]`` of row ``row[j]`` set, zero elsewhere."""
    words = np.zeros((rows, words_for(width)), np.uint32)
    words[row, hot // WORD_BITS] = np.uint32(1) << (hot % WORD_BITS).astype(np.uint32)
    return words


class BitVector:
    """A length-annotated packed bit string.

    Instances are treated as immutable: operations return new vectors and
    never alias the operands' word buffers.
    """

    __slots__ = ("words", "logical_len")

    def __init__(self, words: np.ndarray, logical_len: int):
        if logical_len < 0:
            raise ValueError("logical_len must be non-negative")
        words = np.array(words, dtype=np.uint32, copy=True).reshape(-1)
        if words.size != words_for(logical_len):
            raise ValueError(
                f"expected {words_for(logical_len)} words for {logical_len} bits, got {words.size}"
            )
        mask_tail(words, logical_len)
        self.words = words
        self.logical_len = logical_len

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "BitVector":
        return cls(np.zeros(words_for(nbits), dtype=np.uint32), nbits)

    @classmethod
    def ones(cls, nbits: int) -> "BitVector":
        return cls(np.full(words_for(nbits), 0xFFFFFFFF, dtype=np.uint32), nbits)

    @classmethod
    def from_bits(cls, bits: Sequence[int] | np.ndarray) -> "BitVector":
        arr = np.asarray(bits, dtype=np.uint8)
        return cls(pack_bits(arr), int(arr.size))

    @classmethod
    def one_hot(cls, nbits: int, index: int) -> "BitVector":
        if not 0 <= index < nbits:
            raise ValueError(f"one-hot index {index} out of range [0, {nbits})")
        v = cls.zeros(nbits)
        v.words[index // WORD_BITS] = np.uint32(1 << (index % WORD_BITS))
        return v

    @classmethod
    def random(cls, nbits: int, rng: np.random.Generator) -> "BitVector":
        words = rng.integers(0, 1 << 32, size=words_for(nbits), dtype=np.uint32)
        return cls(words, nbits)

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "BitVector":
        if value < 0 or value >= (1 << nbits):
            raise ValueError("value does not fit in nbits")
        words = [(value >> (32 * i)) & 0xFFFFFFFF for i in range(words_for(nbits))]
        return cls(np.array(words, dtype=np.uint32), nbits)

    # -- queries -----------------------------------------------------------

    def to_bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.logical_len)

    def to_int(self) -> int:
        out = 0
        for i, w in enumerate(self.words):
            out |= int(w) << (32 * i)
        return out

    def popcount(self) -> int:
        return int(np.sum(np.bitwise_count(self.words)))

    def parity(self) -> int:
        acc = np.bitwise_xor.reduce(self.words) if self.words.size else np.uint32(0)
        return int(np.bitwise_count(acc)) & 1

    def is_zero(self) -> bool:
        return not self.words.any()

    def hot_index(self) -> int | None:
        """Index of the single set bit, ``None`` if all-zero.

        Raises ``ValueError`` when more than one bit is set.
        """
        w = self.popcount()
        if w == 0:
            return None
        if w > 1:
            raise ValueError(f"expected Hamming weight <= 1, got {w}")
        nz = int(np.nonzero(self.words)[0][0])
        return nz * WORD_BITS + int(np.uint32(self.words[nz]).item().bit_length()) - 1

    # -- combinators ---------------------------------------------------------

    def _check_len(self, other: "BitVector") -> None:
        if self.logical_len != other.logical_len:
            raise ValueError(
                f"length mismatch: {self.logical_len} vs {other.logical_len}"
            )

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_len(other)
        return BitVector(self.words ^ other.words, self.logical_len)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_len(other)
        return BitVector(self.words & other.words, self.logical_len)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.logical_len == other.logical_len and bool(
            np.array_equal(self.words, other.words)
        )

    def __hash__(self):
        return hash((self.logical_len, self.words.tobytes()))

    def __len__(self) -> int:
        return self.logical_len

    def __repr__(self) -> str:
        if self.logical_len <= 64:
            body = "".join(str(b) for b in self.to_bits())
        else:
            body = f"<{self.logical_len} bits, weight {self.popcount()}>"
        return f"BitVector({body})"
