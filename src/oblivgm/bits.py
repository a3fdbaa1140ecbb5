"""Bits packed into 32-bit words, and back.

Share material is stored little-endian in ``numpy.uint32`` words: logical
bit ``i`` lives at bit ``i % 32`` of word ``i // 32``, and bits past a row's
width are kept zero, so word-level comparisons and serialization are
canonical. Plaintext bits, such as FSS evaluations and opened values, are
``uint8`` 0/1 arrays.
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
    """A packed bit string and its length: the input of ``rss.share`` and ``rss.reshare``."""

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

    @classmethod
    def from_bits(cls, bits: Sequence[int] | np.ndarray) -> "BitVector":
        arr = np.asarray(bits, dtype=np.uint8)
        return cls(pack_bits(arr), int(arr.size))
