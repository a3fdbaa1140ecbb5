"""Deterministic randomness: AES-backed PRG, PRF streams, and seeded permutations.

Three primitives, all keyed with 128-bit material:

* ``prg_expand`` — fixed-key AES in Matyas-Meyer-Oseas form, doubling a batch
  of 16-byte seeds into left/right child seeds plus control and value bits.
  This is the node expansion for the function-secret-sharing trees.
* ``prf_stream`` / ``prf_words`` — AES-CTR keyed streams, domain-separated by
  a 4-byte label and a 64-bit index. Used for zero-sharings and for the
  shuffle blinding tables.
* ``seeded_permutation`` — a sort of the rows by 64-bit PRF keys.

Batched streams. ``prf_stream`` and ``seeded_permutation`` also take a run
of consecutive indices ``index, index + 1, ...`` with one size per index,
and return those streams (or block permutations) laid end to end. Block
``j`` of the stream for index ``i`` is AES of the counter block
``label(4) || i(8, BE) || j(4, BE)``. That is exactly the CTR stream for
``i``: CTR starts at ``label || i || 0`` and increments the whole 128-bit
block big-endian, and a stream stays below 2^32 blocks (64 GiB), so the
increment never carries out of the low 4 bytes. A run therefore builds all
its counter blocks at once and encrypts them in one ECB call, paying the AES
key set-up once instead of once per index, with the same bytes as one CTR
call per index. A single stream keeps the plain CTR call, which needs no
counter blocks in memory.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .bits import mask_tail, words_for

SEED_BYTES = 16

# Fixed, public PRG keys (distinct constants; any fixed values work).
_KEY_LEFT = bytes.fromhex("243f6a8885a308d313198a2e03707344")
_KEY_RIGHT = bytes.fromhex("a4093822299f31d0082efa98ec4e6c89")
_KEY_CTRL = bytes.fromhex("452821e638d01377be5466cf34e90c6c")

# A stream stays below 2^32 blocks, so its CTR counter never carries out of the low 4 bytes.
_MAX_STREAM_BYTES = 16 << 32

# One ECB encryptor per PRG key and thread. ECB carries no state between
# whole blocks, so an encryptor that is never finalized serves every call;
# contexts are not safe to share between threads, hence one set per thread.
_prg_local = threading.local()


def _prg_encryptors():
    encs = getattr(_prg_local, "encs", None)
    if encs is None:
        encs = _prg_local.encs = tuple(Cipher(algorithms.AES(k), modes.ECB()).encryptor()
                                       for k in (_KEY_LEFT, _KEY_RIGHT, _KEY_CTRL))
    return encs


def prg_expand(seeds: np.ndarray):
    """Expand a batch of seeds one tree level.

    ``seeds`` is an ``(N, 2)`` uint64 array (16 bytes per row, little-endian).
    Returns ``(left, right, t_left, t_right, value)`` where the first two are
    ``(N, 2)`` uint64 child seeds and the rest are ``(N,)`` uint8 bits.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    buf = seeds.tobytes()
    n = seeds.shape[0]
    enc_left, enc_right, enc_ctrl = _prg_encryptors()
    left = np.frombuffer(enc_left.update(buf), dtype=np.uint64).reshape(n, 2) ^ seeds
    right = np.frombuffer(enc_right.update(buf), dtype=np.uint64).reshape(n, 2) ^ seeds
    ctrl = np.frombuffer(enc_ctrl.update(buf), dtype=np.uint64).reshape(n, 2)[:, 0] ^ seeds[:, 0]
    t_left = (ctrl & 1).astype(np.uint8)
    t_right = ((ctrl >> np.uint64(1)) & 1).astype(np.uint8)
    value = ((ctrl >> np.uint64(2)) & 1).astype(np.uint8)
    return left, right, t_left, t_right, value


def seed_to_array(seed: bytes) -> np.ndarray:
    if len(seed) != SEED_BYTES:
        raise ValueError("seed must be 16 bytes")
    return np.frombuffer(seed, dtype=np.uint64).copy()


def _sizes(n: int | Sequence[int]) -> list[int]:
    return [int(n)] if isinstance(n, (int, np.integer)) else [int(m) for m in n]


def prf_stream(key: bytes, label: bytes, index: int, nbytes: int | Sequence[int]) -> bytes:
    """Keyed pseudorandom bytes for (label, index), or for a run of indices.

    The CTR start block is ``label(4) || index(8, BE) || 0(4)``; streams for
    distinct (label, index) pairs are disjoint for any length below 64 GiB.
    With a sequence of sizes, returns the streams of ``index, index + 1, ...``
    of those sizes, concatenated (see the module docstring).
    """
    if len(key) != SEED_BYTES:
        raise ValueError("PRF key must be 16 bytes")
    if len(label) != 4:
        raise ValueError("label must be 4 bytes")
    index, sizes = int(index), _sizes(nbytes)
    if any(not 0 <= n < _MAX_STREAM_BYTES for n in sizes):
        raise ValueError("PRF stream sizes must lie in [0, 64 GiB)")
    if not 0 <= index <= (1 << 64) - max(1, len(sizes)):
        raise ValueError("PRF index run must fit in 64 bits")
    if len(sizes) == 1:
        if sizes[0] == 0:
            return b""
        nonce = label + index.to_bytes(8, "big") + b"\x00\x00\x00\x00"
        enc = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
        return enc.update(bytes(sizes[0])) + enc.finalize()
    blocks = -(-np.array(sizes, dtype=np.int64) // 16)
    starts = np.cumsum(blocks) - blocks
    total = int(blocks.sum())
    if total == 0:
        return b""
    counters = np.empty((total, 4), dtype=">u4")  # label | index hi | index lo | block
    counters[:, 0] = int.from_bytes(label, "big")
    indices = np.repeat(np.arange(len(sizes), dtype=np.uint64) + np.uint64(index), blocks)
    counters[:, 1] = indices >> np.uint64(32)
    counters[:, 2] = indices & np.uint64(0xFFFFFFFF)
    counters[:, 3] = np.arange(total) - np.repeat(starts, blocks)
    view = memoryview(Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(counters.tobytes()))
    return b"".join(view[16 * int(s):16 * int(s) + n] for s, n in zip(starts, sizes))


def prf_words(key: bytes, label: bytes, index: int, nbits: int) -> np.ndarray:
    """PRF output as packed 32-bit words with a clean tail."""
    nwords = words_for(nbits)
    raw = prf_stream(key, label, index, nwords * 4)
    words = np.frombuffer(raw, dtype=np.uint32).copy()
    return mask_tail(words, nbits)


def seeded_permutation(key: bytes, label: bytes, index: int,
                       n: int | Sequence[int]) -> np.ndarray:
    """Deterministic permutation of range(n): the rows sorted by 64-bit PRF keys.

    Row ``i`` draws the ``i``-th 64-bit word of the stream, and the
    permutation lists the rows in the order of their words; the sort is
    stable, so two equal words (probability about n^2 / 2^65) keep row order.
    With a sequence of sizes, returns the block-diagonal permutation of
    ``range(sum(n))`` whose block ``i`` is the permutation for ``index + i``,
    shifted to the block's first row. All blocks draw from one batched stream
    and are sorted together, by block and then by word.
    """
    sizes = np.array(_sizes(n), dtype=np.int64)
    keys = np.frombuffer(prf_stream(key, label, index, (8 * sizes).tolist()), dtype=np.uint64)
    return np.lexsort((keys, np.repeat(np.arange(len(sizes)), sizes)))


def derive_key(master: bytes, label: str) -> bytes:
    """Derive an independent 16-byte key from master material."""
    return hashlib.sha256(master + b"/" + label.encode()).digest()[:SEED_BYTES]
