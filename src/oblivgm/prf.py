"""Deterministic randomness: AES-backed PRG, PRF streams, and seeded permutations.

Three primitives, all keyed with 128-bit material:

* ``prg_expand`` — fixed-key AES in Matyas-Meyer-Oseas form, doubling a batch
  of 16-byte seeds into left/right child seeds plus control and value bits.
  This is the node expansion for the function-secret-sharing trees.
* ``prf_stream`` / ``prf_words`` — AES-CTR keyed streams, domain-separated by
  a 4-byte label and a 64-bit index. Used for zero-sharings and for the
  shuffle blinding tables.
* ``seeded_permutation`` — Fisher-Yates driven by a PRF stream.
"""

from __future__ import annotations

import hashlib

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .bits import mask_tail, words_for

SEED_BYTES = 16

# Fixed, public PRG keys (distinct constants; any fixed values work).
_KEY_LEFT = bytes.fromhex("243f6a8885a308d313198a2e03707344")
_KEY_RIGHT = bytes.fromhex("a4093822299f31d0082efa98ec4e6c89")
_KEY_CTRL = bytes.fromhex("452821e638d01377be5466cf34e90c6c")

_ciphers = {
    k: Cipher(algorithms.AES(k), modes.ECB())
    for k in (_KEY_LEFT, _KEY_RIGHT, _KEY_CTRL)
}


def _ecb_encrypt(key: bytes, data: bytes) -> bytes:
    enc = _ciphers[key].encryptor()
    return enc.update(data) + enc.finalize()


def prg_expand(seeds: np.ndarray):
    """Expand a batch of seeds one tree level.

    ``seeds`` is an ``(N, 2)`` uint64 array (16 bytes per row, little-endian).
    Returns ``(left, right, t_left, t_right, value)`` where the first two are
    ``(N, 2)`` uint64 child seeds and the rest are ``(N,)`` uint8 bits.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    buf = seeds.tobytes()
    n = seeds.shape[0]
    left = np.frombuffer(_ecb_encrypt(_KEY_LEFT, buf), dtype=np.uint64).reshape(n, 2) ^ seeds
    right = np.frombuffer(_ecb_encrypt(_KEY_RIGHT, buf), dtype=np.uint64).reshape(n, 2) ^ seeds
    ctrl = np.frombuffer(_ecb_encrypt(_KEY_CTRL, buf), dtype=np.uint64).reshape(n, 2)[:, 0] ^ seeds[:, 0]
    t_left = (ctrl & 1).astype(np.uint8)
    t_right = ((ctrl >> np.uint64(1)) & 1).astype(np.uint8)
    value = ((ctrl >> np.uint64(2)) & 1).astype(np.uint8)
    return left, right, t_left, t_right, value


def seed_to_array(seed: bytes) -> np.ndarray:
    if len(seed) != SEED_BYTES:
        raise ValueError("seed must be 16 bytes")
    return np.frombuffer(seed, dtype=np.uint64).copy()


def array_to_seed(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.uint64).tobytes()


def prf_stream(key: bytes, label: bytes, index: int, nbytes: int) -> bytes:
    """Keyed pseudorandom bytes for (label, index).

    The CTR start block is ``label(4) || index(8, BE) || 0(4)``; streams for
    distinct (label, index) pairs are disjoint for any length below 64 GiB.
    """
    if len(key) != SEED_BYTES:
        raise ValueError("PRF key must be 16 bytes")
    if len(label) != 4:
        raise ValueError("label must be 4 bytes")
    if nbytes == 0:
        return b""
    nonce = label + int(index).to_bytes(8, "big") + b"\x00\x00\x00\x00"
    enc = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
    return enc.update(bytes(nbytes)) + enc.finalize()


def prf_words(key: bytes, label: bytes, index: int, nbits: int) -> np.ndarray:
    """PRF output as packed 32-bit words with a clean tail."""
    nwords = words_for(nbits)
    raw = prf_stream(key, label, index, nwords * 4)
    words = np.frombuffer(raw, dtype=np.uint32).copy()
    return mask_tail(words, nbits)


def seeded_permutation(key: bytes, label: bytes, index: int, n: int) -> np.ndarray:
    """Deterministic Fisher-Yates permutation of range(n) from a PRF stream."""
    if n < 2:
        return np.arange(n, dtype=np.int64)
    raw = prf_stream(key, label, index, 8 * (n - 1))
    draws = np.frombuffer(raw, dtype=np.uint64).tolist()  # Python ints: no numpy scalars in the loop
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = draws[n - 1 - i] % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def derive_key(master: bytes, label: str) -> bytes:
    """Derive an independent 16-byte key from master material."""
    return hashlib.sha256(master + b"/" + label.encode()).digest()[:SEED_BYTES]
