"""PRF primitives: batched streams and permutations against per-index references."""

import threading

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from oblivgm.prf import prf_stream, prg_expand, seeded_permutation

KEY = bytes(range(16))
LABEL = b"TEST"


def ctr_reference(key: bytes, label: bytes, index: int, nbytes: int) -> bytes:
    """One AES-CTR stream starting at the block label || index || 0."""
    nonce = label + index.to_bytes(8, "big") + bytes(4)
    enc = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
    return enc.update(bytes(nbytes)) + enc.finalize()


def sort_reference(key: bytes, label: bytes, index: int, n: int) -> list[int]:
    """Rows in the order of their 64-bit words of the CTR stream, ties in row order."""
    draws = np.frombuffer(ctr_reference(key, label, index, 8 * n), dtype=np.uint64)
    return sorted(range(n), key=lambda i: int(draws[i]))


@pytest.mark.parametrize("sizes", [
    [0], [1], [15], [16], [17],
    [0, 1, 15, 16, 17],
    [576] * 74,
    [2 << 20],
    [0, 12, 0, 0, 48, 0, 17, 0],
    [0, 0, 0],
])
def test_batched_stream_equals_one_ctr_stream_per_index(sizes):
    first = 7
    got = prf_stream(KEY, LABEL, first, sizes)
    want = b"".join(ctr_reference(KEY, LABEL, first + i, n) for i, n in enumerate(sizes))
    assert got == want
    if len(sizes) == 1:
        assert prf_stream(KEY, LABEL, first, sizes[0]) == want


def test_batched_stream_index_counts_past_32_bits():
    first = (1 << 32) - 2  # the run carries from the index's low word into its high word
    got = prf_stream(KEY, LABEL, first, [20, 33, 5])
    assert got == b"".join(ctr_reference(KEY, LABEL, first + i, n)
                           for i, n in enumerate([20, 33, 5]))


def test_stream_rejects_bad_arguments():
    with pytest.raises(ValueError, match="key"):
        prf_stream(b"short", LABEL, 0, 16)
    with pytest.raises(ValueError, match="label"):
        prf_stream(KEY, b"LONGER", 0, 16)
    with pytest.raises(ValueError, match="sizes"):
        prf_stream(KEY, LABEL, 0, [16, -1])
    with pytest.raises(ValueError, match="64 bits"):
        prf_stream(KEY, LABEL, (1 << 64) - 1, [16, 16])


@pytest.mark.parametrize("sizes", [[0], [1], [2], [3], [500], [0, 1, 2, 3, 500], [3] * 74,
                                   [4000], [1, 2] * 20 + [4000, 0, 3]])
def test_batched_permutation_is_block_diagonal_sort(sizes):
    first = 11
    perm = seeded_permutation(KEY, LABEL, first, sizes)
    assert perm.dtype == np.int64 and perm.shape == (sum(sizes),)
    start = 0
    for i, n in enumerate(sizes):
        block = perm[start:start + n]
        assert block.tolist() == [start + v for v in sort_reference(KEY, LABEL, first + i, n)]
        start += n
    if len(sizes) == 1:
        assert np.array_equal(seeded_permutation(KEY, LABEL, first, sizes[0]), perm)


def test_prg_expand_agrees_across_threads():
    seeds = np.random.default_rng(5).integers(0, 1 << 63, (2048, 2)).astype(np.uint64)
    want = prg_expand(seeds)
    results = [None] * 3
    barrier = threading.Barrier(3)

    def work(slot):
        barrier.wait()
        outs = [prg_expand(seeds[i:i + 256]) for i in range(0, len(seeds), 256)]
        results[slot] = [np.concatenate(parts) for parts in zip(*outs)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got is not None
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
