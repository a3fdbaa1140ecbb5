import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivgm.bits import BitVector, pack_bits, unpack_bits, words_for


def test_words_for():
    assert [words_for(n) for n in (0, 1, 31, 32, 33, 64, 65)] == [0, 1, 1, 1, 2, 2, 3]


def test_tail_bits_forced_zero():
    v = BitVector(np.array([0xFFFFFFFF], dtype=np.uint32), 5)
    assert unpack_bits(v.words, v.logical_len).tolist() == [1, 1, 1, 1, 1]
    assert v.words[0] == 0b11111


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_bits_round_trip(bits):
    v = BitVector.from_bits(bits)
    assert v.logical_len == len(bits)
    assert unpack_bits(v.words, v.logical_len).tolist() == bits
    assert int(np.bitwise_count(v.words).sum()) == sum(bits)


@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_pack_unpack_matrix(nbits, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, 2, size=(5, nbits), dtype=np.uint8)
    packed = pack_bits(mat)
    assert packed.shape == (5, words_for(nbits))
    assert np.array_equal(unpack_bits(packed, nbits), mat)
