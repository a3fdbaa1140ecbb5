import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivgm.bits import BitVector, pack_bits, unpack_bits, words_for


def test_words_for():
    assert [words_for(n) for n in (0, 1, 31, 32, 33, 64, 65)] == [0, 1, 1, 1, 2, 2, 3]


def test_tail_bits_forced_zero():
    v = BitVector(np.array([0xFFFFFFFF], dtype=np.uint32), 5)
    assert v.to_bits().tolist() == [1, 1, 1, 1, 1]
    assert v.words[0] == 0b11111


def test_one_hot_and_hot_index():
    v = BitVector.one_hot(70, 40)
    assert v.popcount() == 1
    assert v.hot_index() == 40
    assert BitVector.zeros(70).hot_index() is None
    with pytest.raises(ValueError):
        (v ^ BitVector.one_hot(70, 3)).hot_index()
    with pytest.raises(ValueError):
        BitVector.one_hot(8, 8)


def test_parity_and_popcount():
    v = BitVector.from_bits([1, 0, 1, 1])
    assert v.popcount() == 3
    assert v.parity() == 1
    assert (v ^ v).parity() == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        BitVector.zeros(8) ^ BitVector.zeros(9)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_bits_round_trip(bits):
    v = BitVector.from_bits(bits)
    assert v.to_bits().tolist() == bits
    assert v.popcount() == sum(bits)
    assert v.parity() == sum(bits) % 2


@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_pack_unpack_matrix(nbits, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, 2, size=(5, nbits), dtype=np.uint8)
    packed = pack_bits(mat)
    assert packed.shape == (5, words_for(nbits))
    assert np.array_equal(unpack_bits(packed, nbits), mat)


def test_from_int_round_trip():
    v = BitVector.from_int(0xDEADBEEF, 40)
    assert v.to_int() == 0xDEADBEEF
    with pytest.raises(ValueError):
        BitVector.from_int(256, 8)
