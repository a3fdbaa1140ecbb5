"""One-hot selection and the unique root's fold against a plaintext GF(2) reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivgm.bits import pack_bits, unpack_bits
from oblivgm.engine import _select_many_additive
from oblivgm.rss import and_terms


def gf2_select(sel: np.ndarray, mat: np.ndarray, width: int) -> np.ndarray:
    """Packed rows of sel · mat over GF(2): unpack the bits, AND them, take the parity."""
    bits = unpack_bits(mat, width).astype(np.int64)  # (x, width)
    parity = (sel.astype(np.int64) @ bits) & 1  # (k, width)
    return pack_bits(parity.astype(np.uint8))


def shares(rng, k, x, w):
    """A party's view: two selector share rows and two matrix shares."""
    sel_a = rng.integers(0, 2, (k, x), dtype=np.uint8)
    sel_b = rng.integers(0, 2, (k, x), dtype=np.uint8)
    mat_a = rng.integers(0, 1 << 32, (x, w), dtype=np.uint32)
    mat_b = rng.integers(0, 1 << 32, (x, w), dtype=np.uint32)
    return sel_a, sel_b, mat_a, mat_b


def many_reference(sel_a, sel_b, mat_a, mat_b):
    width = 32 * mat_a.shape[1]
    return gf2_select(sel_a ^ sel_b, mat_a, width) ^ gf2_select(sel_a, mat_b, width)


def check_many(rng, k, x, w):
    args = shares(rng, k, x, w)
    got = _select_many_additive(*args)
    assert got.dtype == np.uint32 and got.shape == (k, w)
    assert np.array_equal(got, many_reference(*args))


def check_one(rng, x, w):
    """The unique root's fold: the AND kernel of its (x, 1) flag masks and its rows, XORed."""
    sel_a, sel_b, mat_a, mat_b = shares(rng, 1, x, w)
    masks = [np.negative(bits.astype(np.uint32)).reshape(-1, 1) for bits in (sel_a, sel_b)]
    got = np.bitwise_xor.reduce(and_terms(*masks, mat_a, mat_b), axis=0, keepdims=True)
    assert got.dtype == np.uint32 and got.shape == (1, w)
    assert np.array_equal(got, many_reference(sel_a, sel_b, mat_a, mat_b))


@pytest.mark.parametrize("k,x,w", [(10, 500, 48), (30, 500, 2), (66, 500, 2), (1, 500, 48)])
def test_select_many_benchmark_shapes(k, x, w):
    check_many(np.random.default_rng(k * x + w), k, x, w)


def test_select_one_benchmark_shape():
    # scan's unique root: 4000 flags against the one-word codes of its 4000-value key
    check_one(np.random.default_rng(4000), 4000, 1)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 12) | st.just(1), x=st.integers(0, 70) | st.just(1),
       w=st.integers(0, 9) | st.just(1), seed=st.integers(0, 2**32 - 1))
def test_select_many_matches_gf2_reference(k, x, w, seed):
    check_many(np.random.default_rng(seed), k, x, w)


@settings(max_examples=60, deadline=None)
@given(x=st.integers(0, 200) | st.just(1), w=st.integers(0, 9) | st.just(1),
       seed=st.integers(0, 2**32 - 1))
def test_select_one_matches_gf2_reference(x, w, seed):
    check_one(np.random.default_rng(seed), x, w)


def test_select_many_chunks_agree_with_one_row_at_a_time():
    # k x (w, 2x) far above one chunk of the intermediate, so several chunks run
    rng = np.random.default_rng(9)
    args = shares(rng, 40, 300, 60)
    got = _select_many_additive(*args)
    sel_a, sel_b, mat_a, mat_b = args
    for i in range(len(sel_a)):
        assert np.array_equal(got[i:i + 1],
                              many_reference(sel_a[i:i + 1], sel_b[i:i + 1], mat_a, mat_b))

