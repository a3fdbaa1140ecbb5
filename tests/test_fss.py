"""Key pairs against brute-force indicators, plus shape and size properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivgm import fss


def indicator(pair, n):
    return (fss.full_domain_eval(pair[0], n) ^ fss.full_domain_eval(pair[1], n)).to_bits()


def brute_force(kind, operands, n):
    xs = np.arange(n)
    if kind == "eq":
        return (xs == operands[0]).astype(np.uint8)
    if kind == "lt":
        return (xs < operands[0]).astype(np.uint8)
    if kind == "le":
        return (xs <= operands[0]).astype(np.uint8)
    if kind == "gt":
        return (xs > operands[0]).astype(np.uint8)
    if kind == "ge":
        return (xs >= operands[0]).astype(np.uint8)
    lo, hi = operands
    return ((xs >= lo) & (xs <= hi)).astype(np.uint8)


def test_dpf_smallest_domain():
    rng = np.random.default_rng(0)
    k1, k2 = fss.dpf_gen(0, 2, rng)
    assert indicator((k1, k2), 2).tolist() == [1, 0]


def test_dpf_128_point_37():
    rng = np.random.default_rng(1)
    pair = fss.dpf_gen(37, 128, rng)
    got = indicator(pair, 128)
    assert got.tolist() == brute_force("eq", (37,), 128).tolist()
    assert int(got.sum()) == 1


def test_dpf_alpha_out_of_domain():
    rng = np.random.default_rng(2)
    with pytest.raises(fss.DomainError):
        fss.dpf_gen(16, 16, rng)
    with pytest.raises(fss.DomainError):
        fss.dcf_gen(-1, 16, rng)


def test_eval_point_deterministic_and_matches_full_domain():
    rng = np.random.default_rng(3)
    k1, k2 = fss.dpf_gen(100, 256, rng)
    assert fss.dpf_eval(k1, 5) == fss.dpf_eval(k1, 5)
    full1 = fss.full_domain_eval(k1, 256).to_bits()
    full2 = fss.full_domain_eval(k2, 256).to_bits()
    for x in range(256):
        assert fss.dpf_eval(k1, x) == full1[x]
        assert fss.dpf_eval(k1, x) ^ fss.dpf_eval(k2, x) == (x == 100)
    with pytest.raises(fss.DomainError):
        fss.dpf_eval(k1, 256)


def test_dcf_edges():
    rng = np.random.default_rng(4)
    assert indicator(fss.dcf_gen(0, 16, rng), 16).sum() == 0
    got = indicator(fss.dcf_gen(10, 64, rng), 64)
    assert got.tolist() == [1] * 10 + [0] * 54
    got = indicator(fss.dcf_gen(63, 64, rng), 64)
    assert got.tolist() == [1] * 63 + [0]


@given(st.integers(2, 512), st.data())
@settings(max_examples=60, deadline=None)
def test_comparison_variants_random(n, data):
    alpha = data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(["lt", "le", "gt", "ge"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pair = fss.cmp_gen(kind, alpha, n, rng)
    assert indicator(pair, n).tolist() == brute_force(kind, (alpha,), n).tolist()


@given(st.integers(2, 300), st.data())
@settings(max_examples=60, deadline=None)
def test_interval_random(n, data):
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pair = fss.ic_gen(lo, hi, n, rng)
    assert indicator(pair, n).tolist() == brute_force("iv", (lo, hi), n).tolist()


def test_interval_spec_cases():
    rng = np.random.default_rng(5)
    got = indicator(fss.ic_gen(30, 40, 128, rng), 128)
    assert got.tolist() == brute_force("iv", (30, 40), 128).tolist()
    assert indicator(fss.ic_gen(0, 127, 128, rng), 128).tolist() == [1] * 128
    # degenerate closed interval equals the point function
    assert (indicator(fss.ic_gen(5, 5, 64, rng), 64).tolist()
            == indicator(fss.dpf_gen(5, 64, rng), 64).tolist())


def test_interval_open_variants():
    rng = np.random.default_rng(6)
    n = 32
    for cl, ch in ((True, True), (True, False), (False, True), (False, False)):
        pair = fss.ic_gen(7, 13, n, rng, closed_low=cl, closed_high=ch)
        xs = np.arange(n)
        lo_ok = xs >= 7 if cl else xs > 7
        hi_ok = xs <= 13 if ch else xs < 13
        assert indicator(pair, n).tolist() == (lo_ok & hi_ok).astype(int).tolist()


def test_interval_composed_of_two_prefix_indicators():
    rng = np.random.default_rng(7)
    n, lo, hi = 200, 41, 77
    iv = indicator(fss.ic_gen(lo, hi, n, rng), n)
    below_lo = indicator(fss.dcf_gen(lo, n, rng), n)
    below_hi1 = indicator(fss.dcf_gen(hi + 1, n, rng), n)
    assert np.array_equal(iv, below_lo ^ below_hi1)


def test_interval_rejects_crossed_bounds():
    with pytest.raises(fss.DomainError):
        fss.ic_gen(9, 3, 16, np.random.default_rng(0))


def test_full_domain_limits():
    rng = np.random.default_rng(8)
    k1, _ = fss.dpf_gen(0, 6, rng)
    assert fss.full_domain_eval(k1, 1).logical_len == 1
    with pytest.raises(fss.DomainError):
        fss.full_domain_eval(k1, 9)  # domain_bits for 6 is 3 -> max 8


def test_key_serialization_round_trip_and_errors():
    rng = np.random.default_rng(9)
    for pair_fn in (lambda: fss.dpf_gen(9, 100, rng),
                    lambda: fss.cmp_gen("ge", 3, 100, rng),
                    lambda: fss.ic_gen(5, 9, 100, rng, closed_high=False)):
        k1, k2 = pair_fn()
        blob = fss.serialize_key(k1)
        back = fss.parse_key(blob)
        assert fss.serialize_key(back) == blob
        n = 100
        assert np.array_equal(
            indicator((back, k2), n), indicator((k1, k2), n))
    with pytest.raises(ValueError):
        fss.parse_key(fss.serialize_key(fss.dpf_gen(1, 4, rng)[0])[:-3])
    with pytest.raises(ValueError):
        fss.parse_key(b"")


def test_point_and_comparison_keys_serialize_to_equal_sizes():
    rng = np.random.default_rng(10)
    for n in (2, 64, 1000):
        sizes = {
            len(fss.serialize_key(fss.dpf_gen(0, n, rng)[0])),
            len(fss.serialize_key(fss.cmp_gen("lt", 0, n, rng)[0])),
            len(fss.serialize_key(fss.cmp_gen("ge", n - 1, n, rng)[1])),
        }
        assert len(sizes) == 1


def test_key_size_affine_in_domain_bits():
    # measured sizes for domain_bits 8, 12, 16 fit size = a + b*bits within 5%
    rng = np.random.default_rng(11)
    sizes = {}
    for bits in (8, 12, 16):
        k1, _ = fss.dpf_gen(1, 1 << bits, rng)
        sizes[bits] = len(fss.serialize_key(k1))
    slope = (sizes[16] - sizes[8]) / 8
    intercept = sizes[8] - slope * 8
    for bits, size in sizes.items():
        assert abs(intercept + slope * bits - size) <= 0.05 * size


def test_bundle_independence_and_agreement():
    rng = np.random.default_rng(12)
    pairs = [fss.key_pair_gen("iv", (30, 40), 128, rng) for _ in range(3)]
    indicators = [indicator(pair, 128).tolist() for pair in pairs]
    assert indicators[0] == indicators[1] == indicators[2]
    assert indicators[0] == brute_force("iv", (30, 40), 128).tolist()
    blobs = {tuple(fss.serialize_key(k) for k in pair) for pair in pairs}
    assert len(blobs) == 3  # independent randomness
    assert {k.domain_bits for pair in pairs for k in pair} == {7}
    # the closed flags pick the interval variant: (30, 40) open at both ends
    open_pair = fss.key_pair_gen("iv", (30, 40), 128, rng, (False, False))
    assert indicator(open_pair, 128).tolist() == brute_force("iv", (31, 39), 128).tolist()
    with pytest.raises(ValueError, match="unknown predicate kind"):
        fss.key_pair_gen("nope", (0,), 4, rng)


def test_interval_key_in_one_pass_equals_its_two_halves_exhaustively():
    # the engine evaluates an interval key in one pass; every party's one-pass
    # indicator must equal the XOR of the two comparison passes it replaces,
    # at every point, and the pair must still give the interval
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 5, 7, 8, 9):  # both sides of the powers of two
        xs = np.arange(n)
        for lo in range(n):
            for hi in range(lo, n):
                for cl, ch in ((True, True), (True, False), (False, True), (False, False)):
                    pair = fss.ic_gen(lo, hi, n, rng, closed_low=cl, closed_high=ch)
                    for key in pair:
                        halves = (fss.full_domain_eval(key.lower, n)
                                  ^ fss.full_domain_eval(key.upper, n))
                        assert fss.full_domain_eval(key, n) == halves
                    want = (xs >= lo if cl else xs > lo) & (xs <= hi if ch else xs < hi)
                    assert indicator(pair, n).tolist() == want.astype(int).tolist()


def test_full_domain_eval_of_many_keys_in_one_traversal():
    rng = np.random.default_rng(10)
    keys = [(fss.dpf_gen(37, 128, rng)[0], 128), (fss.ic_gen(3, 9, 12, rng)[1], 12),
            (fss.cmp_gen("ge", 20, 50, rng)[0], 50), (fss.dcf_gen(5, 6, rng)[1], 6),
            (fss.ic_gen(0, 99, 100, rng)[0], 100), (fss.dpf_gen(2, 50, rng)[1], 37)]
    batched = fss.full_domain_eval(*keys[0], more=keys[1:])
    assert batched == [fss.full_domain_eval(key, n) for key, n in keys]
    assert fss.full_domain_eval(*keys[0], more=[]) == batched[:1]
