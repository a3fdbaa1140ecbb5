"""Key pairs against brute-force indicators, plus shape and size properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivgm import fss
from oblivgm.prf import prg_expand, seed_to_array


def eval_point(key, x):
    """One point's evaluation of a key: one walk down each of its trees, XORed.

    The reference for :func:`fss.full_domain_eval`, which evaluates every
    point of every tree in one traversal.
    """
    out = 0
    for tree in key:
        bits = tree.domain_bits
        if not 0 <= x < (1 << bits):
            raise fss.DomainError(f"point {x} outside 2^{bits} domain")
        seeds = seed_to_array(tree.root_seed)[None, :]
        t = int(tree.root_t)
        acc = 0
        for lvl in range(bits):
            left, right, t_left, t_right, value = prg_expand(seeds)
            xb = (x >> (bits - 1 - lvl)) & 1
            if tree.comparison and xb == 0:
                acc ^= int(value[0]) ^ (t & ((tree.ctrl_cw[lvl] >> 2) & 1))
            branch_seed = left if xb == 0 else right
            branch_t = int(t_left[0] if xb == 0 else t_right[0])
            if t:
                branch_seed = branch_seed ^ tree.seed_cw[lvl][None, :]
                branch_t ^= (tree.ctrl_cw[lvl] >> xb) & 1
            seeds = branch_seed
            t = int(branch_t) & 1
        if not tree.comparison:
            acc = int(seeds[0, 0] & np.uint64(1)) ^ (t & tree.final_cw)
        out ^= (acc ^ tree.add_const) & 1
    return out


def indicator(pair, n):
    return fss.full_domain_eval(pair[0], n) ^ fss.full_domain_eval(pair[1], n)


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
    k1, k2 = fss.key_pair_gen("eq", (0,), 2, rng)
    assert indicator((k1, k2), 2).tolist() == [1, 0]


def test_dpf_128_point_37():
    rng = np.random.default_rng(1)
    pair = fss.key_pair_gen("eq", (37,), 128, rng)
    got = indicator(pair, 128)
    assert got.tolist() == brute_force("eq", (37,), 128).tolist()
    assert int(got.sum()) == 1


def test_dpf_alpha_out_of_domain():
    rng = np.random.default_rng(2)
    with pytest.raises(fss.DomainError):
        fss.key_pair_gen("eq", (16,), 16, rng)
    with pytest.raises(fss.DomainError):
        fss.key_pair_gen("lt", (-1,), 16, rng)


def test_eval_point_deterministic_and_matches_full_domain():
    rng = np.random.default_rng(3)
    # a point key, comparison keys without and with add_const, and a two-tree key
    for kind, operands in (("eq", (100,)), ("lt", (100,)), ("ge", (100,)), ("iv", (40, 100))):
        k1, k2 = fss.key_pair_gen(kind, operands, 256, rng)
        assert eval_point(k1, 5) == eval_point(k1, 5)
        full1 = fss.full_domain_eval(k1, 256)
        full2 = fss.full_domain_eval(k2, 256)
        want = brute_force(kind, operands, 256)
        for x in range(256):
            assert (eval_point(k1, x), eval_point(k2, x)) == (full1[x], full2[x])
            assert eval_point(k1, x) ^ eval_point(k2, x) == want[x]
        with pytest.raises(fss.DomainError):
            eval_point(k1, 256)


def test_dcf_edges():
    rng = np.random.default_rng(4)
    assert indicator(fss.key_pair_gen("lt", (0,), 16, rng), 16).sum() == 0
    got = indicator(fss.key_pair_gen("lt", (10,), 64, rng), 64)
    assert got.tolist() == [1] * 10 + [0] * 54
    got = indicator(fss.key_pair_gen("lt", (63,), 64, rng), 64)
    assert got.tolist() == [1] * 63 + [0]


@given(st.integers(2, 512), st.data())
@settings(max_examples=60, deadline=None)
def test_comparison_variants_random(n, data):
    alpha = data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(["lt", "le", "gt", "ge"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pair = fss.key_pair_gen(kind, (alpha,), n, rng)
    assert indicator(pair, n).tolist() == brute_force(kind, (alpha,), n).tolist()


@given(st.integers(2, 300), st.data())
@settings(max_examples=60, deadline=None)
def test_interval_random(n, data):
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pair = fss.key_pair_gen("iv", (lo, hi), n, rng)
    assert indicator(pair, n).tolist() == brute_force("iv", (lo, hi), n).tolist()


def test_interval_spec_cases():
    rng = np.random.default_rng(5)
    got = indicator(fss.key_pair_gen("iv", (30, 40), 128, rng), 128)
    assert got.tolist() == brute_force("iv", (30, 40), 128).tolist()
    assert indicator(fss.key_pair_gen("iv", (0, 127), 128, rng), 128).tolist() == [1] * 128
    # degenerate closed interval equals the point function
    assert (indicator(fss.key_pair_gen("iv", (5, 5), 64, rng), 64).tolist()
            == indicator(fss.key_pair_gen("eq", (5,), 64, rng), 64).tolist())


def test_interval_composed_of_two_prefix_indicators():
    rng = np.random.default_rng(7)
    n, lo, hi = 200, 41, 77
    iv = indicator(fss.key_pair_gen("iv", (lo, hi), n, rng), n)
    below_lo = indicator(fss.key_pair_gen("lt", (lo,), n, rng), n)
    below_hi1 = indicator(fss.key_pair_gen("lt", (hi + 1,), n, rng), n)
    assert np.array_equal(iv, below_lo ^ below_hi1)


def test_interval_rejects_crossed_bounds():
    with pytest.raises(fss.DomainError):
        fss.key_pair_gen("iv", (9, 3), 16, np.random.default_rng(0))


def test_full_domain_limits():
    rng = np.random.default_rng(8)
    k1, _ = fss.key_pair_gen("eq", (0,), 6, rng)
    one = fss.full_domain_eval(k1, 1)
    assert one.dtype == np.uint8 and one.shape == (1,)
    with pytest.raises(fss.DomainError):
        fss.full_domain_eval(k1, 9)  # domain_bits for 6 is 3 -> max 8


def test_key_serialization_round_trip_and_errors():
    rng = np.random.default_rng(9)
    # depth 7 for both domains; the empty interval's two trees wrap at 2^7
    for kind, operands, n in (("eq", (9,), 100), ("ge", (3,), 100), ("iv", (5, 8), 100),
                              ("iv", (128, 127), 128)):
        k1, k2 = fss.key_pair_gen(kind, operands, n, rng)
        blob = fss.serialize_key(k1)
        assert len(blob) == fss.key_bytes(kind, 7)  # no tag, depth or length stored
        back = fss.parse_key(kind, 7, blob)
        assert [tree.comparison for tree in back] == [tree.comparison for tree in k1]
        assert len(back) == len(k1) == (2 if kind == "iv" else 1)
        assert fss.serialize_key(back) == blob
        assert np.array_equal(
            indicator((back, k2), n), indicator((k1, k2), n))
        for wrong in (blob[:-1], blob + b"\0"):
            with pytest.raises(ValueError, match="bytes for a"):
                fss.parse_key(kind, 7, wrong)
        with pytest.raises(ValueError, match="bytes for a"):
            fss.parse_key(kind, 8, blob)  # a deeper key needs a longer record
    assert fss.key_bytes("iv", 7) == 2 * fss.key_bytes("lt", 7)


def test_empty_interval_constants_do_not_tell_where_it_lies():
    # a tree's add_const is written in the clear: an empty interval at the top
    # of a power-of-two domain, whose two trees wrap, must show the bytes of
    # one at the bottom, whose two trees do not
    rng = np.random.default_rng(12)
    for n in (2, 4, 128):
        tree_bytes = fss.key_bytes("eq", fss.domain_bits_for(n))
        consts = set()
        for operands in ((n, n - 1), (0, -1)):
            k1, k2 = fss.key_pair_gen("iv", operands, n, rng)
            consts.add(tuple(fss.serialize_key(k1)[1::tree_bytes]))
            assert not indicator((k1, k2), n).any()
        assert consts == {(0, 0)}


def test_point_and_comparison_keys_serialize_to_equal_sizes():
    rng = np.random.default_rng(10)
    for n in (2, 64, 1000):
        sizes = {
            len(fss.serialize_key(fss.key_pair_gen("eq", (0,), n, rng)[0])),
            len(fss.serialize_key(fss.key_pair_gen("lt", (0,), n, rng)[0])),
            len(fss.serialize_key(fss.key_pair_gen("ge", (n - 1,), n, rng)[1])),
        }
        assert len(sizes) == 1


def test_key_size_affine_in_domain_bits():
    # measured sizes for domain_bits 8, 12, 16 fit size = a + b*bits within 5%
    rng = np.random.default_rng(11)
    sizes = {}
    for bits in (8, 12, 16):
        k1, _ = fss.key_pair_gen("eq", (1,), 1 << bits, rng)
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
    assert {tree.domain_bits for pair in pairs for key in pair for tree in key} == {7}
    with pytest.raises(ValueError, match="unknown predicate kind"):
        fss.key_pair_gen("nope", (0,), 4, rng)


def test_interval_key_in_one_pass_equals_its_two_halves_exhaustively():
    # the engine evaluates an interval key in one pass; every party's one-pass
    # indicator must equal the XOR of the two comparison passes it replaces,
    # at every point, and the pair must still give the interval
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 5, 7, 8, 9):  # both sides of the powers of two
        xs = np.arange(n)
        for lo in range(n + 1):
            for hi in range(lo - 1, n):  # hi == lo - 1: every empty interval
                pair = fss.key_pair_gen("iv", (lo, hi), n, rng)
                for lower, upper in pair:
                    halves = (fss.full_domain_eval((lower,), n)
                              ^ fss.full_domain_eval((upper,), n))
                    assert np.array_equal(fss.full_domain_eval((lower, upper), n), halves)
                want = (xs >= lo) & (xs <= hi)
                assert indicator(pair, n).tolist() == want.astype(int).tolist()


def test_full_domain_eval_of_many_keys_in_one_traversal():
    rng = np.random.default_rng(10)
    keys = [(fss.key_pair_gen("eq", (37,), 128, rng)[0], 128),
            (fss.key_pair_gen("iv", (3, 9), 12, rng)[1], 12),
            (fss.key_pair_gen("ge", (20,), 50, rng)[0], 50),
            (fss.key_pair_gen("lt", (5,), 6, rng)[1], 6),
            (fss.key_pair_gen("iv", (0, 99), 100, rng)[0], 100),
            (fss.key_pair_gen("eq", (2,), 50, rng)[1], 37)]
    batched = fss.full_domain_eval(*keys[0], more=keys[1:])
    alone = [fss.full_domain_eval(key, n) for key, n in keys]
    assert len(batched) == len(alone)
    for got, want in zip(batched, alone):
        assert got.dtype == np.uint8 and np.array_equal(got, want)
    (first,) = fss.full_domain_eval(*keys[0], more=[])
    assert np.array_equal(first, batched[0])
