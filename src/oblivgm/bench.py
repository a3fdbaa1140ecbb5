"""Desk benchmark: best-of-``KERNEL_REPEATS`` timings of one party's hot kernels, tab-separated."""

from __future__ import annotations

import time

import numpy as np

from . import fss
from .engine import RecordTable, _code_words, _select_many_additive, assemble
from .prf import prf_stream, prg_expand, seeded_permutation
from .rss import and_terms
from .shuffle import translate_rows


def _row(*cols):
    print("\t".join(str(c) for c in cols))


KERNEL_REPEATS = 20  # runs per kernel; the best is printed


def _best_ms(fn) -> float:
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def _hop_records() -> tuple[list[dict], list[RecordTable]]:
    """Matched records of ``hop-wan``'s tree s0 -> (s1, s2), s1 -> s3 from a range root.

    Ten root records; every record has two or three matched children in
    each child slot, in turn.
    """
    slots = [{"children": [1, 2]}, {"children": [3]}, {"children": []}, {"children": []}]
    parents = {0: np.full(10, -1)}
    for s, c in ((0, 1), (0, 2), (1, 3)):
        rows = len(parents[s])
        parents[c] = np.repeat(np.arange(rows), 2 + np.arange(rows) % 2)
    return slots, [RecordTable(None, {}, parents[s]) for s in range(4)]


def run_kernels(seed: str) -> None:
    """Best-of-``KERNEL_REPEATS`` times of one party's hot kernels at the benchmark's shapes.

    The shapes are those of ``perfbench``: ``scan`` blinds a 2 MiB root table,
    folds its unique root (``sec_fetch_unique``'s AND kernel by the flag
    masks, then one XOR over the rows) over the (4000, 1) words of its
    4000-value ``key`` attribute's codes, maps one share of its 100-value
    ``x0`` attribute, 4000 rows, to value codes, evaluates keys over a
    100-value dictionary and that key, and its client assembles about 1175
    matched records of one slot; ``hop-wan`` draws about 74 segment streams
    per shuffle, selects 10 posting lists of 3 id codes from (500, 3) words
    and 30 rows of a population table from (500, 1), translates the 132 unit
    vectors of 512 bits that an access expands its selected codes into,
    gates the 500 one-word rows of a leaf slot's population table by their
    flag masks (and 4000 rows, for scale), evaluates a range-rooted query's
    10 trees of depth 6, one party's keys, in one call, and its client
    assembles a 4-slot tree; key generation builds 15 trees of depths 9 and
    6, about one query's.
    """
    print(f"# kernels seed={seed}")
    rng = np.random.default_rng(int(seed, 16))
    key = rng.bytes(16)

    def bits(*shape):
        return rng.integers(0, 2, shape, dtype=np.uint8)

    def masks(n):  # a party's two shares of n flags as (n, 1) 0/0xFFFFFFFF word masks
        return tuple(np.negative(bits(n, 1).astype(np.uint32)) for _ in range(2))

    def words(*shape):
        return rng.integers(0, 1 << 32, shape, dtype=np.uint32)

    many_posting = (bits(10, 500), bits(10, 500), words(500, 3), words(500, 3))
    unit_rows = (words(132, 16), 512, words(132) & np.uint32(511))
    many_rows = (bits(30, 500), bits(30, 500), words(500, 1), words(500, 1))
    one_codes = (*masks(4000), words(4000, 1), words(4000, 1))
    attr_share = words(4000, 4)
    seeds = {n: words(n, 4).view(np.uint64) for n in (16, 2048)}
    scan_records = ([{"children": []}], [RecordTable(None, {}, np.full(1175, -1))])
    hop_records = _hop_records()
    hop_preds = [(fss.KIND_EQ, (250,), 500), (fss.KIND_INTERVAL, (20, 20), 50),
                 (fss.KIND_GE, (10,), 50), (fss.KIND_GE, (10,), 50)] * 3
    eq_keys = [(k, 4000) for k in fss.key_pair_gen(fss.KIND_EQ, (2000,), 4000, rng)]
    iv_keys = [(k, 100) for k in fss.key_pair_gen(fss.KIND_INTERVAL, (30, 39), 100, rng)]
    query_keys = [(k, 50) for pred in [hop_preds[1]] + [hop_preds[2]] * 3  # iv root, 3 x ge
                  for k in fss.key_pair_gen(*pred, rng)]
    gate_rows = {n: (*masks(n), words(n, 1), words(n, 1)) for n in (500, 4000)}
    kernels = [
        ("prf_stream", "1 x 2 MiB", lambda: prf_stream(key, b"BNCH", 0, 2 << 20)),
        ("prf_stream", "74 x 576 B", lambda: prf_stream(key, b"BNCH", 0, [576] * 74)),
        ("seeded_permutation", "1 x 4000", lambda: seeded_permutation(key, b"BNCH", 0, 4000)),
        ("seeded_permutation", "74 x 3", lambda: seeded_permutation(key, b"BNCH", 0, [3] * 74)),
        ("prg_expand", "16 seeds", lambda: prg_expand(seeds[16])),
        ("prg_expand", "2048 seeds", lambda: prg_expand(seeds[2048])),
        ("select_many", "(10, 500) x (500, 3)", lambda: _select_many_additive(*many_posting)),
        ("select_many", "(30, 500) x (500, 1)", lambda: _select_many_additive(*many_rows)),
        ("select_one", "(4000,) x (4000, 1)",
         lambda: np.bitwise_xor.reduce(and_terms(*one_codes), axis=0, keepdims=True)),
        ("code_map", "4000 x 100 bits", lambda: _code_words(attr_share, 100)),
        ("translate_rows", "132 x 512 bits", lambda: translate_rows(*unit_rows)),
        ("gate", "500 x 1 word", lambda: and_terms(*gate_rows[500])),
        ("gate", "4000 x 1 word", lambda: and_terms(*gate_rows[4000])),
        ("assemble", "1 slot, 1175 records", lambda: assemble(*scan_records)),
        ("assemble", f"4 slots, {len(assemble(*hop_records))} subgraphs",
         lambda: assemble(*hop_records)),
        ("key_pairs_gen", "15 trees, depths 9 and 6", lambda: fss.key_pairs_gen(hop_preds, rng)),
        ("full_domain_eval", "2 eq keys over 4000", lambda: fss.full_domain_eval(
            *eq_keys[0], more=eq_keys[1:])),
        ("full_domain_eval", "2 iv keys over 100", lambda: fss.full_domain_eval(
            *iv_keys[0], more=iv_keys[1:])),
        ("full_domain_eval", "10 trees of depth 6, one call", lambda: fss.full_domain_eval(
            *query_keys[0], more=query_keys[1:])),
    ]
    _row("# kernel", "shape", "best_ms")
    for name, shape, fn in kernels:
        _row(name, shape, f"{_best_ms(fn):.4f}")
