"""Desk benchmarks: per-phase latency, bytes-on-wire and kernel timings, tab-separated output."""

from __future__ import annotations

import secrets
import time

import numpy as np

from . import fss
from .engine import (EngineConfig, RecordTable, _select_many_additive, _select_one_additive,
                     assemble, sec_match)
from .graphs import AttributedGraph, GraphFormatError, encrypt_graph
from .net import PhaseStats, local_runtimes, make_session_configs, run_trio
from .prf import prf_stream, prg_expand, seeded_permutation
from .query import gen_token, load_query
from .shuffle import translate_rows


def _two_type_graph(rng: np.random.Generator, size: int) -> AttributedGraph:
    """Type A with an ordinal attribute and a unique id-like attribute; A-B edges."""
    g = AttributedGraph()
    n_b = max(4, size // 4)
    for i in range(size):
        g.add_vertex("A", f"a{i}", {"x0": str(int(rng.integers(0, 64)) * 3), "uid": str(i)})
    for i in range(n_b):
        g.add_vertex("B", f"b{i}", {"y0": str(int(rng.integers(0, 64)) * 3)})
    edges = 0
    want = size * 2
    tries = 0
    while edges < want and tries < want * 10:
        tries += 1
        a = int(rng.integers(0, size))
        b = int(rng.integers(0, n_b))
        try:
            g.add_edge(f"a{a}", f"b{b}")
            edges += 1
        except GraphFormatError:
            continue
    return g


def _run(tokens, shares, master: bytes, any_mode: str = "or"):
    runtimes = local_runtimes(make_session_configs(master))

    def worker(rt):
        return sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1],
                         EngineConfig(any_mode=any_mode))

    started = time.perf_counter()
    run_trio(worker, runtimes)
    return runtimes, time.perf_counter() - started


def _row(*cols):
    print("\t".join(str(c) for c in cols))


def _phase_stats(runtimes, phase: str) -> list[PhaseStats]:
    return [rt.meter.phases.get(phase, PhaseStats()) for rt in runtimes]


def _phase_bytes(runtimes, phase: str) -> int:
    return max(st.bytes_sent for st in _phase_stats(runtimes, phase))


def _phase_seconds(runtimes, phase: str) -> float:
    return max(st.seconds for st in _phase_stats(runtimes, phase))


def _bench_subprotocols(seed: str, size: int) -> None:
    rng = np.random.default_rng(int(seed, 16))
    master = bytes.fromhex(seed)
    g = _two_type_graph(rng, size)
    schema, shares = encrypt_graph(g, 2, rng)
    x0 = schema.types["A"].attrs["x0"].values
    mid = x0[len(x0) // 2]
    lo, hi = x0[len(x0) // 3], x0[2 * len(x0) // 3]
    queries = {
        "eval-eq": f"Q s0 A x0 = {mid}\n",
        "eval-lt": f"Q s0 A x0 < {mid}\n",
        "eval-iv": f"Q s0 A x0 in {lo} {hi}\n",
        "fetch-unique": f"Q s0 A uid = {size // 2}\n",
        "access-hop": f"Q s0 A uid = {size // 2}\nQ s1 B y0 < {mid}\nQE s0 s1\n",
    }
    _row("# variant", "candidates", "phase", "bytes_per_party", "seconds")
    eval_bytes = {}
    for name, qtext in queries.items():
        query = load_query(qtext, schema)
        tokens = gen_token(query, schema, rng)
        runtimes, elapsed = _run(tokens, shares, master)
        for phase in ("secEval", "secFetch", "secAccess"):
            nbytes = _phase_bytes(runtimes, phase)
            if nbytes:
                _row(name, size, phase, nbytes, f"{_phase_seconds(runtimes, phase):.4f}")
        _row(name, size, "total", max(rt.meter.total.bytes_sent for rt in runtimes),
             f"{elapsed:.4f}")
        if name.startswith("eval-"):
            eval_bytes[name] = _phase_bytes(runtimes, "secEval")
    if eval_bytes.get("eval-eq"):
        _row("# interval/equality secEval byte ratio",
             f"{eval_bytes['eval-iv'] / eval_bytes['eval-eq']:.2f}")
        _row("# less-than/equality secEval byte ratio",
             f"{eval_bytes['eval-lt'] / eval_bytes['eval-eq']:.2f}")


KERNEL_REPEATS = 20  # runs per kernel in the kernels suite; the best is printed


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


def _bench_kernels(seed: str) -> None:
    """Best-of-``KERNEL_REPEATS`` times of one party's hot kernels at the benchmark's shapes.

    The shapes are those of ``perfbench``: ``scan`` blinds a 2 MiB root table,
    folds its unique root over the (4000, 125) words of its 4000-value
    ``key`` attribute, evaluates keys over a 100-value dictionary and that
    key, and its client assembles about 1175 matched records of one slot;
    ``hop-wan`` draws about 74 segment streams per shuffle, selects 10
    posting lists of 3 id codes from (500, 3) words and 30 attribute rows
    from (500, 2), translates the 132 unit vectors of 512 bits that an
    access expands its selected codes into, and its client assembles a
    4-slot tree; key generation builds 15 trees of depths 9 and 6, about
    one query's.
    """
    rng = np.random.default_rng(int(seed, 16))
    key = rng.bytes(16)

    def bits(*shape):
        return rng.integers(0, 2, shape, dtype=np.uint8)

    def words(*shape):
        return rng.integers(0, 1 << 32, shape, dtype=np.uint32)

    many_posting = (bits(10, 500), bits(10, 500), words(500, 3), words(500, 3))
    unit_rows = (words(132, 16), 512, words(132) & np.uint32(511))
    many_attrs = (bits(30, 500), bits(30, 500), words(500, 2), words(500, 2))
    one_attrs = (bits(4000), bits(4000), words(4000, 125), words(4000, 125))
    seeds = {n: words(n, 4).view(np.uint64) for n in (16, 2048)}
    scan_records = ([{"children": []}], [RecordTable(None, {}, np.full(1175, -1))])
    hop_records = _hop_records()
    closed = (True, True)
    hop_preds = [(fss.KIND_EQ, (250,), 500, closed), (fss.KIND_INTERVAL, (20, 20), 50, closed),
                 (fss.KIND_GE, (10,), 50, closed), (fss.KIND_GE, (10,), 50, closed)] * 3
    eq_keys = [(k, 4000) for k in fss.dpf_gen(2000, 4000, rng)]
    iv_keys = [(k, 100) for k in fss.ic_gen(30, 39, 100, rng)]
    kernels = [
        ("prf_stream", "1 x 2 MiB", lambda: prf_stream(key, b"BNCH", 0, 2 << 20)),
        ("prf_stream", "74 x 576 B", lambda: prf_stream(key, b"BNCH", 0, [576] * 74)),
        ("seeded_permutation", "1 x 4000", lambda: seeded_permutation(key, b"BNCH", 0, 4000)),
        ("seeded_permutation", "74 x 3", lambda: seeded_permutation(key, b"BNCH", 0, [3] * 74)),
        ("prg_expand", "16 seeds", lambda: prg_expand(seeds[16])),
        ("prg_expand", "2048 seeds", lambda: prg_expand(seeds[2048])),
        ("select_many", "(10, 500) x (500, 3)", lambda: _select_many_additive(*many_posting)),
        ("select_many", "(30, 500) x (500, 2)", lambda: _select_many_additive(*many_attrs)),
        ("select_one", "(4000,) x (4000, 125)", lambda: _select_one_additive(*one_attrs)),
        ("translate_rows", "132 x 512 bits", lambda: translate_rows(*unit_rows)),
        ("assemble", "1 slot, 1175 records", lambda: assemble(*scan_records)),
        ("assemble", f"4 slots, {len(assemble(*hop_records))} subgraphs",
         lambda: assemble(*hop_records)),
        ("key_pairs_gen", "15 trees, depths 9 and 6", lambda: fss.key_pairs_gen(hop_preds, rng)),
        ("full_domain_eval", "2 eq keys over 4000", lambda: fss.full_domain_eval(
            *eq_keys[0], more=eq_keys[1:])),
        ("full_domain_eval", "2 iv keys over 100", lambda: fss.full_domain_eval(
            *iv_keys[0], more=iv_keys[1:])),
    ]
    _row("# kernel", "shape", "best_ms")
    for name, shape, fn in kernels:
        _row(name, shape, f"{_best_ms(fn):.4f}")


def run_suite(suite: str, seed: str | None = None, size: int = 1000) -> None:
    seed = seed or secrets.token_hex(16)
    print(f"# suite={suite} size={size} seed={seed}")
    if suite == "subprotocols":
        _bench_subprotocols(seed, size)
    elif suite == "kernels":
        _bench_kernels(seed)
    else:
        raise ValueError(f"unknown bench suite {suite!r}")
