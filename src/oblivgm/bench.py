"""Desk benchmarks: per-phase latency and bytes-on-wire, tab-separated output."""

from __future__ import annotations

import secrets
import time

import numpy as np

from .datagen import random_graph, random_query_text
from .engine import EngineConfig, open_results, sec_match
from .graphs import AttributedGraph, GraphFormatError, encrypt_graph
from .net import PhaseStats, local_runtimes, make_session_configs, run_trio
from .query import gen_token, load_query


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
    results = run_trio(worker, runtimes)
    elapsed = time.perf_counter() - started
    return results, runtimes, elapsed


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
        _, runtimes, elapsed = _run(tokens, shares, master)
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


def _bench_query(seed: str, size: int) -> None:
    rng = np.random.default_rng(int(seed, 16))
    master = bytes.fromhex(seed)
    g = random_graph(rng, n_vertices=size, n_types=3, avg_degree=3.0)
    schema, shares = encrypt_graph(g, 2, rng)
    _row("# query", "targets", "seconds", "bytes_per_party", "matches")
    for trial in range(3):
        qtext = random_query_text(rng, schema, n_targets=4)
        query = load_query(qtext, schema)
        tokens = gen_token(query, schema, rng)
        results, runtimes, elapsed = _run(tokens, shares, master)
        matches, _ = open_results(results[:2], schema)
        _row(f"q{trial}", query.size, f"{elapsed:.3f}",
             max(rt.meter.total.bytes_sent for rt in runtimes), len(matches))


def run_suite(suite: str, seed: str | None = None, size: int = 1000) -> None:
    seed = seed or secrets.token_hex(16)
    print(f"# suite={suite} size={size} seed={seed}")
    if suite == "subprotocols":
        _bench_subprotocols(seed, size)
    elif suite == "query":
        _bench_query(seed, size)
    else:
        raise ValueError(f"unknown bench suite {suite!r}")
