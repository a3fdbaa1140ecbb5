"""End-to-end benchmark of oblivgm: outsourcing, then a closed loop of seeded queries.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload hop|scan|hop-wan --seed N --seconds S --trace 0|1

One client keeps one query in flight. Each run encrypts the workload's seeded
graph and stores and reloads the three shares a few times (``setup_s``), then
runs the workload's fixed list of queries as whole passes until the next pass
would overrun ``--seconds``. Every query's matches are checked against the
plaintext oracle, a direct predicate filter for single-target queries, and all
three pairs of party result shares. The last stdout line is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "oblivgm" / "__init__.py").is_file():
    sys.exit(f"perfbench: no oblivgm sources at {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import instrument  # noqa: E402
import workloads  # noqa: E402
from oblivgm import engine, fss, graphs, net, oracle, query, rss, shuffle, storage  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
RECV_TIMEOUT = 60.0
PHASES = ("secEval", "secFetch", "secAccess")


class Run:
    """One benchmark run: a workload's graph, its outsourced shares and its query list."""

    def __init__(self, workload: workloads.Workload, seed: int, tracer=None):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.graph, values = workload.build_graph(np.random.default_rng([seed, 0]))
        self.queries = workload.make_queries(np.random.default_rng([seed, 1]), values)
        self.master = np.random.default_rng([seed, 2]).bytes(16)
        self.schema = None
        self.shares = None
        self.expected: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    # -- outsourcing -------------------------------------------------------

    def setup(self, workdir: Path, reps: int) -> tuple[list[float], int]:
        """Encrypt, save and reload the three shares ``reps`` times.

        Returns the time of each repetition and the total share-file size.
        The last repetition's reloaded shares serve the queries.
        """
        times = []
        for _ in range(reps):
            started = time.perf_counter()
            schema, shares = graphs.encrypt_graph(
                self.graph, workloads.ENCRYPT_K, np.random.default_rng([self.seed, 3]))
            paths = [workdir / f"graph-share-{s.party_index}.ogmg" for s in shares]
            for path, share in zip(paths, shares):
                storage.save_graph_share(path, share)
            loaded = [storage.load_graph_share(path, schema) for path in paths]
            times.append(time.perf_counter() - started)
        self.schema, self.shares = schema, loaded
        return times, sum(p.stat().st_size for p in paths)

    def prepare_checks(self) -> None:
        """Plaintext answers for every query, computed once outside the timed loop."""
        for q in self.queries:
            qgraph = query.load_query(q.text, self.schema)
            want = oracle.oracle_match(self.graph, qgraph, self.schema)
            direct = workloads.direct_filter(self.graph, q.target) if q.target else None
            self.expected.append((want, direct))

    # -- one query -----------------------------------------------------------

    def run_query(self, qi: int) -> dict | None:
        """Run query ``qi`` end to end and check it; None if it failed."""
        self.attempted += 1
        clock = instrument.RoundClock()
        cpu: dict[int, float] = {}
        runtimes = {}
        tracer = self.tracer

        def worker(rt):
            started = time.thread_time()
            clock.attach(rt)
            if tracer is not None:
                for attr in ("send_next", "send_prev"):
                    setattr(rt, attr, tracer.traced(getattr(rt, attr), "net.send"))
                for attr in ("recv_next", "recv_prev"):
                    setattr(rt, attr, tracer.traced(getattr(rt, attr), "net.recv"))
            runtimes[rt.index] = rt
            try:
                return engine.sec_match(rt, tokens[rt.index - 1], self.shares[rt.index - 1])
            finally:
                cpu[rt.index] = time.thread_time() - started

        configs = net.make_session_configs(self.master)
        if tracer is not None:
            tracer.query = qi
        try:
            started = time.perf_counter()
            qgraph = query.load_query(self.queries[qi].text, self.schema)
            tokens = query.gen_token(qgraph, self.schema, np.random.default_rng([self.seed, 4, qi]))
            if self.wl.delay_s:
                results = instrument.run_delayed_trio(worker, configs, self.wl.delay_s,
                                                      RECV_TIMEOUT)
            else:
                results = net.run_local_trio(worker, configs, recv_timeout=RECV_TIMEOUT)
            matches, _ = engine.open_results(results[:2], self.schema)
            latency = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
            print(f"perfbench: query {qi} ({self.queries[qi].kind}) failed: {exc!r}",
                  file=sys.stderr)
            self.failed += 1
            return None
        finally:
            if tracer is not None:
                tracer.query = None
        if not self.check(qi, matches, results):
            print(f"perfbench: query {qi} ({self.queries[qi].kind}) returned wrong matches",
                  file=sys.stderr)
            self.failed += 1
            self.wrong += 1
            return None
        meters = [runtimes[i].meter for i in (1, 2, 3)]
        return {
            "latency": latency,
            "party_cpu": sum(cpu.values()),
            "bytes": sum(m.total.bytes_sent for m in meters),
            "frames": sum(m.total.frames_sent for m in meters),
            "rounds": clock.rounds(),
            "phase_rounds": {p: clock.rounds(p) for p in PHASES},
            "phase_bytes": {p: sum(m.phases[p].bytes_sent for m in meters if p in m.phases)
                            for p in PHASES},
        }

    def check(self, qi: int, matches, results) -> bool:
        """Oracle, direct filter, and agreement of every pair of result shares."""
        want, direct = self.expected[qi]
        got = set(matches)
        if len(got) != len(matches) or got != want or (direct is not None and got != direct):
            return False
        # the timed reconstruction already used parties {1, 2}
        for a, b in ((1, 2), (0, 2)):
            try:
                pair, _ = engine.open_results([results[a], results[b]], self.schema)
            except ValueError:  # the pair's shares disagree
                return False
            if pair != matches:
                return False
        return True

    def passes(self, budget_s: float) -> list[dict]:
        """Whole passes over the query list while the next one fits in ``budget_s``."""
        samples = []
        started = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for qi in range(len(self.queries)):
                sample = self.run_query(qi)
                if sample is not None:
                    samples.append(sample)
            now = time.perf_counter()
            if now - started + (now - pass_start) > budget_s:
                return samples


def _end_to_end(samples, setup_times, share_bytes) -> dict:
    n = len(samples)
    return {
        "query_s_p50": (statistics.median(s["latency"] for s in samples), "s"),
        "queries_per_s": (n / sum(s["latency"] for s in samples), "1/s"),
        "party_cpu_s": (statistics.median(s["party_cpu"] for s in samples), "s"),
        "bytes_per_query": (sum(s["bytes"] for s in samples) / n, "B"),
        "rounds_per_query": (sum(s["rounds"] for s in samples) / n, "count"),
        "setup_s": (statistics.median(setup_times), "s"),
        "share_bytes": (share_bytes, "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _trace_targets():
    """(owner, attribute, span name, work counter) for every traced layer boundary."""
    return [
        (engine, "sec_eval", "engine.sec_eval", None),
        (engine, "combine_predicates", "engine.combine_predicates", None),
        (engine, "sec_fetch_unique", "engine.sec_fetch_unique", None),
        (engine, "sec_fetch_multi", "engine.sec_fetch_multi", None),
        (engine, "sec_access", "engine.sec_access", None),
        (engine, "sec_shuffle", "shuffle.sec_shuffle", lambda rt, table: table.rows),
        (fss, "full_domain_eval", "fss.full_domain_eval", None),
        (rss, "reshare", "rss.reshare", None),
        (rss, "open_shared", "rss.open_shared", lambda rt, x, label=0: x.logical_len),
        (rss, "prf_words", "prf.rss.prf_words", None),
        (shuffle, "prf_stream", "prf.shuffle.prf_stream", None),
        (shuffle, "seeded_permutation", "prf.shuffle.seeded_permutation", None),
        (fss, "prg_expand", "prf.fss.prg_expand", None),
        (query, "load_query", "query.load_query", None),
        (query, "gen_token", "query.gen_token", None),
        (engine, "open_results", "engine.open_results", None),
    ]


def _per_layer(tracer, samples, setup_reps, overhead_s) -> tuple[dict, dict]:
    """Per-query layer metrics summed over the three parties (setup ones per repetition)."""
    n = len(samples)
    spans = tracer.totals(lambda q: q != "setup")
    setup = tracer.totals(lambda q: q == "setup")

    def per_query(name, field):
        return spans.get(name, {}).get(field, 0) / n

    def mean(key, phase=None):
        return sum(s[key][phase] if phase else s[key] for s in samples) / n

    out = {
        "engine.sec_access.self_cpu_s": (per_query("engine.sec_access", "self_cpu_s"), "s"),
        "engine.sec_access.calls": (per_query("engine.sec_access", "calls"), "count"),
        "engine.sec_fetch_multi.self_cpu_s": (per_query("engine.sec_fetch_multi", "self_cpu_s"), "s"),
        "engine.sec_fetch_multi.calls": (per_query("engine.sec_fetch_multi", "calls"), "count"),
        "engine.sec_fetch_unique.cpu_s": (per_query("engine.sec_fetch_unique", "cpu_s"), "s"),
        "engine.sec_fetch_unique.calls": (per_query("engine.sec_fetch_unique", "calls"), "count"),
        "engine.sec_eval.cpu_s": (per_query("engine.sec_eval", "cpu_s"), "s"),
        "engine.sec_eval.calls": (per_query("engine.sec_eval", "calls"), "count"),
        "engine.combine_predicates.cpu_s": (per_query("engine.combine_predicates", "cpu_s"), "s"),
        "fss.full_domain_eval.cpu_s": (per_query("fss.full_domain_eval", "cpu_s"), "s"),
        "fss.full_domain_eval.calls": (per_query("fss.full_domain_eval", "calls"), "count"),
        "shuffle.sec_shuffle.cpu_s": (per_query("shuffle.sec_shuffle", "cpu_s"), "s"),
        "shuffle.sec_shuffle.calls": (per_query("shuffle.sec_shuffle", "calls"), "count"),
        "shuffle.sec_shuffle.rows": (per_query("shuffle.sec_shuffle", "size"), "count"),
        "prf.cpu_s": (sum(v["cpu_s"] for k, v in spans.items() if k.startswith("prf.")) / n, "s"),
        "rss.reshare.calls": (per_query("rss.reshare", "calls"), "count"),
        "rss.open_shared.calls": (per_query("rss.open_shared", "calls"), "count"),
        "rss.open_shared.bits": (per_query("rss.open_shared", "size"), "bit"),
        "net.frames": (mean("frames"), "count"),
        "net.recv_wait_s": (per_query("net.recv", "wall_s"), "s"),
        "query.load_query.s": (per_query("query.load_query", "wall_s"), "s"),
        "query.gen_token.s": (per_query("query.gen_token", "wall_s"), "s"),
        "engine.open_results.s": (per_query("engine.open_results", "wall_s"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for p in PHASES:
        out[f"net.rounds.{p}"] = (mean("phase_rounds", p), "count")
        out[f"net.bytes.{p}"] = (mean("phase_bytes", p), "B")
    for owner, name in (("graphs", "encrypt_graph"), ("storage", "save_graph_share"),
                        ("storage", "load_graph_share")):
        out[f"{owner}.{name}.s"] = (setup.get(f"{owner}.{name}", {}).get("wall_s", 0) / setup_reps, "s")
    return out, {"spans_per_name": spans, "setup_spans_per_name": setup, "traced_queries": n}


# Spins at the lowest scheduling priority until killed or orphaned.
_SPIN = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    pass
"""


@contextlib.contextmanager
def _cpu_kept_awake(enabled: bool):
    """Keep the benchmark's CPU busy while every party sleeps out a link delay.

    On delayed links each round ends with all three parties asleep. An idle
    virtual CPU is woken through the host, and on a loaded host that added up
    to half a millisecond a round: one ``hop-wan`` seed measured 0.97 s per
    query, and 0.70 s a few minutes later with the same party CPU. A
    ``SCHED_IDLE`` spinner on the same CPU (it inherits the pinning) keeps the
    CPU out of idle and gives way to a waking party thread at once.
    """
    if not enabled or not hasattr(os, "SCHED_IDLE"):
        yield
        return
    spinner = subprocess.Popen([sys.executable, "-c", _SPIN])
    try:
        yield
    finally:
        spinner.kill()
        spinner.wait()


def _keep_freed_memory() -> None:
    """Let glibc keep freed blocks for reuse instead of handing them back to the kernel.

    By default a freed block of more than a few MB is unmapped, and the next
    query faults its pages back in one by one: a fifth of a ``scan`` query's
    time went to the kernel, and that cost followed the host's memory
    pressure. With the heap kept, queries reuse warm pages and sys time falls
    below 1%. Does nothing where glibc is not the allocator.
    """
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(m_trim_threshold, 1 << 30)
        libc.mallopt(m_mmap_threshold, 32 << 20)  # glibc's largest allowed value
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = instrument.Tracer() if args.trace else None
    run = Run(workloads.WORKLOADS[args.workload], args.seed, tracer)
    workdir = OUT_DIR / f"shares-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is not None:
            for owner, attr, name in ((graphs, "encrypt_graph", "graphs.encrypt_graph"),
                                      (storage, "save_graph_share", "storage.save_graph_share"),
                                      (storage, "load_graph_share", "storage.load_graph_share")):
                tracer.wrap(owner, attr, name)
            tracer.query = "setup"
        try:
            setup_times, share_bytes = run.setup(workdir, SETUP_REPS)
        finally:
            if tracer is not None:
                tracer.query = None
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.prepare_checks()

    with _cpu_kept_awake(bool(run.wl.delay_s)):
        if tracer is None:
            samples = run.passes(args.seconds)
        else:
            plain = run.passes(args.seconds / 2)
            for owner, attr, name, size in _trace_targets():
                tracer.wrap(owner, attr, name, size)
            try:
                samples = run.passes(args.seconds / 2)
            finally:
                tracer.restore()
    if tracer is None:
        metrics = _end_to_end(samples, setup_times, share_bytes) if samples else {}
    else:
        metrics = {}
        if samples and plain:
            overhead = (statistics.median(s["latency"] for s in samples)
                        - statistics.median(s["latency"] for s in plain))
            metrics, detail = _per_layer(tracer, samples, SETUP_REPS, overhead)
            OUT_DIR.mkdir(exist_ok=True)
            out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                       "metrics": {k: v for k, (v, _) in metrics.items()},
                                       **detail}, indent=1, sort_keys=True))
            print(f"perfbench: trace written to {out}", file=sys.stderr)

    correct = run.wrong == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # The three party threads hand off thousands of times per query under one
    # interpreter lock; on one CPU each hand-off is a local context switch
    # rather than a cross-CPU wake-up, which keeps wall time close to CPU time
    # and steadier between runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _keep_freed_memory()
    sys.exit(main())
