"""Tests of the benchmark itself: round counting, repeatable counts, failure accounting.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

import run  # noqa: F401  (puts the checkout's src/ on sys.path first)
import instrument
import workloads
from oblivgm import engine, net, rss
from oblivgm.bits import BitVector
from oblivgm.shuffle import MatchTable, sec_shuffle

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

TINY = {
    "tiny-hop": workloads.Workload(workloads._hop_graph(60, 6, 2),
                                   workloads._hop_queries(1, 2)),
    "tiny-scan": workloads.Workload(workloads._scan_graph(200, 20),
                                    workloads._scan_queries),
    "tiny-wan": workloads.Workload(workloads._hop_graph(60, 6, 2),
                                   workloads._hop_queries(1, 2), delay_s=0.0005),
}


def _rounds_of(op) -> int:
    clock = instrument.RoundClock()

    def worker(rt):
        clock.attach(rt)
        return op(rt)

    net.run_local_trio(worker)
    return clock.rounds()


def _shares(bits):
    return rss.share(BitVector.from_bits(np.array(bits, dtype=np.uint8)),
                     np.random.default_rng(0))


def test_round_clock_counts_reshare_as_one():
    additive = BitVector.from_bits(np.array([1, 0, 1, 1], dtype=np.uint8))
    assert _rounds_of(lambda rt: rss.reshare(rt, additive)) == 1


def test_round_clock_counts_open_as_one():
    shares = _shares([1, 0, 0, 1, 1])
    assert _rounds_of(lambda rt: rss.open_shared(rt, shares[rt.index - 1])) == 1


def test_round_clock_counts_shuffle_as_three():
    rows = [_shares([r & 1, r >> 1 & 1, r >> 2 & 1]) for r in range(5)]

    def op(rt):
        return sec_shuffle(rt, MatchTable.from_rows([row[rt.index - 1] for row in rows]))
    assert _rounds_of(op) == 3


def _bench(workload: str, monkeypatch, capsys, trace: int = 0) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, workload, TINY[workload])
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == (0 if out["correct"] else 1)
    return out


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_exactly(workload, monkeypatch, capsys):
    first = _bench(workload, monkeypatch, capsys)
    second = _bench(workload, monkeypatch, capsys)
    assert first["correct"] and first["failed"] == 0
    assert first["attempted"] == second["attempted"] > 0
    for name in ("bytes_per_query", "rounds_per_query", "share_bytes"):
        assert first["metrics"][name] == second["metrics"][name]


def test_delay_changes_no_count(monkeypatch, capsys):
    fast = _bench("tiny-hop", monkeypatch, capsys)["metrics"]
    slow = _bench("tiny-wan", monkeypatch, capsys)["metrics"]
    for name in ("bytes_per_query", "rounds_per_query", "share_bytes"):
        assert fast[name] == slow[name]
    assert slow["query_s_p50"]["value"] > fast["rounds_per_query"]["value"] * 0.0005


def test_reports_every_declared_metric(monkeypatch, capsys):
    e2e = _bench("tiny-scan", monkeypatch, capsys, trace=0)["metrics"]
    layers = _bench("tiny-scan", monkeypatch, capsys, trace=1)["metrics"]
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    for declared, got in ((BENCHMARK["end_to_end"], e2e), (BENCHMARK["per_layer"], layers)):
        for m in declared:
            assert got[m["name"]]["unit"] == m["unit"]


def test_wrong_result_counts_as_failed(monkeypatch, capsys):
    real = engine.open_results

    def corrupted(result_sets, schema):
        matches, details = real(result_sets, schema)
        return matches + [("bogus",) * len(result_sets[0].records)], details

    monkeypatch.setattr(engine, "open_results", corrupted)
    out = _bench("tiny-hop", monkeypatch, capsys)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] > 0


def test_delayed_trio_fails_fast_when_a_party_raises():
    def worker(rt):
        if rt.index == 2:
            raise RuntimeError("party 2 down")
        return rt.recv_prev(net.OP_RESHARE)

    started = time.perf_counter()
    with pytest.raises(RuntimeError, match="party 2 down"):
        instrument.run_delayed_trio(worker, net.make_session_configs(b"\x01" * 16),
                                    delay=0.001, recv_timeout=30.0)
    assert time.perf_counter() - started < 5.0
