"""CLI pipeline: commands compose, exit codes hold, output is deterministic."""

import numpy as np
import pytest

from oblivgm import rss
from oblivgm.cli import main
from oblivgm.storage import load_results, load_schema, save_results
from tests.conftest import CAMPUS_GRAPH, TWO_PERSON_QUERY

ENC_SEED = "00112233445566778899aabbccddeeff"
TOK_SEED = "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf"
SES_SEED = "0f0e0d0c0b0a09080706050403020100"


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "campus.graph").write_text(CAMPUS_GRAPH)
    (tmp_path / "two.query").write_text(TWO_PERSON_QUERY)
    return tmp_path


def run_pipeline(ws, out="res", session=SES_SEED):
    assert main(["encrypt", "--graph", str(ws / "campus.graph"), "--k", "2",
                 "--out-dir", str(ws / "enc"), "--seed", ENC_SEED]) == 0
    assert main(["tokenize", "--query", str(ws / "two.query"),
                 "--schema", str(ws / "enc" / "schema.json"),
                 "--out-dir", str(ws / "tok"), "--seed", TOK_SEED]) == 0
    assert main(["query", "--graph-dir", str(ws / "enc"), "--token-dir", str(ws / "tok"),
                 "--out-dir", str(ws / out), "--session-seed", session, "--quiet"]) == 0


def test_full_pipeline_matches_oracle(workspace, capsys):
    run_pipeline(workspace)
    assert main(["open", "--results",
                 str(workspace / "res" / "results-1.ogmr"),
                 str(workspace / "res" / "results-3.ogmr"),
                 "--schema", str(workspace / "enc" / "schema.json")]) == 0
    opened = capsys.readouterr().out.strip().splitlines()[-2:]
    assert main(["oracle", "--graph", str(workspace / "campus.graph"),
                 "--query", str(workspace / "two.query")]) == 0
    reference = capsys.readouterr().out.strip().splitlines()
    assert opened == reference == ["u1 p1 p3 c1 c2", "u1 p2 p3 c1 c2"]


def test_pipeline_deterministic_under_seeds(workspace):
    run_pipeline(workspace, out="res-a")
    run_pipeline(workspace, out="res-b")
    for i in (1, 2, 3):
        a = (workspace / "res-a" / f"results-{i}.ogmr").read_bytes()
        b = (workspace / "res-b" / f"results-{i}.ogmr").read_bytes()
        assert a == b


def test_fresh_session_changes_shares_not_matches(workspace, capsys):
    run_pipeline(workspace, out="res-a")
    run_pipeline(workspace, out="res-b", session="ffffffffffffffffffffffffffffffff")
    a = (workspace / "res-a" / "results-1.ogmr").read_bytes()
    b = (workspace / "res-b" / "results-1.ogmr").read_bytes()
    assert a != b
    capsys.readouterr()  # drain pipeline chatter before collecting matches
    for out in ("res-a", "res-b"):
        assert main(["open", "--results",
                     str(workspace / out / "results-1.ogmr"),
                     str(workspace / out / "results-2.ogmr"),
                     "--schema", str(workspace / "enc" / "schema.json")]) == 0
    text = capsys.readouterr().out.strip().splitlines()
    assert text[:2] == text[2:]


def test_encrypt_rejects_oversized_k(workspace, capsys):
    code = main(["encrypt", "--graph", str(workspace / "campus.graph"), "--k", "4",
                 "--out-dir", str(workspace / "enc4"), "--seed", ENC_SEED])
    assert code == 2
    assert "fewer than k" in capsys.readouterr().err


def test_validation_exit_codes(workspace, capsys):
    assert main(["encrypt", "--graph", str(workspace / "missing.graph"), "--k", "2",
                 "--out-dir", str(workspace / "x"), "--seed", ENC_SEED]) == 2
    run_pipeline(workspace)
    (workspace / "bad.query").write_text("Q a P age = 99999\n")
    assert main(["tokenize", "--query", str(workspace / "bad.query"),
                 "--schema", str(workspace / "enc" / "schema.json"),
                 "--out-dir", str(workspace / "tok2"), "--seed", TOK_SEED]) == 2
    # opening with a mismatched schema is a validation error
    (workspace / "other.graph").write_text(CAMPUS_GRAPH + "V U u9 place=Oslo\n"
                                           "V P p9 age=61\nV C c9 field=law\n"
                                           "E u9 p9\nE p9 c9\n")
    assert main(["encrypt", "--graph", str(workspace / "other.graph"), "--k", "2",
                 "--out-dir", str(workspace / "enc-other"), "--seed", ENC_SEED]) == 0
    assert main(["open", "--results", str(workspace / "res" / "results-1.ogmr"),
                 str(workspace / "res" / "results-2.ogmr"),
                 "--schema", str(workspace / "enc-other" / "schema.json")]) == 2


def test_query_streams_per_hop_progress(workspace, capsys):
    assert main(["encrypt", "--graph", str(workspace / "campus.graph"), "--k", "2",
                 "--out-dir", str(workspace / "enc"), "--seed", ENC_SEED]) == 0
    assert main(["tokenize", "--query", str(workspace / "two.query"),
                 "--schema", str(workspace / "enc" / "schema.json"),
                 "--out-dir", str(workspace / "tok"), "--seed", TOK_SEED]) == 0
    assert main(["query", "--graph-dir", str(workspace / "enc"),
                 "--token-dir", str(workspace / "tok"),
                 "--out-dir", str(workspace / "res"),
                 "--session-seed", SES_SEED]) == 0
    err = capsys.readouterr().err
    assert "[party-1] slot 0 (u): 2 candidates" in err
    assert "matched records" in err


def test_serve_local_trio_alias(workspace):
    run_pipeline(workspace)
    assert main(["serve", "--local-trio", "--graph-dir", str(workspace / "enc"),
                 "--token-dir", str(workspace / "tok"),
                 "--out-dir", str(workspace / "res-serve"),
                 "--session-seed", SES_SEED, "--quiet"]) == 0
    a = (workspace / "res" / "results-2.ogmr").read_bytes()
    b = (workspace / "res-serve" / "results-2.ogmr").read_bytes()
    assert a == b


def test_open_verbose_includes_attributes(workspace, capsys):
    run_pipeline(workspace)
    assert main(["open", "--verbose", "--results",
                 str(workspace / "res" / "results-1.ogmr"),
                 str(workspace / "res" / "results-2.ogmr"),
                 "--schema", str(workspace / "enc" / "schema.json")]) == 0
    out = capsys.readouterr().out
    assert "place=Harbin" in out and "age=40" in out


def test_query_tcp_mode_produces_identical_results(workspace):
    run_pipeline(workspace)
    assert main(["query", "--graph-dir", str(workspace / "enc"),
                 "--token-dir", str(workspace / "tok"),
                 "--out-dir", str(workspace / "res-tcp"), "--mode", "tcp",
                 "--ports", "19861,19862,19863",
                 "--session-seed", SES_SEED, "--quiet"]) == 0
    for i in (1, 2, 3):
        assert ((workspace / "res-tcp" / f"results-{i}.ogmr").read_bytes()
                == (workspace / "res" / f"results-{i}.ogmr").read_bytes())


def test_protocol_error_exit_code(workspace, capsys):
    run_pipeline(workspace)
    code = main(["serve", "--party", "3",
                 "--schema", str(workspace / "enc" / "schema.json"),
                 "--graph-share", str(workspace / "enc" / "graph-share-3.ogmg"),
                 "--token", str(workspace / "tok" / "token-3.ogmt"),
                 "--out", str(workspace / "never.ogmr"),
                 "--bind", "127.0.0.1:19870",
                 "--peers", "1=127.0.0.1:9,2=127.0.0.1:9",
                 "--session-seed", SES_SEED, "--connect-timeout", "0.3"])
    assert code == 3
    assert "protocol error" in capsys.readouterr().err


def test_damaged_token_exits_2(workspace, capsys):
    run_pipeline(workspace)
    token = workspace / "tok" / "token-2.ogmt"
    blob = token.read_bytes()
    for damaged in (blob[:20], blob[:12] + bytes([blob[12] ^ 1]) + blob[13:]):
        token.write_bytes(damaged)
        assert main(["query", "--graph-dir", str(workspace / "enc"),
                     "--token-dir", str(workspace / "tok"), "--out-dir", str(workspace / "x"),
                     "--session-seed", SES_SEED, "--quiet"]) == 2
        assert main(["serve", "--party", "2",
                     "--schema", str(workspace / "enc" / "schema.json"),
                     "--graph-share", str(workspace / "enc" / "graph-share-2.ogmg"),
                     "--token", str(token), "--out", str(workspace / "never.ogmr"),
                     "--bind", "127.0.0.1:19872", "--peers", "1=127.0.0.1:9,3=127.0.0.1:9",
                     "--session-seed", SES_SEED]) == 2
        assert capsys.readouterr().err.count("error: ") == 2


def test_serve_reads_addresses_from_environment(workspace, capsys, monkeypatch):
    run_pipeline(workspace)
    monkeypatch.setenv("OBLIVGM_BIND", "127.0.0.1:19871")
    monkeypatch.setenv("OBLIVGM_PEERS", "1=127.0.0.1:9,2=127.0.0.1:9")
    code = main(["serve", "--party", "3",
                 "--schema", str(workspace / "enc" / "schema.json"),
                 "--graph-share", str(workspace / "enc" / "graph-share-3.ogmg"),
                 "--token", str(workspace / "tok" / "token-3.ogmt"),
                 "--out", str(workspace / "never.ogmr"),
                 "--session-seed", SES_SEED, "--connect-timeout", "0.3"])
    assert code == 3  # env addresses were used; peers are unreachable
    assert "unreachable" in capsys.readouterr().err
    monkeypatch.delenv("OBLIVGM_BIND")
    code = main(["serve", "--party", "3",
                 "--schema", str(workspace / "enc" / "schema.json"),
                 "--graph-share", str(workspace / "enc" / "graph-share-3.ogmg"),
                 "--token", str(workspace / "tok" / "token-3.ogmt"),
                 "--out", str(workspace / "never.ogmr"),
                 "--session-seed", SES_SEED])
    assert code == 2  # no bind address anywhere is a validation error
    assert "no bind address" in capsys.readouterr().err


def test_bench_subprotocols_reports_interval_byte_ratio(capsys):
    # an interval key is evaluated in one pass, so it re-shares what an equality does
    assert main(["bench", "--suite", "subprotocols", "--size", "200",
                 "--seed", "1234567890abcdef1234567890abcdef"]) == 0
    out = capsys.readouterr().out
    assert "# interval/equality secEval byte ratio\t1.00" in out
    assert "# less-than/equality secEval byte ratio\t1.00" in out
    assert "secAccess" in out


def test_bench_subprotocols_times_each_phase(capsys):
    assert main(["bench", "--suite", "subprotocols", "--size", "200",
                 "--seed", "1234567890abcdef1234567890abcdef"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()
            if line.startswith("access-hop\t")]
    seconds = {phase: float(sec) for _, _, phase, _, sec in rows}
    total = seconds.pop("total")
    assert set(seconds) == {"secEval", "secFetch", "secAccess"}
    assert len(set(seconds.values())) > 1
    assert all(0 < sec <= total for sec in seconds.values())


def test_bench_kernels_prints_best_times(capsys):
    assert main(["bench", "--suite", "kernels",
                 "--seed", "1234567890abcdef1234567890abcdef"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "# kernel\tshape\tbest_ms"
    rows = [line.split("\t") for line in lines[2:]]
    assert {name for name, _, _ in rows} == {"prf_stream", "seeded_permutation", "prg_expand",
                                             "select_many", "select_one"}
    assert all(float(ms) > 0 for _, _, ms in rows)


def test_ciphertext_size_monotone_in_k(workspace):
    rng = np.random.default_rng(0)
    from oblivgm.datagen import graph_to_text, random_graph

    text = graph_to_text(random_graph(rng, n_vertices=90, n_types=3, avg_degree=3))
    (workspace / "rand.graph").write_text(text)
    sizes = []
    for k in (2, 4, 6):
        outd = workspace / f"enc-k{k}"
        assert main(["encrypt", "--graph", str(workspace / "rand.graph"), "--k", str(k),
                     "--out-dir", str(outd), "--seed", ENC_SEED]) == 0
        sizes.append(sum((outd / f"graph-share-{i}.ogmg").stat().st_size for i in (1, 2, 3)))
    assert sizes[0] <= sizes[1] <= sizes[2]


def test_old_files_and_bad_codes_exit_2(workspace, capsys):
    run_pipeline(workspace)
    enc, res = workspace / "enc", workspace / "res"
    schema_path = str(enc / "schema.json")
    schema = load_schema(schema_path)
    # a code past the population, in a file whose checksum holds
    r1, r2 = (load_results(res / f"results-{i}.ogmr", schema) for i in (1, 2))
    ids = r1.records[1].ids  # slot pa: type P, 4 vertices, 3-bit codes
    code = rss.reconstruct([ids.row(0), r2.records[1].ids.row(0)]).to_int()
    ids.share_a[0, 0] ^= np.uint32(7 ^ code)
    save_results(workspace / "bad.ogmr", r1, schema)
    capsys.readouterr()
    assert main(["open", "--results", str(workspace / "bad.ogmr"), str(res / "results-2.ogmr"),
                 "--schema", schema_path]) == 2
    assert "id code 7 exceeds" in capsys.readouterr().err
    # version-1 result and graph share files
    for path in (res / "results-1.ogmr", enc / "graph-share-1.ogmg"):
        data = bytearray(path.read_bytes())
        data[4:6] = (1).to_bytes(2, "little")
        path.write_bytes(bytes(data))
    assert main(["open", "--results", str(res / "results-1.ogmr"), str(res / "results-2.ogmr"),
                 "--schema", schema_path]) == 2
    assert "result file version 1" in capsys.readouterr().err
    assert main(["query", "--graph-dir", str(enc), "--token-dir", str(workspace / "tok"),
                 "--out-dir", str(workspace / "res-old"), "--session-seed", SES_SEED,
                 "--quiet"]) == 2
    assert "graph share version 1" in capsys.readouterr().err
