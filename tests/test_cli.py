"""CLI pipeline: commands compose, exit codes hold, output is deterministic."""

import argparse
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from oblivgm import rss
from oblivgm.cli import build_parser, main
from oblivgm.storage import load_results, load_schema, save_results
from tests.conftest import CAMPUS_GRAPH, TWO_PERSON_QUERY, old_result_layout, rewrite_manifest

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


def test_range_query_on_an_attribute_holding_nan_exits_2(tmp_path, capsys):
    (tmp_path / "n.graph").write_text("".join(f"V N n{i} age={v}\n"
                                              for i, v in enumerate(("50", "nan", "10"))))
    (tmp_path / "q.query").write_text("Q a N age >= 30\n")
    assert main(["oracle", "--graph", str(tmp_path / "n.graph"),
                 "--query", str(tmp_path / "q.query")]) == 2
    assert "not ordinal" in capsys.readouterr().err


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


def test_query_progress_names_a_gated_inner_slots_rows(workspace, capsys):
    # U's padded lengths toward P are even and the inner slots pa and pb
    # have only leaves below them, so they are gated: each keeps all of its
    # root record's padded rows, with no fetch
    run_pipeline(workspace)
    capsys.readouterr()
    assert main(["query", "--graph-dir", str(workspace / "enc"),
                 "--token-dir", str(workspace / "tok"), "--out-dir", str(workspace / "res"),
                 "--session-seed", SES_SEED]) == 0
    err = capsys.readouterr().err
    for i in (1, 2, 3):
        for slot, name in ((1, "pa"), (2, "pb")):
            assert re.search(rf"^\[party-{i}\] slot {slot} \({name}\): 3 gated rows$", err, re.M)
            assert f"[party-{i}] slot {slot} ({name}): 3 candidates" not in err


def test_query_prints_each_partys_phase_split(workspace, capsys):
    run_pipeline(workspace)
    capsys.readouterr()
    assert main(["query", "--graph-dir", str(workspace / "enc"),
                 "--token-dir", str(workspace / "tok"), "--out-dir", str(workspace / "res"),
                 "--session-seed", SES_SEED]) == 0
    err = capsys.readouterr().err
    for i in (1, 2, 3):
        tag = f"[party-{i}] "
        (total,) = re.findall(re.escape(tag) + r"sent (\d+) bytes in (\d+) frames$", err,
                              re.MULTILINE)
        phases = re.findall(re.escape(tag) + r"  (\w+): (\d+) bytes in (\d+) frames, ([\d.]+) s",
                            err)
        assert [name for name, *_ in phases] == ["secEval", "secFetch", "secAccess"]
        assert [sum(int(ph[k]) for ph in phases) for k in (1, 2)] == [int(n) for n in total]
        assert all(float(sec) > 0 for *_, sec in phases)


def test_query_writes_each_stderr_line_in_one_call(workspace, monkeypatch):
    # the three party threads print progress at once: a line written as its
    # text and then its newline can run into another party's line
    run_pipeline(workspace)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stderr", Recorder())
    assert main(["query", "--graph-dir", str(workspace / "enc"),
                 "--token-dir", str(workspace / "tok"), "--out-dir", str(workspace / "res"),
                 "--session-seed", SES_SEED]) == 0
    monkeypatch.undo()
    assert {w[:9] for w in writes if " slot " in w} == {"[party-1]", "[party-2]", "[party-3]"}
    assert all(w.startswith("[party-") and w.index("\n") == len(w) - 1 for w in writes)


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


def test_query_tcp_mode_with_a_damaged_token_exits_2_at_once(workspace, monkeypatch):
    run_pipeline(workspace)
    token = workspace / "tok" / "token-2.ogmt"
    blob = token.read_bytes()
    token.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
    started = []
    popen = subprocess.Popen

    def record(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", record)
    began = time.monotonic()
    assert main(["query", "--graph-dir", str(workspace / "enc"),
                 "--token-dir", str(workspace / "tok"), "--out-dir", str(workspace / "x"),
                 "--mode", "tcp", "--ports", "19881,19882,19883",
                 "--session-seed", SES_SEED, "--quiet"]) == 2
    # the healthy parties are stopped, not left to their 30-s connect timeout
    assert time.monotonic() - began < 10
    assert len(started) == 3 and all(p.poll() is not None for p in started)


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
    # a truncation, a flipped schema digest bit, a flipped key bit, a flipped checksum bit
    for damaged in (blob[:20], blob[:12] + bytes([blob[12] ^ 1]) + blob[13:],
                    blob[:-100] + bytes([blob[-100] ^ 4]) + blob[-99:],
                    blob[:-1] + bytes([blob[-1] ^ 128])):
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


def test_result_manifest_not_matching_its_records_exits_2(workspace, capsys):
    run_pipeline(workspace)
    path = workspace / "res" / "results-1.ogmr"
    good = path.read_bytes()

    def root_with_parent(doc):
        doc["parent_records"][0][0] = 0

    def extra_key(doc):
        doc["note"] = 1

    for edit, message in ((root_with_parent, "slot 0"),
                          (old_result_layout, "keys are not exactly"),
                          (extra_key, "keys are not exactly")):
        path.write_bytes(good)
        rewrite_manifest(path, edit)
        capsys.readouterr()
        assert main(["open", "--results", str(path), str(workspace / "res" / "results-2.ogmr"),
                     "--schema", str(workspace / "enc" / "schema.json")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("doc", ['{"k":2,"types":[]}', "[1,2]", '{"k":2}', "{", "\xff"])
def test_malformed_schema_exits_2(workspace, capsys, doc):
    run_pipeline(workspace)
    schema = workspace / "bad-schema.json"
    schema.write_bytes(doc.encode("latin-1"))
    capsys.readouterr()
    assert main(["tokenize", "--query", str(workspace / "two.query"), "--schema", str(schema),
                 "--out-dir", str(workspace / "tok2"), "--seed", TOK_SEED]) == 2
    assert main(["open", "--results", str(workspace / "res" / "results-1.ogmr"),
                 str(workspace / "res" / "results-2.ogmr"), "--schema", str(schema)]) == 2
    assert capsys.readouterr().err.count("is not a graph schema") == 2


def test_serve_refuses_another_partys_graph_share(workspace, capsys):
    run_pipeline(workspace)
    capsys.readouterr()
    assert main(["serve", "--party", "2",
                 "--schema", str(workspace / "enc" / "schema.json"),
                 "--graph-share", str(workspace / "enc" / "graph-share-1.ogmg"),
                 "--token", str(workspace / "tok" / "token-2.ogmt"),
                 "--out", str(workspace / "never.ogmr"),
                 "--bind", "127.0.0.1:19873", "--peers", "1=127.0.0.1:9,3=127.0.0.1:9",
                 "--session-seed", SES_SEED]) == 2
    assert "graph share of party 1" in capsys.readouterr().err


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


def test_bench_kernels_prints_best_times(capsys):
    assert main(["bench", "--seed", "1234567890abcdef1234567890abcdef"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "# kernel\tshape\tbest_ms"
    rows = [line.split("\t") for line in lines[2:]]
    assert {name for name, _, _ in rows} == {"prf_stream", "seeded_permutation", "prg_expand",
                                             "select_many", "select_one", "code_map",
                                             "translate_rows", "gate", "assemble",
                                             "key_pairs_gen", "full_domain_eval"}
    assert all(float(ms) > 0 for _, _, ms in rows)


def test_bench_cut_short_by_a_closed_pipe_exits_1_without_a_traceback():
    # unbuffered, each row is its own write, so the one after the reader
    # closes the pipe fails; buffered, all rows would go out in one write at exit
    proc = subprocess.Popen([sys.executable, "-m", "oblivgm.cli", "bench", "--seed", "12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONUNBUFFERED": "1"})
    assert proc.stdout.readline().startswith(b"#")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


def test_each_subcommand_has_exactly_its_documented_options():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: {opt for action in parser._actions for opt in action.option_strings}
           - {"-h", "--help"} for name, parser in sub.choices.items()}
    assert got == {
        "encrypt": {"--graph", "--k", "--out-dir", "--seed"},
        "tokenize": {"--query", "--schema", "--out-dir", "--seed"},
        "serve": {"--party", "--schema", "--graph-share", "--token", "--out", "--bind", "--peers",
                  "--session-seed", "--quiet", "--connect-timeout"},
        "query": {"--graph-dir", "--token-dir", "--out-dir", "--mode", "--ports",
                  "--session-seed", "--quiet"},
        "open": {"--results", "--schema", "--verbose"},
        "oracle": {"--graph", "--query"},
        "bench": {"--seed"},
    }


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
    # older result and graph share files: both are at version 4
    for version in (1, 2, 3):
        for path in (res / "results-1.ogmr", enc / "graph-share-1.ogmg"):
            data = bytearray(path.read_bytes())
            data[4:6] = version.to_bytes(2, "little")
            path.write_bytes(bytes(data))
        assert main(["open", "--results", str(res / "results-1.ogmr"),
                     str(res / "results-2.ogmr"), "--schema", schema_path]) == 2
        assert f"result file version {version} (expected 4)" in capsys.readouterr().err
        assert main(["query", "--graph-dir", str(enc), "--token-dir", str(workspace / "tok"),
                     "--out-dir", str(workspace / "res-old"), "--session-seed", SES_SEED,
                     "--quiet"]) == 2
        assert f"graph share version {version} (expected 4)" in capsys.readouterr().err


def test_flipped_graph_share_payload_byte_exits_2(workspace, capsys):
    run_pipeline(workspace)
    path = workspace / "enc" / "graph-share-2.ogmg"
    data = bytearray(path.read_bytes())
    data[39] ^= 1  # the first byte after the container header
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["query", "--graph-dir", str(workspace / "enc"),
                 "--token-dir", str(workspace / "tok"), "--out-dir", str(workspace / "x"),
                 "--session-seed", SES_SEED, "--quiet"]) == 2
    assert "SHA-256" in capsys.readouterr().err


def test_serve_needs_session_seed(workspace, capsys):
    # a seed drawn per process would give the three parties mismatched keys
    run_pipeline(workspace)
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--party", "3",
              "--schema", str(workspace / "enc" / "schema.json"),
              "--graph-share", str(workspace / "enc" / "graph-share-3.ogmg"),
              "--token", str(workspace / "tok" / "token-3.ogmt"),
              "--out", str(workspace / "never.ogmr"),
              "--bind", "127.0.0.1:19874", "--peers", "1=127.0.0.1:9,2=127.0.0.1:9"])
    assert exc.value.code == 2
    assert "--session-seed" in capsys.readouterr().err
