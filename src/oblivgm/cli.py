"""Operator command line.

Subcommands::

    encrypt   split a plaintext graph into three share files + public schema
    tokenize  turn a query into three per-party token files
    serve     run one party over TCP
    query     one-shot driver: run the trio and write result share files; local
              mode prints each party's bytes, frames and seconds per phase
    open      merge >=2 result share files into plaintext matches
    oracle    plaintext reference matcher on the same inputs
    bench     kernel timings

Exit codes: 0 success, 1 output cut short (stdout closed early, as by
``| head``), 2 validation error, 3 protocol error. All commands
are deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import secrets
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .engine import PHASES, check_token, open_results, sec_match
from .graphs import GraphFormatError, build_schema, encrypt_graph, parse_graph_text
from .net import (ProtocolError, local_runtimes, make_session_configs, parse_peers, run_trio,
                  tcp_runtime)
from .oracle import oracle_match
from .query import QueryFormatError, gen_token, load_query
from .storage import (StorageError, load_graph_share, load_results, load_schema, load_token,
                      save_graph_share, save_results, save_schema, save_token)

VALIDATION_ERRORS = (GraphFormatError, QueryFormatError, StorageError, ValueError,
                     FileNotFoundError, KeyError)


def _rng_from_seed(seed_hex: str) -> np.random.Generator:
    return np.random.default_rng(int.from_bytes(bytes.fromhex(seed_hex), "big"))


def _seed_arg(value: str) -> str:
    bytes.fromhex(value)  # validate early
    return value


def cmd_encrypt(args) -> int:
    text = Path(args.graph).read_text()
    graph = parse_graph_text(text)
    rng = _rng_from_seed(args.seed)
    schema, shares = encrypt_graph(graph, args.k, rng)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_schema(out / "schema.json", schema)
    total_dummy = 0
    for vtype in sorted(schema.types):
        ts = schema.types[vtype]
        true_lens = {
            t: [len(graph.posting_list(gi, t)) for gi in graph.type_members[vtype]]
            for t in ts.posting_types
        }
        dummy = sum(
            ts.padded_len[t][v] - true_lens[t][v]
            for t in ts.posting_types
            for v in range(ts.population)
        )
        total_dummy += dummy
        sizes = sorted(len(g) for g in ts.groups)
        print(f"type {vtype}: {ts.population} vertices, groups {sizes}, "
              f"{dummy} dummy posting entries")
    for gs in shares:
        save_graph_share(out / f"graph-share-{gs.party_index}.ogmg", gs)
    print(f"k={args.k}: {total_dummy} dummy entries total; wrote schema.json and "
          f"3 share files to {out}")
    return 0


def cmd_tokenize(args) -> int:
    schema = load_schema(args.schema)
    query = load_query(Path(args.query).read_text(), schema)
    rng = _rng_from_seed(args.seed)
    tokens = gen_token(query, schema, rng)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for tok in tokens:
        path = out / f"token-{tok.party_index}.ogmt"
        save_token(path, tok)
        print(f"{path.name}: {path.stat().st_size} bytes")
    return 0


def _say(msg: str) -> None:
    """Write one stderr line in one call, so the party threads' lines do not run together."""
    sys.stderr.write(f"{msg}\n")


def _progress_printer(quiet: bool):
    return None if quiet else _say


def _run_local_query(graph_dir: Path, token_dir: Path, out_dir: Path,
                     session_seed: str, quiet: bool) -> int:
    schema = load_schema(graph_dir / "schema.json")
    shares = {
        i: load_graph_share(graph_dir / f"graph-share-{i}.ogmg", schema)
        for i in (1, 2, 3)
    }
    tokens = {i: load_token(token_dir / f"token-{i}.ogmt", schema, i) for i in (1, 2, 3)}
    configs = make_session_configs(bytes.fromhex(session_seed))
    runtimes = local_runtimes(configs)

    def worker(rt):
        return sec_match(rt, tokens[rt.index], shares[rt.index], _progress_printer(quiet))

    results = run_trio(worker, runtimes)
    out_dir.mkdir(parents=True, exist_ok=True)
    for res in results:
        save_results(out_dir / f"results-{res.party_index}.ogmr", res, schema)
    if not quiet:
        for rt in runtimes:
            t = rt.meter.total
            _say(f"[party-{rt.index}] sent {t.bytes_sent} bytes in {t.frames_sent} frames")
            # in protocol order, not first use: a unique root's first mask frame,
            # metered as secAccess, goes out in the evaluation's round
            for name in sorted(rt.meter.phases,
                               key=lambda n: PHASES.index(n) if n in PHASES else len(PHASES)):
                st = rt.meter.phases[name]
                _say(f"[party-{rt.index}]   {name}: {st.bytes_sent} bytes in "
                     f"{st.frames_sent} frames, {st.seconds:.4f} s")
    print(f"wrote 3 result share files to {out_dir}")
    return 0


def cmd_serve(args) -> int:
    bind = args.bind or os.environ.get("OBLIVGM_BIND")
    peers_spec = args.peers or os.environ.get("OBLIVGM_PEERS", "")
    if not bind:
        raise QueryFormatError("no bind address (--bind or OBLIVGM_BIND)")
    peers = parse_peers(peers_spec)
    schema = load_schema(args.schema)
    gshare = load_graph_share(args.graph_share, schema)
    token = load_token(args.token, schema, args.party)
    check_token(token, gshare)  # before connecting: a damaged token or a wrong share fails fast
    base = make_session_configs(bytes.fromhex(args.session_seed))[args.party - 1]
    rt = tcp_runtime(replace(base, bind=bind, peers=peers), connect_timeout=args.connect_timeout)
    res = sec_match(rt, token, gshare, _progress_printer(args.quiet))
    save_results(args.out, res, schema)
    print(f"[party-{args.party}] wrote {args.out}")
    return 0


def cmd_query(args) -> int:
    graph_dir, token_dir, out_dir = Path(args.graph_dir), Path(args.token_dir), Path(args.out_dir)
    if args.mode == "local":
        return _run_local_query(graph_dir, token_dir, out_dir, args.session_seed, args.quiet)
    # tcp mode: three serve subprocesses on localhost
    ports = [int(p) for p in args.ports.split(",")]
    if len(ports) != 3:
        raise QueryFormatError("--ports needs three comma-separated ports")
    peers = ",".join(f"{i + 1}=127.0.0.1:{ports[i]}" for i in range(3))
    out_dir.mkdir(parents=True, exist_ok=True)
    procs = []
    for i in (1, 2, 3):
        cmd = [
            sys.executable, "-m", "oblivgm.cli", "serve",
            "--party", str(i),
            "--schema", str(graph_dir / "schema.json"),
            "--graph-share", str(graph_dir / f"graph-share-{i}.ogmg"),
            "--token", str(token_dir / f"token-{i}.ogmt"),
            "--out", str(out_dir / f"results-{i}.ogmr"),
            "--bind", f"127.0.0.1:{ports[i - 1]}",
            "--peers", peers,
            "--session-seed", args.session_seed,
        ]
        if args.quiet:
            cmd.append("--quiet")
        procs.append(subprocess.Popen(cmd))
    try:  # the first party to fail stops the others, before they sit out their timeouts
        while None in (codes := [p.poll() for p in procs]) and not any(codes):
            time.sleep(0.02)
    finally:
        for p in procs:
            p.terminate()  # a no-op on a party that has exited
        codes = [p.wait() for p in procs]
    if any(codes):
        message = f"party processes exited with {codes}"
        if 2 in codes:
            print(f"error: {message}", file=sys.stderr)
            return 2
        raise ProtocolError(message)
    print(f"wrote 3 result share files to {out_dir}")
    return 0


def _print_matches(matches) -> None:
    for row in sorted(matches):
        print(" ".join(row))


def cmd_open(args) -> int:
    schema = load_schema(args.schema)
    results = [load_results(p, schema) for p in args.results]
    matches, details = open_results(results, schema)
    if args.verbose:
        for ids, det in sorted(zip(matches, details)):
            rendered = " ".join(
                f"{ext}({','.join(f'{k}={v}' for k, v in sorted(attrs.items()))})"
                for ext, attrs in det
            )
            print(rendered)
    else:
        _print_matches(matches)
    return 0


def cmd_oracle(args) -> int:
    graph = parse_graph_text(Path(args.graph).read_text())
    schema = build_schema(graph, 2)  # k only sets padding, which no match depends on
    query = load_query(Path(args.query).read_text(), schema)
    matches = oracle_match(graph, query, schema)
    _print_matches(matches)
    return 0


def cmd_bench(args) -> int:
    from .bench import run_kernels

    run_kernels(args.seed)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oblivgm", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt", help="encrypt a plaintext graph into three shares")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_seed_arg, default=None)
    p.set_defaults(fn=cmd_encrypt)

    p = sub.add_parser("tokenize", help="generate per-party query tokens")
    p.add_argument("--query", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_seed_arg, default=None)
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("serve", help="run one party over TCP")
    p.add_argument("--party", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--graph-share", required=True)
    p.add_argument("--token", required=True)
    p.add_argument("--out", default="results.ogmr")
    p.add_argument("--bind")
    p.add_argument("--peers")
    # the three parties' zero-share keys and shuffle seeds all derive from it
    p.add_argument("--session-seed", type=_seed_arg, required=True)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--connect-timeout", type=float, default=30.0)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("query", help="run a query end to end across the trio")
    p.add_argument("--graph-dir", required=True)
    p.add_argument("--token-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mode", choices=("local", "tcp"), default="local")
    p.add_argument("--ports", default="19751,19752,19753")
    p.add_argument("--session-seed", type=_seed_arg, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("open", help="reconstruct plaintext matches from result shares")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_open)

    p = sub.add_parser("oracle", help="plaintext reference matcher")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("bench", help="best times of one party's hot kernels")
    p.add_argument("--seed", type=_seed_arg, default=None)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        args.seed = secrets.token_hex(16)
    if hasattr(args, "session_seed") and args.session_seed is None:
        args.session_seed = secrets.token_hex(16)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone: point it at devnull, so the final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 3
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
