"""Acceptance criteria, one test per criterion, summarized after the run.

Each test measures what it claims (set equality, exact byte ratios, wall
clock) and records a PASS/FAIL line printed in the terminal summary.
"""

import time

import numpy as np
import pytest

from oblivgm import fss, rss
from oblivgm.bits import unpack_bits
from oblivgm.cli import main
from oblivgm.datagen import graph_to_text, random_graph, random_query_text
from oblivgm.engine import open_results, sec_match
from oblivgm.graphs import build_schema, encrypt_graph, parse_graph_text
from oblivgm.net import local_runtimes, make_session_configs, run_trio
from oblivgm.oracle import oracle_match, predicate_holds
from oblivgm.query import gen_token, load_query
from oblivgm.shuffle import MatchTable, composed_permutation, sec_shuffle
from oblivgm.storage import save_token
from tests._acceptance_log import record as record_acceptance
from tests.conftest import CAMPUS_GRAPH, TWO_PERSON_QUERY, plain_bits, run_secure_query, share_bits


def test_criterion_01_oracle_equivalence_on_random_corpus():
    """>=50 random graph/query pairs: secure results equal the oracle's exactly."""
    started = time.perf_counter()
    pairs = 0
    nonempty = 0
    total_matches = 0
    for trial in range(50):
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(100, 301))
        n_types = int(rng.integers(2, 4))
        graph = random_graph(rng, n_vertices=n, n_types=n_types, attrs_per_type=2,
                             dict_size_range=(16, 256), avg_degree=6.0)
        schema = build_schema(graph, 2)
        targets = int(rng.integers(2, 6))
        qtext = random_query_text(rng, schema, n_targets=targets,
                                  kinds=("eq", "lt", "iv", "iv"))
        query = load_query(qtext, schema)
        want = oracle_match(graph, query, schema)
        got = run_secure_query(None, qtext, graph=graph, seed=trial,
                               master=bytes([trial % 256]) * 16)
        assert got["matches"] == want, f"trial {trial} diverged"
        pairs += 1
        nonempty += bool(want)
        total_matches += len(want)
    elapsed = time.perf_counter() - started
    ok = pairs >= 50 and elapsed < 600 and nonempty >= 15
    record_acceptance(1, ok, f"{pairs} random pairs equal the oracle "
                             f"({total_matches} matches, {nonempty} non-empty) "
                             f"in {elapsed:.0f}s (< 600s)")
    assert ok


def test_criterion_02_scenario_through_cli(tmp_path, capsys):
    """The worked two-person scenario yields exactly its two subgraphs via the CLI."""
    (tmp_path / "g.graph").write_text(CAMPUS_GRAPH)
    (tmp_path / "q.query").write_text(TWO_PERSON_QUERY)
    assert main(["encrypt", "--graph", str(tmp_path / "g.graph"), "--k", "2",
                 "--out-dir", str(tmp_path / "enc"),
                 "--seed", "11" * 16]) == 0
    assert main(["tokenize", "--query", str(tmp_path / "q.query"),
                 "--schema", str(tmp_path / "enc" / "schema.json"),
                 "--out-dir", str(tmp_path / "tok"), "--seed", "22" * 16]) == 0
    assert main(["query", "--graph-dir", str(tmp_path / "enc"),
                 "--token-dir", str(tmp_path / "tok"),
                 "--out-dir", str(tmp_path / "res"),
                 "--session-seed", "33" * 16, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["open", "--results", str(tmp_path / "res" / "results-1.ogmr"),
                 str(tmp_path / "res" / "results-2.ogmr"),
                 "--schema", str(tmp_path / "enc" / "schema.json")]) == 0
    got = capsys.readouterr().out.strip().splitlines()
    want = ["u1 p1 p3 c1 c2", "u1 p2 p3 c1 c2"]
    ok = got == want
    record_acceptance(2, ok, "CLI pipeline reproduces the two scenario subgraphs")
    assert ok, got


def test_criterion_03_fss_exhaustive_correctness():
    """Full-domain checks for every key family, 100 random parameter sets each."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    failures = 0
    checked = 0

    def check(pair, n, want):
        nonlocal failures, checked
        got = fss.full_domain_eval(pair[0], n) ^ fss.full_domain_eval(pair[1], n)
        checked += 1
        if not np.array_equal(got, want.astype(np.uint8)):
            failures += 1

    for _ in range(100):
        n = int(rng.integers(2, 4097))
        xs = np.arange(n)
        alpha = int(rng.integers(0, n))
        check(fss.key_pair_gen(fss.KIND_EQ, (alpha,), n, rng), n, xs == alpha)
        for kind, op in (("lt", np.less), ("le", np.less_equal),
                         ("gt", np.greater), ("ge", np.greater_equal)):
            a = int(rng.integers(0, n))
            check(fss.key_pair_gen(kind, (a,), n, rng), n, op(xs, a))
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n))
        check(fss.key_pair_gen(fss.KIND_INTERVAL, (lo, hi), n, rng), n, (xs >= lo) & (xs <= hi))
    elapsed = time.perf_counter() - started
    ok = failures == 0 and checked == 600 and elapsed < 120
    record_acceptance(3, ok, f"{checked} full-domain key checks, {failures} failures, "
                             f"{elapsed:.0f}s (< 120s)")
    assert ok


def test_criterion_04_rss_gates_at_scale():
    """10^4 AND vectors reconstruct to plaintext AND; 10^4 zero-sharings cancel."""
    rng = np.random.default_rng(11)
    batch, width, rounds = 100, 64, 100  # 10^4 vectors in 100 batched invocations
    xs = rng.integers(0, 2, (rounds, batch * width), dtype=np.uint8)
    ys = rng.integers(0, 2, (rounds, batch * width), dtype=np.uint8)
    sx = [share_bits(x, rng) for x in xs]
    sy = [share_bits(y, rng) for y in ys]

    def worker(rt):
        return [rss.and_gate(rt, sx[r][rt.index - 1], sy[r][rt.index - 1])
                for r in range(rounds)]

    outs = run_trio(worker, local_runtimes(make_session_configs(b"\x44" * 16)))
    bad = 0
    for r in range(rounds):
        got = plain_bits([outs[p][r] for p in range(3)])
        want = xs[r] & ys[r]
        got_v = got.reshape(batch, width)
        want_v = want.reshape(batch, width)
        bad += int((got_v != want_v).any(axis=1).sum())

    keys = [bytes([i + 9]) * 16 for i in range(3)]
    ctxs = [rss.ZeroShareContext(keys[0], keys[2]),
            rss.ZeroShareContext(keys[1], keys[0]),
            rss.ZeroShareContext(keys[2], keys[1])]
    zero_bad = 0
    for _ in range(10_000):
        a, b, c = (ctx.next_share(64) for ctx in ctxs)
        if (a ^ b ^ c).any():
            zero_bad += 1
    ok = bad == 0 and zero_bad == 0
    record_acceptance(4, ok, f"10^4 AND vectors ({bad} bad) and 10^4 zero-sharings "
                             f"({zero_bad} bad)")
    assert ok


def test_criterion_05_shuffle_exhaustive_sizes():
    """Sizes 1..64: multiset preserved and equal to the seeded simulator's order."""
    rng = np.random.default_rng(12)
    master = b"\x55" * 16
    configs = make_session_configs(master)
    s12, s23, s31 = (configs[0].seed_with_next, configs[1].seed_with_next,
                     configs[2].seed_with_next)
    bad = 0
    for size in range(1, 65):
        rows = rng.integers(0, 2, (size, 40), dtype=np.uint8)
        shares = [share_bits(r, rng) for r in rows]

        def worker(rt):
            return sec_shuffle(rt, MatchTable.from_rows(
                [shares[i][rt.index - 1] for i in range(size)]))

        outs = run_trio(worker, local_runtimes(make_session_configs(master)))
        got = unpack_bits(rss.reconstruct_rows(outs), 40)
        want = rows[composed_permutation(s12, s23, s31, 0, size)]
        if not np.array_equal(got, want) or sorted(got.tolist()) != sorted(rows.tolist()):
            bad += 1
    # distinct seeds produce a different order (8 distinct rows)
    rows = ((np.arange(1, 9)[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    orders = []
    for master2 in (b"\x56" * 16, b"\x57" * 16):
        shares = [share_bits(r, np.random.default_rng(1)) for r in rows]

        def worker(rt):
            return sec_shuffle(rt, MatchTable.from_rows(
                [shares[i][rt.index - 1] for i in range(8)]))

        outs = run_trio(worker, local_runtimes(make_session_configs(master2)))
        orders.append(tuple(rss.reconstruct_rows(outs)[:, 0].tolist()))
    diverged = orders[0] != orders[1]
    ok = bad == 0 and diverged
    record_acceptance(5, ok, f"table sizes 1..64 exhaustive ({bad} bad), "
                             f"seed divergence {'observed' if diverged else 'missing'}")
    assert ok


def test_criterion_06_k_automorphism_and_monotone_ciphertext(tmp_path):
    """Padding gives k-1 degree twins; ciphertext size never shrinks as k grows."""
    rng = np.random.default_rng(13)
    graph = random_graph(rng, n_vertices=120, n_types=3, avg_degree=4.0)
    (tmp_path / "g.graph").write_text(graph_to_text(graph))
    sizes = []
    twin_ok = True
    for k in (2, 4, 6):
        schema = build_schema(graph, k)
        for ts in schema.types.values():
            profiles = [tuple(ts.padded_len[t][v] for t in ts.posting_types)
                        for v in range(ts.population)]
            counts = {}
            for p in profiles:
                counts[p] = counts.get(p, 0) + 1
            if any(c < k for c in counts.values()):
                twin_ok = False
        out = tmp_path / f"enc-k{k}"
        assert main(["encrypt", "--graph", str(tmp_path / "g.graph"), "--k", str(k),
                     "--out-dir", str(out), "--seed", "ab" * 16]) == 0
        sizes.append(sum((out / f"graph-share-{i}.ogmg").stat().st_size
                         for i in (1, 2, 3)))
    monotone = sizes[0] <= sizes[1] <= sizes[2]
    ok = twin_ok and monotone
    record_acceptance(6, ok, f"degree twins for k=2,4,6 and ciphertext sizes "
                             f"{sizes} non-decreasing")
    assert ok


def _wide_schema():
    from oblivgm.graphs import AttributedGraph

    g = AttributedGraph()
    for i in range(4096):
        g.add_vertex("N", f"n{i}", {"age": str(i)})
    for i in range(64):
        g.add_vertex("M", f"m{i}", {"grade": str(i)})
        g.add_edge(f"m{i}", f"n{i}")
    return build_schema(g, 2)


def test_criterion_07_token_size_ratios(tmp_path):
    """Interval tokens about twice equality tokens; single-sided equals equality."""
    schema = _wide_schema()
    rng = np.random.default_rng(14)
    q_eq = load_query("Q a N age = 35\nQ b M grade = 40\nQE a b\n", schema)
    q_lt = load_query("Q a N age < 35\nQ b M grade < 40\nQE a b\n", schema)
    q_iv = load_query("Q a N age in 31 35\nQ b M grade in 35 40\nQE a b\n", schema)
    sizes = {}
    for name, q in (("eq", q_eq), ("lt", q_lt), ("iv", q_iv)):
        path = tmp_path / f"{name}.ogmt"
        save_token(path, gen_token(q, schema, rng)[0])
        sizes[name] = path.stat().st_size
    ratio = sizes["iv"] / sizes["eq"]
    ok = sizes["eq"] == sizes["lt"] and 1.7 <= ratio <= 2.3
    record_acceptance(7, ok, f"token bytes eq={sizes['eq']} lt={sizes['lt']} "
                             f"iv={sizes['iv']} (ratio {ratio:.2f} in [1.7, 2.3])")
    assert ok


def test_criterion_08_interval_eval_communication_equals_equality():
    """Bytes on the wire during predicate evaluation: interval = equality = less-than.

    An interval key is evaluated in one pass (its two comparison halves XOR
    locally), so it re-shares one bit per candidate, like the others.
    """
    rng = np.random.default_rng(15)
    graph = random_graph(rng, n_vertices=150, n_types=2, avg_degree=4.0)
    schema, shares = encrypt_graph(graph, 2, rng)
    vtype = sorted(schema.types)[0]
    attr = sorted(schema.types[vtype].attrs)[0]
    values = schema.types[vtype].attrs[attr].values
    mid = values[len(values) // 2]
    queries = {
        "eq": f"Q s0 {vtype} {attr} = {mid}\n",
        "lt": f"Q s0 {vtype} {attr} < {mid}\n",
        "iv": f"Q s0 {vtype} {attr} in {values[2]} {mid}\n",
    }
    phase_bytes = {}
    for name, qtext in queries.items():
        query = load_query(qtext, schema)
        tokens = gen_token(query, schema, rng)
        runtimes = local_runtimes(make_session_configs(b"\x66" * 16))

        def worker(rt):
            return sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1])

        run_trio(worker, runtimes)
        per_party = {rt.index: rt.meter.phases["secEval"].bytes_sent for rt in runtimes}
        assert len(set(per_party.values())) == 1  # symmetric roles
        phase_bytes[name] = per_party[1]
    ok = phase_bytes["iv"] == phase_bytes["eq"] == phase_bytes["lt"]
    record_acceptance(8, ok, f"secEval bytes eq={phase_bytes['eq']} lt={phase_bytes['lt']} "
                             f"iv={phase_bytes['iv']} (exactly equal)")
    assert ok


def test_criterion_09_pattern_shape(tmp_path):
    """Re-running a query: fresh tokens differ, opened positions move, masks match."""
    rng = np.random.default_rng(16)
    graph = random_graph(rng, n_vertices=150, n_types=2, avg_degree=4.0)
    schema, shares = encrypt_graph(graph, 2, rng)
    vtype = sorted(schema.types)[0]
    attr = sorted(schema.types[vtype].attrs)[0]
    aschema = schema.types[vtype].attrs[attr]
    lo, hi = aschema.values[2], aschema.values[2 * len(aschema.values) // 3]
    qtext = f"Q s0 {vtype} {attr} in {lo} {hi}\n"
    query = load_query(qtext, schema)

    # the plaintext mask over the root candidates, from the reference matcher
    pred = query.vertices[0].predicates[0]
    mask = sorted(
        int(predicate_holds(pred, aschema.index_of[graph.vertices[gi].attrs[attr]]))
        for gi in graph.type_members[vtype]
    )

    token_blobs = []
    opened_runs = []
    match_runs = []
    for session in (b"\x71" * 16, b"\x72" * 16):
        tokens = gen_token(query, schema, np.random.default_rng(int(session[0])))
        path = tmp_path / f"{session[0]}.ogmt"
        save_token(path, tokens[0])
        token_blobs.append(path.read_bytes())
        runtimes = local_runtimes(make_session_configs(session))

        def worker(rt):
            return sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1])

        results = run_trio(worker, runtimes)
        opened = runtimes[0].opened
        assert len(opened) == 1  # single fetch for the single slot
        opened_runs.append(opened[0].bits)
        matches, _ = open_results(results[:2], schema)
        match_runs.append(set(matches))

    tokens_differ = token_blobs[0] != token_blobs[1]
    same_results = match_runs[0] == match_runs[1] and match_runs[0]
    masks_match = (sorted(opened_runs[0].tolist()) == mask
                   and sorted(opened_runs[1].tolist()) == mask)
    positions_differ = opened_runs[0].tolist() != opened_runs[1].tolist()
    ok = bool(tokens_differ and same_results and masks_match and positions_differ)
    record_acceptance(9, ok, f"fresh seeds: tokens differ={tokens_differ}, opened "
                             f"positions differ={positions_differ}, mask multiset "
                             f"matches plaintext={masks_match}")
    assert ok


def test_criterion_10_desk_scale_latency():
    """A 2-hop, 4-target query over a 5000-vertex encrypted graph in under 60s."""
    rng = np.random.default_rng(17)
    graph = random_graph(rng, n_vertices=5000, n_types=3, attrs_per_type=2,
                         dict_size_range=(64, 256), avg_degree=6.0)
    schema, shares = encrypt_graph(graph, 2, rng)
    # build the 2-hop tree by hand: root A -> (B, C), B -> third level
    t_a = sorted(schema.types)[0]
    t_b = schema.types[t_a].posting_types[0]
    t_c = schema.types[t_b].posting_types[0]
    t_d = schema.types[t_a].posting_types[-1]

    def narrow(vt):  # select roughly 10% at the root
        a = sorted(schema.types[vt].attrs)[0]
        vals = schema.types[vt].attrs[a].values
        return f"{a} in {vals[0]} {vals[max(1, len(vals) // 10)]}"

    def wide(vt):  # let most children through
        a = sorted(schema.types[vt].attrs)[0]
        vals = schema.types[vt].attrs[a].values
        return f"{a} >= {vals[len(vals) // 5]}"

    qtext = (f"Q s0 {t_a} {narrow(t_a)}\n"
             f"Q s1 {t_b} {wide(t_b)}\n"
             f"Q s2 {t_d} {wide(t_d)}\n"
             f"Q s3 {t_c} {wide(t_c)}\n"
             "QE s0 s1\nQE s0 s2\nQE s1 s3\n")
    query = load_query(qtext, schema)
    tokens = gen_token(query, schema, rng)
    runtimes = local_runtimes(make_session_configs(b"\x77" * 16))

    def worker(rt):
        return sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1])

    started = time.perf_counter()
    results = run_trio(worker, runtimes)
    elapsed = time.perf_counter() - started
    matches, _ = open_results(results[:2], schema)
    want = oracle_match(graph, query, schema)
    ok = elapsed < 60 and set(matches) == want
    record_acceptance(10, ok, f"5000-vertex 2-hop |q|=4 query in {elapsed:.1f}s "
                              f"(< 60s), {len(want)} matches, oracle-equal")
    assert ok
