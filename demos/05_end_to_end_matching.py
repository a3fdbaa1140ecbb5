"""The whole pipeline in one script: encrypt, tokenize, match, open, compare.

The query asks for two people aged 30-40 who graduated from a university in
Harbin, one working at a software company and one at an Internet company.
The three servers jointly evaluate it over the encrypted graph, each printing
a line per query slot as it goes; merging two servers' result shares yields
exactly the subgraphs the plaintext reference matcher finds.
"""

import sys
from pathlib import Path

import numpy as np

from oblivgm.engine import open_results, sec_match
from oblivgm.graphs import encrypt_graph, parse_graph_text
from oblivgm.net import local_runtimes, make_session_configs, run_trio
from oblivgm.oracle import oracle_match
from oblivgm.query import gen_token, load_query

data = Path(__file__).with_name("data")
graph = parse_graph_text((data / "campus.graph").read_text())
rng = np.random.default_rng(123)

schema, shares = encrypt_graph(graph, k=2, rng=rng)
query = load_query((data / "two-person.query").read_text(), schema)
tokens = gen_token(query, schema, rng)
print("query slots:", [f"{v.name}:{v.vtype}" for v in query.vertices])


def say(line):
    sys.stdout.write(line + "\n")  # one write per line: three party threads print at once


def worker(rt):
    return sec_match(rt, tokens[rt.index - 1], shares[rt.index - 1], progress=say)


runtimes = local_runtimes(make_session_configs(b"demo-05-session!"))
results = run_trio(worker, runtimes)

matches, details = open_results(results[:2], schema)
print("\nmatched subgraphs (slot order u, pa, pb, ca, cb):")
for ids, det in sorted(zip(matches, details)):
    pretty = ", ".join(f"{ext}[{' '.join(f'{k}={v}' for k, v in sorted(at.items()))}]"
                       for ext, at in det)
    print("  " + pretty)

reference = oracle_match(graph, query, schema)
print("\nplaintext reference finds the same set:", set(matches) == reference)
print("bytes sent per party:",
      {rt.index: rt.meter.total.bytes_sent for rt in runtimes})
