"""Encrypting an attributed graph: one-hot encoding, degree padding, sharing.

Attribute values become one-hot vectors over public dictionaries, and each
posting entry becomes its neighbor's id code (c + 1 for vertex c, 0 for a
dummy); both get secret-shared. Posting lists are first padded inside
groups of k same-type vertices so group members show identical per-type
degrees; a server sees only the padded lengths, never which entries are real.
"""

from pathlib import Path

import numpy as np

from oblivgm import rss
from oblivgm.bits import unpack_bits
from oblivgm.graphs import build_schema, encrypt_graph, parse_graph_text

text = Path(__file__).with_name("data").joinpath("campus.graph").read_text()
graph = parse_graph_text(text)
print(f"plaintext: {len(graph.vertices)} vertices, {graph.edge_count} edges")

schema = build_schema(graph, k=2)
for vtype in sorted(schema.types):
    ts = schema.types[vtype]
    print(f"  type {vtype}: population {ts.population}, groups {[len(g) for g in ts.groups]}, "
          f"padded degrees {ts.padded_len}")

rng = np.random.default_rng(5)
schema, shares = encrypt_graph(graph, 2, rng)

# one party's share of the person ages, one table row per person: uniform noise
age_table = shares[0].types["P"].attrs["age"]
print("party 1's view of P.age:", [hex(int(w)) for w in age_table.share_a[:, 0]])

# two parties together reconstruct the one-hot rows exactly
plain = rss.reconstruct_rows([gs.types["P"].attrs["age"] for gs in shares[:2]])
ages = schema.types["P"].attrs["age"]
bits = unpack_bits(plain, ages.domain_size)
for row, ext in zip(bits, schema.types["P"].ext_ids):
    print(f"  {ext}: {''.join(map(str, row))}  -> age {ages.values[int(np.argmax(row))]}")

# a posting list reconstructs to id codes: neighbor c is c + 1, a padding entry 0
ts = schema.types["U"]
l_max = ts.max_padded("P")
codes = rss.reconstruct_rows([gs.types["U"].posting["P"] for gs in shares[1:]])[:, 0]
people = [None] + schema.types["P"].ext_ids  # indexed by code
for v, ext in enumerate(ts.ext_ids):
    row = codes[v * l_max:(v + 1) * l_max].tolist()
    print(f"  {ext} -> P codes {row}: {[people[c] for c in row if c]}")
