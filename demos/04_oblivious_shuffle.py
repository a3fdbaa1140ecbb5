"""Oblivious table shuffle: the permutation hides from every single party.

Each pair of parties shares one permutation seed; the realized order is the
composition of all three. Party 1 never receives a message at all, and no
party knows more than two of the three component permutations.
"""

import numpy as np

from oblivgm import rss
from oblivgm.net import make_session_configs, local_runtimes, run_trio
from oblivgm.shuffle import MatchTable, sec_shuffle, simulate_shuffle

rng = np.random.default_rng(99)
rows = np.array([[11], [22], [33], [44], [55], [66]], np.uint32)  # one 16-bit row each
row_shares = [rss.share_rows(r[None], 16, rng) for r in rows]

master = b"shuffle-demo-042"
configs = make_session_configs(master)


def worker(rt):
    table = MatchTable.from_rows([row_shares[i][rt.index - 1] for i in range(len(rows))])
    return sec_shuffle(rt, table)


outputs = run_trio(worker, local_runtimes(configs))
print("input order:   ", rows[:, 0].tolist())
print("shuffled order:", rss.reconstruct_rows(outputs)[:, 0].tolist())

expected = simulate_shuffle(configs[0].seed_with_next, configs[1].seed_with_next,
                            configs[2].seed_with_next, 0, rows)
print("simulator says:", expected[:, 0].tolist(), "(needs all three seeds)")

other = run_trio(worker, local_runtimes(make_session_configs(b"different-seeds!")))
print("fresh seeds:   ", rss.reconstruct_rows(other)[:, 0].tolist())
