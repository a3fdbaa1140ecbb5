"""Fixed-seed transcript digests and leakage ledgers, pinned per query.

Each party's transcript hashes every frame it sends and receives, so an equal
digest means every message on every link is byte-identical. A change that
moves share plumbing, re-sharing, labels or permutations around must leave
these four queries' digests exactly as they are.

The ledger pin is the stronger promise: every value a query opens, with its
label and phase. A change of share encoding or field widths moves the
digests, but must leave every party's ledger exactly as pinned here.
"""

import pytest

from tests.conftest import CAMPUS_GRAPH, TWO_PERSON_QUERY, run_secure_query

REPEATED_CATEGORICAL = """
V S s1 city=harbin
V S s2 city=beijing
V S s3 city=harbin
V S s4 city=harbin
V T t1 tier=gold
V T t2 tier=gold
E s1 t1
E s3 t1
E s4 t2
E s2 t2
"""

PINNED = [
    pytest.param(
        CAMPUS_GRAPH, TWO_PERSON_QUERY,
        ("4414dadadf719119be109241681c653b376799f8225993cfc94d0e3e2a09e03b",
         "72574b0318f1fccdc2bb8002bd72cd8189e57c1baacb9f1c19ba3d4b107a34dd",
         "975b59f96e21d5f17e9766d382d97cd97a1d40d6347d3d1a9ef255a7fc21707e"),
        id="campus-two-person"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\nQE u p\nQE p c\n",
        ("03a833354822ae3b10e1282ff1b89e658c8f7909291fb4a7e6f1a40a99102e32",
         "fb07f8041cc549ccbdd471a9dbcccdbe6deb0e51d99ca36f0e9364ccab551817",
         "89a24a44a099d9eaa5c7a3a4092d590604823eb6430f66123e96a098761a814e"),
        id="unique-chain"),
    pytest.param(
        REPEATED_CATEGORICAL, "Q a S city = harbin\nQ b T tier = gold\nQE a b\n",
        ("549f618166589649fab385745003dcc6f74efcd81b4a8a92b6a3b951f02c16da",
         "e4b9073c4c991b1a6b7141369366b065d7310cea0eecc3e14c9c5409806ad5f7",
         "2045a4ea8318c2cd070a3ab0a30a48e58dc57a182da7f0be6c4e893865c9a9ac"),
        id="repeated-categorical"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\nQE u p\nQE p q\n",
        ("b18827bac301821b1d88d46a2d9194047c3b272bb9dcbf87047989d8f81d7206",
         "7c1b11826dfcfe37e928874e8d36470944be38826fdbd4d2376720f8604e8f1c",
         "a5bf17d70142183d827e12d36fd1a8b5d3082eb8e21fec442f2b848828b79f01"),
        id="two-group"),
]


@pytest.mark.parametrize("graph_text,query_text,digests", PINNED)
def test_fixed_seed_transcripts_are_pinned(graph_text, query_text, digests):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    assert tuple(rt.transcript_digest() for rt in res["runtimes"]) == digests


# per query: (label, phase, length in bits, packed words as hex) of every open
LEDGERS = {
    "campus-two-person": [(1, "secAccess", 3, "07000000"), (2, "secAccess", 3, "07000000"),
                          (3, "secFetch", 3, "07000000"), (4, "secAccess", 3, "07000000"),
                          (5, "secFetch", 3, "07000000"), (6, "secAccess", 3, "07000000")],
    "unique-chain": [(1, "secAccess", 3, "07000000"), (2, "secAccess", 1, "01000000")],
    "repeated-categorical": [(1, "secFetch", 4, "07000000"), (2, "secAccess", 3, "07000000"),
                             (3, "secFetch", 3, "07000000")],
    "two-group": [(1, "secAccess", 3, "07000000"), (2, "secFetch", 3, "07000000"),
                  (3, "secAccess", 3, "03000000"), (4, "secFetch", 2, "03000000")],
}


@pytest.mark.parametrize("graph_text,query_text,ledger", [
    pytest.param(p.values[0], p.values[1], LEDGERS[p.id], id=p.id) for p in PINNED])
def test_fixed_seed_ledgers_are_pinned(graph_text, query_text, ledger):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    for rt in res["runtimes"]:
        got = [(e.label, e.phase, e.bits.logical_len, e.bits.words.tobytes().hex())
               for e in rt.opened]
        assert got == ledger
