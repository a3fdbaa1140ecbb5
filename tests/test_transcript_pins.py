"""Fixed-seed transcript digests and leakage ledgers, pinned per query.

Each party's transcript hashes every frame it sends and receives, so an equal
digest means every message on every link is byte-identical. A change that
moves share plumbing, re-sharing, labels or permutations around must leave
these four queries' digests exactly as they are.

The ledger pin is the stronger promise: every value a query opens, with its
label, phase, slot and group segments. A change of share encoding or field
widths moves the digests, but must leave every party's ledger exactly as
pinned here; grouping the opens of one tree level into one message may only
merge labels. A protocol change that removes an open moves the ledger: its
entries leave, later labels count down, and the groups it used to trim may
reach the next open with their padding rows; gating a leaf below the root in
place of its shuffle removed its flags' entry. One that adds an open, such as
an access's masked codes, moves it the other way. A new shuffle permutation
moves the bit order inside each opened flag vector, but not its popcount
per segment; the access entries' bits are one-time pads of the codes, so
they move with any change of the pairwise pads or table ids.
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
        ("ff99ef3a04faf68bc51a6a55734eb0de337e413d7ba62e143e714c14138661cd",
         "6a9a03eca075228a072876e611de82ed9b4d4b6239405ed311a8fe1f84094b63",
         "b29164b5a01139630f4f0ab080be4e5586823e65d04681ede3e88bfe91e54838"),
        id="campus-two-person"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\nQE u p\nQE p c\n",
        ("b068244ff643c7ef5a87e924a1c10a8f27080eefe82a5aca9dc8f8eac19a7ae9",
         "12a3ccbaa859886900ff6681b19f8960886b2923357cc2a5f3c65800a3452324",
         "0da6b67a7ddb59d96d16439b8a9eb6798d87ceb74505d57b771fee04713cd3ab"),
        id="unique-chain"),
    pytest.param(
        REPEATED_CATEGORICAL, "Q a S city = harbin\nQ b T tier = gold\nQE a b\n",
        ("8199d2a525cadb46113f3fad87e784952293ee9c5ae8109852033396e9267b3e",
         "95e7540024b1ab99dc65325e4d65612f66ac3f2ffedd06ac80b8428ecfc74548",
         "96b4c9f887c1fe1a21606e7a23679330c7905481a79fea359b9c9131b8471d01"),
        id="repeated-categorical"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\nQE u p\nQE p q\n",
        ("c34138e8d9af6d8392a7382a86b07e5f91bbb4bfe7367e6832e7c3ea23e07323",
         "34cd9406596a7ac048a74e88173ed1b89bd569fcd0029933b731c936813b7158",
         "d97c81a3e27c2abe7508071e1fb0fd4db5d73222886f205c08e90c4cc993fddc"),
        id="two-group"),
]


@pytest.mark.parametrize("graph_text,query_text,digests", PINNED)
def test_fixed_seed_transcripts_are_pinned(graph_text, query_text, digests):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    assert tuple(rt.transcript_digest() for rt in res["runtimes"]) == digests


# per query: (label, phase, slot, segments, length in bits, packed words as hex) of every
# ledger entry; an open that spans several slots of one tree level has one entry per slot
LEDGERS = {
    "campus-two-person": [(1, "secAccess", 1, (9,), 9, "f5010000"),
                          (1, "secAccess", 2, (9,), 9, "f2000000"),
                          (2, "secFetch", 1, (3,), 3, "07000000"),
                          (2, "secFetch", 2, (3,), 3, "07000000"),
                          (3, "secAccess", 3, (2, 2, 2), 6, "1e000000"),
                          (3, "secAccess", 4, (2, 2, 2), 6, "28000000")],
    "unique-chain": [(1, "secAccess", 1, (9,), 9, "f5010000"),
                     (2, "secAccess", 2, (2,), 2, "01000000")],
    "repeated-categorical": [(1, "secFetch", 0, (4,), 4, "0b000000"),
                             (2, "secAccess", 0, (3, 3, 3), 9, "b0010000"),
                             (3, "secAccess", 1, (2, 2, 2), 6, "35000000")],
    "two-group": [(1, "secAccess", 1, (9,), 9, "f5010000"),
                  (2, "secFetch", 1, (3,), 3, "07000000"),
                  (3, "secAccess", 2, (3, 3, 3), 9, "22000000")],
}


@pytest.mark.parametrize("graph_text,query_text,ledger", [
    pytest.param(p.values[0], p.values[1], LEDGERS[p.id], id=p.id) for p in PINNED])
def test_fixed_seed_ledgers_are_pinned(graph_text, query_text, ledger):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    for rt in res["runtimes"]:
        got = [(e.label, e.phase, e.slot, e.segments, e.bits.logical_len,
                e.bits.words.tobytes().hex()) for e in rt.opened]
        assert got == ledger
