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
place of its shuffle removed its flags' entry, and so did gating an inner
slot whose children are leaves and whose parent type's padding is even.
One that adds an open, such as an access's masked codes, moves it the other
way. A new shuffle permutation moves the bit order inside each opened flag
vector, but not its popcount per segment; the access entries' bits are
one-time pads of the codes, so they move with any change of the pairwise
pads or table ids.
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
        ("c38d9855ef31fd90c1f709db2add089a5216ae6380fea63ce645c1bdd857a992",
         "160989504eb6d528702268e06cc0b76751c51c3aac32cfc167c80091e2a96e82",
         "f0e3a6fff4d06a0870d9a35a7f4c7c4a01204bb7158067fa89ef879f772edd77"),
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
        ("8eb40c444fbf1271e14be0938d27afc5e3c45be88988924e282d79c498602f05",
         "2a43f16cf08c7f20c61bb6987c5712918b13a410a69d082fba22235ebcbaef28",
         "afbaf1fcd69aab4a995b5a49bc1f8e9384e742a9b1e7829be20296f611abfd99"),
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
                          (2, "secAccess", 3, (2, 2, 2), 6, "0a000000"),
                          (2, "secAccess", 4, (2, 2, 2), 6, "15000000")],
    "unique-chain": [(1, "secAccess", 1, (9,), 9, "f5010000"),
                     (2, "secAccess", 2, (2,), 2, "01000000")],
    "repeated-categorical": [(1, "secFetch", 0, (4,), 4, "0b000000"),
                             (2, "secAccess", 0, (3, 3, 3), 9, "b0010000"),
                             (3, "secAccess", 1, (2, 2, 2), 6, "35000000")],
    "two-group": [(1, "secAccess", 1, (9,), 9, "f5010000"),
                  (2, "secAccess", 2, (3, 3, 3), 9, "b1000000")],
}


@pytest.mark.parametrize("graph_text,query_text,ledger", [
    pytest.param(p.values[0], p.values[1], LEDGERS[p.id], id=p.id) for p in PINNED])
def test_fixed_seed_ledgers_are_pinned(graph_text, query_text, ledger):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    for rt in res["runtimes"]:
        got = [(e.label, e.phase, e.slot, e.segments, e.bits.logical_len,
                e.bits.words.tobytes().hex()) for e in rt.opened]
        assert got == ledger
