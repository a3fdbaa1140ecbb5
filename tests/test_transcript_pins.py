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
        ("0a37cf71bbd31f7fa08d772727c53fbdde33df9a4a6c6fecb5383b1129db280d",
         "edc777cb44a19703d7892d5cb3f8f01aab5947569b810a8c01ae31c55c9dc2ce",
         "1eec054251e9be14c57c15a95cc8a4ca4c8dd5005aaeb164be4200693493d43e"),
        id="campus-two-person"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\nQE u p\nQE p c\n",
        ("d6780b5b8503da55107bdaa695726782741bbb04d2fdcc2f12f29cbf8017bcf6",
         "63b71eb02731c15f240e295abbda333e3f86b4b334d3ef669c0aad4e4867e237",
         "82ef81c929ac262c6df84da6cdc8c146b5067ced4f719c5a6b15b90293043af1"),
        id="unique-chain"),
    pytest.param(
        REPEATED_CATEGORICAL, "Q a S city = harbin\nQ b T tier = gold\nQE a b\n",
        ("9c432266b5bc4255a6957f99cf2cbb0bd9f8cdbed8b6880a3f67885f7944b9f8",
         "476a11881d2c2c44a9c6afbdd393222d0090de3689e62d7c8886b480d1c3f7f1",
         "2a58c24167a6958595c9728c4460962b3abaf55df76e7d901cb2f9745bfa76a2"),
        id="repeated-categorical"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\nQE u p\nQE p q\n",
        ("51c783cd2aec1b0142af58d0f41bd6b970d61cbc0add8c3217d072c4ebf7e736",
         "d68617358b21d883a9441ded2204fad9025616f90b7c23f37cca70a786ea3d37",
         "2960bd66358fec3b8f0ed07530f18ab6615a2448bd1a64d911cc6faa0cbe1fe1"),
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
