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
way. Sending an open in the round that makes its value, as the shuffle's
flag open and the additive open of an access's masked codes do, moves the
digests and leaves the ledger as it is; so does moving a frame to an earlier
round, as party 3's lone first unit-vector frame and a unique root's access
open, which rides in its fold's round, do. A new shuffle permutation moves
the bit order inside each opened flag vector, but not its popcount per
segment; the access entries' bits are one-time pads of the codes, so they
move with any change of the pairwise pads or table ids.
"""

import pytest

from oblivgm.bits import pack_bits

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
        ("a0fe42b3e0101bf93a287cd5dd9e569b2395f4f1812c6aebb216fca2e263cb03",
         "a8248375471500ae50e410c33fe81ce9c37a634a7d563bf66c6ac6ebfd59038c",
         "c93247bc8d09e3e3b9ae63c4edb99b1923fd3f8dc88b0c0b2e04c4020bfebefb"),
        id="campus-two-person"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\nQE u p\nQE p c\n",
        ("9c4bc233ac404ecf953debb8ed96dcbb49e8084789a773b706cd45ff7a6c8daa",
         "df830e448e3bd3ae391eac5bf2309b9118be3d7a20daafbd9c27255d2ca5a950",
         "cd7a98a34e28bf1b3b63521fad5cce86e877bbdb723900846edd90ab7c8cbb4e"),
        id="unique-chain"),
    pytest.param(
        REPEATED_CATEGORICAL, "Q a S city = harbin\nQ b T tier = gold\nQE a b\n",
        ("52195b95dbe5af5ba7db14f65aeb3ffac103787c1ffcf331949e5d3cfc91fda5",
         "0eb804ed8efe4afeb26d6abd11118a2d05d2b54a1debe954d8d057fd252c1634",
         "648b0778b6774f3d3cb9238979a002a7015fd6a03ea032e365498492c7deb273"),
        id="repeated-categorical"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\nQE u p\nQE p q\n",
        ("7a78dc9de4f55b94a06e207c5cfb662e21a23e7a192f9bac3d25c8d259d4b650",
         "22c9fde26f17fb80e8157feb7627dd936d22195e42e0eb383eb1f62d9fe240d3",
         "3fc876ba33ad2f6a94d06353708a7001f364cd7c392348c56b9b6a57ae168a06"),
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
        got = [(e.label, e.phase, e.slot, e.segments, len(e.bits),
                pack_bits(e.bits).tobytes().hex()) for e in rt.opened]
        assert got == ledger
