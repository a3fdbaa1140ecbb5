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
digests and leaves the ledger as it is. A new shuffle permutation moves the bit order inside each opened flag
vector, but not its popcount per segment; the access entries' bits are
one-time pads of the codes, so they move with any change of the pairwise
pads or table ids.
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
        ("592bf865e1ef28f4fd818842a20961080732c5fbbb4377c2dbe2082e5a0ffd79",
         "e1a2b8fb2c8c57b1ab73a5f4279d57703b166a6e5f9aa76a47b1444707999382",
         "941e6e39e0adff7fbcbc8f5f9508decb363e22797155ebff4de07a9d7084b0a7"),
        id="campus-two-person"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\nQE u p\nQE p c\n",
        ("28afb80bea9d0a469b04718c1ec02155772d36705d82f4ee14f869804416383b",
         "a014e58ca1540dd9507f425cf2e78db643216a0da228f59634c869d2cbf81bd6",
         "da15e63e000e79a0db1786a4523f7be6ed095755b74ce3651ea1a88c160c0b72"),
        id="unique-chain"),
    pytest.param(
        REPEATED_CATEGORICAL, "Q a S city = harbin\nQ b T tier = gold\nQE a b\n",
        ("ab3b62eb55a9c12a751ed26e228248ee16dd38a4263c725af7addc5d237cdc7f",
         "b422694c3b4d1fc801f1df8127ab926b86cb0c80a1753ecd307d87ba2a022e0b",
         "648b0778b6774f3d3cb9238979a002a7015fd6a03ea032e365498492c7deb273"),
        id="repeated-categorical"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\nQE u p\nQE p q\n",
        ("913ceff43386418912d8e1a356323143d506230664d4c262174e2554dd6a6893",
         "9cc0c9ffa3aa0195e85c4d3308d33d0938bb0503daa7ffb600efb13486959726",
         "1749e126ce6ebcceeb8d4df05cc8b6044ea794a96c49628b3dfe4f572f8412a5"),
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
