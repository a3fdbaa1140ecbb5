"""Fixed-seed transcript digests and leakage ledgers, pinned per query.

Each party's transcript hashes every frame it sends and receives, so an equal
digest means every message on every link is byte-identical. A change that
moves share plumbing, re-sharing, labels or permutations around must leave
these four queries' digests exactly as they are.

The ledger pin is the stronger promise: every value a query opens, with its
label, phase, slot and group segments. A change of share encoding or field
widths moves the digests, but must leave every party's ledger exactly as
pinned here; grouping the opens of one tree level into one message may only
merge labels.
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
        ("b6a286aa36afc7d9ab074243927073f964bf890b7fac3664de8f9ca942841780",
         "88b125b09a23bc565e30a7ebb4acc186b2c539d688d6e94eb7f8b12516c3d449",
         "c6d0c6e733ad9eb2e5d24289c0374ff51ed44c5d858adce2fd422dbd86e72400"),
        id="campus-two-person"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\nQE u p\nQE p c\n",
        ("6d46e607b88276c94833059221a24e5ed92eb442b8dc432c262ae1b28f5e25fd",
         "5dfced86dbc8960a869635b12f20168ec431ee604b93b6a2a02eb1264c45f00d",
         "73d61e54612296611693b171b77c2950c53d9af675a26c265374831ee3549887"),
        id="unique-chain"),
    pytest.param(
        REPEATED_CATEGORICAL, "Q a S city = harbin\nQ b T tier = gold\nQE a b\n",
        ("d2b75af023fd47e25b274db54fbccf3ef92fadb80b87d0f4c571382754fb35b5",
         "8c33d47b8da4e7b318edd22dcb7d936787af0aee87d7046fcf38be4877dd88ab",
         "dea1250628c1582b5aec8730ae5b833db76e633d8f8bf3c71fa0a2cdf480088d"),
        id="repeated-categorical"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\nQE u p\nQE p q\n",
        ("4b242878580d985aeb065e0ebb711b1a66d0b5bb6ef3f05069b32c352e76a5f3",
         "a01c3e2e1476f25f50eae0e4f3b471a0f3949a07b2bd2606d04b2a021a39b786",
         "2ae05f0e0479fc855126d693aa3632ba90eb0f6056bef95a96650e45bab4e568"),
        id="two-group"),
]


@pytest.mark.parametrize("graph_text,query_text,digests", PINNED)
def test_fixed_seed_transcripts_are_pinned(graph_text, query_text, digests):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    assert tuple(rt.transcript_digest() for rt in res["runtimes"]) == digests


# per query: (label, phase, slot, segments, length in bits, packed words as hex) of every
# ledger entry; an open that spans several slots of one tree level has one entry per slot
LEDGERS = {
    "campus-two-person": [(1, "secAccess", 1, (3,), 3, "07000000"),
                          (1, "secAccess", 2, (3,), 3, "07000000"),
                          (2, "secFetch", 1, (3,), 3, "07000000"),
                          (2, "secFetch", 2, (3,), 3, "07000000"),
                          (3, "secAccess", 3, (1, 1, 1), 3, "07000000"),
                          (3, "secAccess", 4, (1, 1, 1), 3, "07000000")],
    "unique-chain": [(1, "secAccess", 1, (3,), 3, "07000000"),
                     (2, "secAccess", 2, (1,), 1, "01000000")],
    "repeated-categorical": [(1, "secFetch", 0, (4,), 4, "07000000"),
                             (2, "secAccess", 1, (1, 1, 1), 3, "07000000"),
                             (3, "secFetch", 1, (1, 1, 1), 3, "07000000")],
    "two-group": [(1, "secAccess", 1, (3,), 3, "07000000"),
                  (2, "secFetch", 1, (3,), 3, "07000000"),
                  (3, "secAccess", 2, (1, 1, 1), 3, "03000000"),
                  (4, "secFetch", 2, (1, 1), 2, "03000000")],
}


@pytest.mark.parametrize("graph_text,query_text,ledger", [
    pytest.param(p.values[0], p.values[1], LEDGERS[p.id], id=p.id) for p in PINNED])
def test_fixed_seed_ledgers_are_pinned(graph_text, query_text, ledger):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    for rt in res["runtimes"]:
        got = [(e.label, e.phase, e.slot, e.segments, e.bits.logical_len,
                e.bits.words.tobytes().hex()) for e in rt.opened]
        assert got == ledger
