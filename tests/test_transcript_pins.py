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
reach the next open with their padding rows.
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
        ("f094c84d74277d193362518ed5029d1cb33182ce4e6dcea8fe2fe655de397b4a",
         "f9ab3903f0c5a8777b5cf6158318151a64dfb0300121a19a7191bf79e9942fb1",
         "482ff9318d051f30a680039bbb7250f52d828602d17a6a03f67368cf67ded3b7"),
        id="campus-two-person"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\nQE u p\nQE p c\n",
        ("644047670e62fafc95f303b8544f3acc336039ff4b9c2310aa5d96132eb16e85",
         "2e2bf1535268db591422ca1c1b714e4fa6bdf1c37c417975ec29583f139b5089",
         "5d1067bda0a98f1e03cec5153c29ab392ae49e6bc5626b396f8e29164a2fb26a"),
        id="unique-chain"),
    pytest.param(
        REPEATED_CATEGORICAL, "Q a S city = harbin\nQ b T tier = gold\nQE a b\n",
        ("09941f4b6a5fcb92119c5eed49108e9dfe6c9008b9755fbc8e1b96accbf16584",
         "6baadd7d0f83a4cd2bc97d741a140fcc9a3c463cfdc810bfea70017637e69414",
         "b6db6e08ae6f82f9e2825f873adbbf4945fb048fc45bca4eec5451db18be50fc"),
        id="repeated-categorical"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\nQE u p\nQE p q\n",
        ("85aafd73cf7038a8109acfa8ac768bc1fe340dcb55e080af59e93e69afd20d7b",
         "3e409c8a73badccb692dd943c919747f24d605392b94263d2e125f3f4c9d068c",
         "673b52c89ed8eaeea29bd251700b598bec3f268d4ac5f122988ff78f9f39b9f9"),
        id="two-group"),
]


@pytest.mark.parametrize("graph_text,query_text,digests", PINNED)
def test_fixed_seed_transcripts_are_pinned(graph_text, query_text, digests):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    assert tuple(rt.transcript_digest() for rt in res["runtimes"]) == digests


# per query: (label, phase, slot, segments, length in bits, packed words as hex) of every
# ledger entry; an open that spans several slots of one tree level has one entry per slot
LEDGERS = {
    "campus-two-person": [(1, "secFetch", 1, (3,), 3, "07000000"),
                          (1, "secFetch", 2, (3,), 3, "07000000")],
    "unique-chain": [],
    "repeated-categorical": [(1, "secFetch", 0, (4,), 4, "07000000"),
                             (2, "secFetch", 1, (1, 1, 1), 3, "07000000")],
    "two-group": [(1, "secFetch", 1, (3,), 3, "07000000"),
                  (2, "secFetch", 2, (1, 1, 1), 3, "03000000")],
}


@pytest.mark.parametrize("graph_text,query_text,ledger", [
    pytest.param(p.values[0], p.values[1], LEDGERS[p.id], id=p.id) for p in PINNED])
def test_fixed_seed_ledgers_are_pinned(graph_text, query_text, ledger):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    for rt in res["runtimes"]:
        got = [(e.label, e.phase, e.slot, e.segments, e.bits.logical_len,
                e.bits.words.tobytes().hex()) for e in rt.opened]
        assert got == ledger
