"""Fixed-seed transcript digests, pinned so that refactors keep the wire bytes.

Each party's transcript hashes every frame it sends and receives, so an equal
digest means every message on every link is byte-identical. A change that
moves share plumbing, re-sharing, labels or permutations around must leave
these four queries' digests exactly as they are.
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
        ("589fb8c4acbbd917976761ed6e31871e4927964a314c1beb2eadbace65ab0ae5",
         "cfe273f8a11ac6fb23db72ce1975944d3f292944229919a968de20caeb4d0b66",
         "80d5525af03410a9f9e9580a3947a02d7c97fed625375cbc25a8af79782b0361"),
        id="campus-two-person"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age = 40\nQ c C field = Internet\nQE u p\nQE p c\n",
        ("92acf86fc48191f474ff7b512dd5a09fea09dc78040b2983e9925fc6ea0b2fd4",
         "08078b753949ff5433d5d45d968b11a9e4a3191450e7430a0ad01434af112bb3",
         "11888e11eeec20214328aa4ac4b7c74e173bfe230d92e8e337fba3554d94946f"),
        id="unique-chain"),
    pytest.param(
        REPEATED_CATEGORICAL, "Q a S city = harbin\nQ b T tier = gold\nQE a b\n",
        ("9da1ecd78f9b57fa706703181b7c578cf9d12e7816ad2c7afe49c5c597e6e40c",
         "4490b5de2761bd50ff0eae28f4926cc897392218688679a56be01dded7df1480",
         "7d0d12cbcec5907154da30e4e97e4256c891b49b09d6774ebf9c8d90520556bf"),
        id="repeated-categorical"),
    pytest.param(
        CAMPUS_GRAPH,
        "Q u U place = Harbin\nQ p P age in 30 40\nQ q P age in 30 60\nQE u p\nQE p q\n",
        ("e728b0ebd76adad68bb259cb4f2d3a3562df903a03c3618ae3496b54bc3f19f1",
         "624a379562d3abf0863b594006162cd462d12e0e0d48d4dba093cabde739342a",
         "0d0d03daba10a1073f890d362459b565d941c21bba491836ab8b91b18d9bf4df"),
        id="two-group"),
]


@pytest.mark.parametrize("graph_text,query_text,digests", PINNED)
def test_fixed_seed_transcripts_are_pinned(graph_text, query_text, digests):
    res = run_secure_query(graph_text, query_text, seed=5, master=b"\x5a" * 16)
    assert tuple(rt.transcript_digest() for rt in res["runtimes"]) == digests
