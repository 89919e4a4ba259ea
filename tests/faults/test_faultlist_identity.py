"""Fault-list identity: what ``build_fault_list`` exports, byte for byte.

Fault names are the wire vocabulary of both fault-simulation phases and
the shard keys of the farm; their *order* decides shard membership and
the insertion order of every report.  The digests below were taken from
the implementation that scanned all gates per ``fanout_of`` call and
formatted a name per comparison, before the netlist grew its fan-out
index and the build went name-once; any rewrite of the build has to
reproduce them.
"""

import hashlib

import pytest

from repro.faults import FaultList, build_fault_list
from repro.gates import corpus_names, load_bench


def fault_list_digest(fault_list) -> str:
    """Names in order, each with its representative and class members."""
    digest = hashlib.sha256()
    for name in fault_list.names():
        members = [member.name for member in fault_list.class_of(name)]
        digest.update(repr(
            (name, fault_list.fault(name).name, members)).encode())
    digest.update(repr(fault_list.universe_size()).encode())
    return digest.hexdigest()[:16]


# (bench, mode) -> (collapsed size, universe size, digest); "obfuscated"
# is equivalence collapsing exported under opaque ``f<N>`` names, each
# pinned as ``p.f<N>``.
PINNED = {
    ("c17", "none"): (34, 34, "facf016928588539"),
    ("c17", "equivalence"): (22, 34, "3a47dbe52650c8b6"),
    ("c17", "dominance"): (18, 26, "d0d6d30937ec886d"),
    ("c17", "obfuscated"): (22, 34, "eeacabcbfac3d28b"),
    ("figure4", "none"): (46, 46, "e3359aa9bd30b978"),
    ("figure4", "equivalence"): (24, 46, "dbd953e7697258bc"),
    ("figure4", "dominance"): (19, 34, "fcb45a840b8ceb52"),
    ("figure4", "obfuscated"): (24, 46, "305e7262963ca209"),
    ("chatty", "none"): (918, 918, "c0346b6959f593df"),
    ("chatty", "equivalence"): (632, 918, "a3342dc9a9cd3bae"),
    ("chatty", "dominance"): (554, 821, "bfa0e8457d9bbdb2"),
    ("chatty", "obfuscated"): (632, 918, "b98e64375563f263"),
    ("alu8", "none"): (610, 610, "823f9b3013dd4d1d"),
    ("alu8", "equivalence"): (388, 610, "21048759a91b99a3"),
    ("alu8", "dominance"): (340, 488, "9961e0f725db92e9"),
    ("alu8", "obfuscated"): (388, 610, "ac85731be35328e6"),
    ("ecc32", "none"): (1960, 1960, "928b6fdfb6d4083c"),
    ("ecc32", "equivalence"): (1734, 1960, "15b83bfa1b73478b"),
    ("ecc32", "dominance"): (1701, 1924, "83244bd8ffe8c729"),
    ("ecc32", "obfuscated"): (1734, 1960, "7db1038a99d9b0db"),
    ("alu32", "none"): (2386, 2386, "e0c091b1d3d58b16"),
    ("alu32", "equivalence"): (1516, 2386, "90b8447730f117fd"),
    ("alu32", "dominance"): (1324, 1904, "6ad54a43ee1c3efb"),
    ("alu32", "obfuscated"): (1516, 2386, "f41897b7536bf979"),
    ("mult8", "none"): (1812, 1812, "f093362d8a784b3e"),
    ("mult8", "equivalence"): (1344, 1812, "4c2fe8ac5039b8ac"),
    ("mult8", "dominance"): (1175, 1542, "d8076aa3fe965aad"),
    ("mult8", "obfuscated"): (1344, 1812, "0a36bfe8f7a86035"),
    ("mult16", "none"): (7700, 7700, "9894acd0cf95b1fd"),
    ("mult16", "equivalence"): (5744, 7700, "036b75817732d815"),
    ("mult16", "dominance"): (5023, 6526, "3d7b5a5d9eef1e2e"),
    ("mult16", "obfuscated"): (5744, 7700, "2f53099c69406a25"),
}


def test_every_builtin_combinational_bench_is_pinned():
    assert {bench for bench, _mode in PINNED} == \
        set(corpus_names("combinational"))


@pytest.mark.parametrize("bench,mode", sorted(PINNED))
def test_fault_list_matches_the_pinned_build(bench, mode):
    netlist = load_bench(bench)
    if mode == "obfuscated":
        opaque = build_fault_list(netlist, collapse="equivalence",
                                  obfuscate=True)
        # The pins were taken with a "p." prefix on every name.
        fault_list = FaultList(
            opaque.component,
            {f"p.{name}": opaque.fault(name) for name in opaque.names()},
            {f"p.{name}": opaque.class_of(name) for name in opaque.names()})
    else:
        fault_list = build_fault_list(netlist, collapse=mode)
    assert (len(fault_list), fault_list.universe_size(),
            fault_list_digest(fault_list)) == PINNED[bench, mode]
