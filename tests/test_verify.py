"""The shared exhaustive checks: coverage, sensitivity and report names."""
from __future__ import annotations

import dataclasses
import math

import pytest

from permtree import cli, codec, counting, cover, perm, stats, structure, verify
from permtree.codec import TreeCode, count_trees
from permtree.perm import Permutation

# ``permtree verify --max-n 14`` reports these names; its stdout digest pins them
NAMES_AT_14 = [
    "census vs closed forms (n <= 8)",
    "encode/decode roundtrip (n <= 14)",
    "block adjacency = inversion adjacency (n <= 11)",
    "caterpillar shape and endpoints (n <= 11)",
    "cover number triple agreement (n <= 11)",
    "cover run decomposition identity (n <= 11)",
    "exact leaf law and degree coupling (n <= 12)",
]


def _trees(lo: int, hi: int) -> int:
    return sum(count_trees(n) for n in range(lo, hi + 1))


@pytest.fixture(scope="module")
def at_caps():
    return verify.run(14)


def test_names_match_the_pinned_report(at_caps):
    assert [r["name"] for r in at_caps] == NAMES_AT_14


def test_object_counts_at_the_caps(at_caps):
    assert [r["checked"] for r in at_caps] == [
        sum(math.factorial(n) for n in range(1, 9)),
        _trees(1, 14),
        _trees(2, 11),
        _trees(3, 11),
        _trees(1, 11),
        _trees(4, 11),
        _trees(3, 12),
    ]
    assert [r["failures"] for r in at_caps] == [0] * len(verify.CHECKS)


def test_every_check_sees_objects_at_the_smallest_bound():
    results = verify.run(verify.MIN_MAX_N)
    assert all(r["checked"] >= 1 and r["failures"] == 0 for r in results)


def test_the_adjacency_check_spans_every_size_the_cover_check_sweeps():
    """COVER's graph routes read the block adjacency that ADJACENCY holds to the inversion graph."""
    assert verify.ADJACENCY.cap >= verify.COVER.cap
    for n in range(verify.COVER.min_n, verify.ADJACENCY.min_n):
        assert verify.ADJACENCY.at(n) == (count_trees(n), 0)


def _off_by_one(f):
    return lambda *args: f(*args) + 1


def _one_more_marked(f):
    def marking(*args):
        res = f(*args)
        return dataclasses.replace(res, size=res.size + 1)

    return marking


def _drop_first_neighbour(f):
    return lambda p: [nbrs[1:] for nbrs in f(p)]


# (check, module, attribute, mutation of the routine the check calls)
MUTANTS = [
    (verify.CENSUS, counting, "forest_total", _off_by_one),
    # a forest test that drops the 3412 half
    (verify.CENSUS, counting, "is_forest", lambda f: lambda p: not perm.pattern_flags(p)[0]),
    (verify.ROUNDTRIP, codec, "encode", lambda f: lambda p: TreeCode.from_packed(p.n, 0)),
    # a wrong decode: its values' flags differ from the code, which decode recorded
    (verify.ROUNDTRIP, codec, "_decode_values", lambda f: lambda n, bits: f(n, bits)[::-1]),
    # a code not read off the values: the round trip must re-read them to catch it
    (verify.ROUNDTRIP, codec, "code_flags", lambda f: lambda p: [0] * max(p.n - 2, 0)),
    (verify.ADJACENCY, perm, "build_graph", lambda f: lambda p: [nbrs[:-1] for nbrs in f(p)]),
    (verify.ADJACENCY, structure, "adjacency_via_blocks", _drop_first_neighbour),
    (verify.CATERPILLAR, structure, "central_path",
     lambda f: lambda p: tuple(sorted(f(p)))),
    (verify.COVER, cover, "marking_algorithm", _one_more_marked),
    (verify.COVER, cover, "gamma_formula", _off_by_one),
    (verify.COVER, cover, "min_cover_oracle", _off_by_one),
    (verify.COVER, cover, "gamma_code", _off_by_one),
    # the three graph routes share the block adjacency
    (verify.COVER, structure, "adjacency_via_blocks", _drop_first_neighbour),
    (verify.DECOMPOSITION, cover, "run_lengths", lambda f: lambda bits: [1] * len(bits)),
    # the decomposition no longer checks its own sum: the sweep must catch a wrong term
    (verify.DECOMPOSITION, cover, "gamma_decomposition",
     lambda f: lambda code: dataclasses.replace(f(code), boundary=f(code).boundary + 1)),
    (verify.LAWS, stats, "diameter_pmf", lambda f: lambda n, d: f(n, d + 1)),
    (verify.LAWS, stats, "coin_stats",
     lambda f: lambda seq: dataclasses.replace(f(seq), longest_tail_run=0)),
    (verify.LAWS, stats, "coupled_tree_stats_equivalence", lambda f: lambda code: False),
]


def _mutant_ids() -> list[str]:
    """module.routine; a routine mutated for a second check also names that check."""
    ids = []
    for check, module, name, _ in MUTANTS:
        routine = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        ids.append(f"{routine}-{check.label.split()[0]}" if routine in ids else routine)
    return ids


@pytest.mark.parametrize("check, module, name, mutate", MUTANTS, ids=_mutant_ids())
def test_a_broken_routine_is_reported(monkeypatch, check, module, name, mutate):
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    checked, failures = check.sweep(7)
    assert checked > 0
    assert failures > 0


def test_a_routine_that_raises_fails_its_check_and_the_battery_goes_on(monkeypatch, capsys):
    decode = codec.decode
    monkeypatch.setattr(codec, "decode", lambda code: Permutation(decode(code).values[::-1]))
    assert cli.main(["verify", "--max-n", "5", "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line.split()[0] for line in lines if line.split()[0] in ("PASS", "FAIL")]
    assert len(verdicts) == len(verify.CHECKS)
    assert verdicts[verify.CHECKS.index(verify.ROUNDTRIP)] == "FAIL"
