"""Exhaustive checks of the exact claims at small n.

``CHECKS`` lists them in report order.  Each sweeps every object of each
size n in a range, counting the objects it checked and the comparisons
that failed: ``permtree verify`` runs them up to their caps through
:func:`run`, the acceptance tests over larger ranges.  The cover check's
per-tree predicate, :func:`cover_agrees`, also serves the acceptance
tests' sampled trees.  A routine that raises on an object fails that
object's comparison, and the sweep goes on.  Package functions are
looked up on their modules at call time (``cover.gamma_formula``, not a
reference taken at import), so a wrapper installed on a module attribute
is what a check calls.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import ne
from typing import Callable

from . import codec, counting, cover, perm, stats, structure
from .errors import InvalidConfigError

# smallest bound at which every check sees at least one object
MIN_MAX_N = 4
# the codec enumerations a per-object sweep walks
_TREES, _CODES = "enumerate_trees", "enumerate_codes"


def _holds(ok: Callable, obj) -> bool:
    """``ok(obj)``; a routine that raises on ``obj`` fails the comparison."""
    try:
        return bool(ok(obj))
    except Exception:
        return False


def _each(objects: str, ok: Callable) -> Callable[[int], tuple[int, int]]:
    """Per-size sweep applying ``ok`` to every object ``codec.<objects>(n)`` yields."""

    def at(n: int) -> tuple[int, int]:
        oks = [_holds(ok, x) for x in getattr(codec, objects)(n)]
        return len(oks), oks.count(False)

    return at


def _census(n: int) -> tuple[int, int]:
    """All of S_n classified; one failure when any tally misses its closed form."""

    def ok(n: int) -> bool:
        table = counting.census(n)
        by_m = table.forests_by_m
        return (
            table.total == math.factorial(n)
            and table.trees == codec.count_trees(n)
            and table.connected == counting.indecomposable_count(n)
            and table.forest_total == counting.forest_total(n)
            and all(by_m.get(m, 0) == counting.forest_count(n, m) for m in range(1, n + 1))
        )

    return math.factorial(n), int(not _holds(ok, n))


def _adjacency_ok(p: perm.Permutation) -> bool:
    return structure.adjacency_via_blocks(p) == perm.build_graph(p)


def _caterpillar_ok(p: perm.Permutation) -> bool:
    """The nonleaves form a path (a single hub for a star) with the stated ends."""
    n = p.n
    adj = perm.build_graph(p)
    spine = structure.central_path(p)
    nonleaves = {v for v in range(1, n + 1) if len(adj[v]) >= 2}
    if len(set(spine)) != len(spine) or set(spine) != nonleaves:
        return False
    if any(b not in adj[a] for a, b in zip(spine, spine[1:])):
        return False
    first, last = p.values[0], p.values[-1]
    if first == n or last == 1:
        return spine == ((n if first == n else 1),)
    return spine[0] in (1, first) and spine[-1] in (n, last)


def cover_agrees(code: codec.TreeCode) -> bool:
    """Four routes to the cover number agree: marking, formula, DP and the coin route.

    The three graph routes share one block adjacency of the decoded tree,
    which ``ADJACENCY`` holds to the inversion graph.
    """
    p = codec.decode(code)
    adj = structure.adjacency_via_blocks(p)
    return (
        cover.marking_algorithm(p, adj).size
        == cover.gamma_formula(p, adj)
        == cover.min_cover_oracle(p, adj)
        == cover.gamma_code(code)
    )


def _decomposition_ok(code: codec.TreeCode) -> bool:
    """The run terms, read from the code alone, sum to the formula on the tree."""
    return cover.gamma_decomposition(code).total == cover.gamma_formula(codec.decode(code))


def _laws(n: int) -> tuple[int, int]:
    """Leaf and diameter laws, max degree = 2 + longest tail run, degree coupling.

    A failure is a code whose degrees and blocks do not couple or whose
    maximum degree is not 2 + the longest tail run of its own n - 3 tosses,
    or a value of the leaf or diameter law that the tally misses.  Checked
    on every code, the max-degree identity carries the law of the maximum
    degree over from the tail-run law of fair tosses.
    """
    total = codec.count_trees(n)
    leaves, diameters = Counter(), Counter()

    def tally(code: codec.TreeCode) -> bool:
        s = stats.tree_stats(codec.decode(code))
        leaves[s.leaves] += 1
        diameters[s.diameter] += 1
        bits = code.bits
        longest = stats.coin_stats(list(map(ne, bits, bits[1:]))).longest_tail_run
        return s.max_degree == 2 + longest and stats.coupled_tree_stats_equivalence(code)

    failures = sum(not _holds(tally, code) for code in codec.enumerate_codes(n))
    for k in range(2, n):
        failures += Fraction(leaves[k], total) != stats.leaves_pmf(n, k)
        failures += Fraction(diameters[k], total) != stats.diameter_pmf(n, k)
    return total, failures


@dataclass(frozen=True)
class Check:
    """One exhaustive check: its report label, CLI cap and per-size sweep."""

    label: str
    cap: int  # largest n that ``permtree verify`` sweeps
    min_n: int  # smallest n the claim is stated for
    at: Callable[[int], tuple[int, int]]  # n -> (checked, failures)

    def sweep(self, max_n: int) -> tuple[int, int]:
        """(objects checked, failed comparisons) over sizes min_n..max_n."""
        parts = [self.at(n) for n in range(self.min_n, max_n + 1)]
        return sum(c for c, _ in parts), sum(f for _, f in parts)

    def run(self, max_n: int) -> dict:
        """The sweep up to ``max_n`` as a timed result record."""
        start = time.perf_counter()
        checked, failures = self.sweep(max_n)
        seconds = time.perf_counter() - start
        name = f"{self.label} (n <= {max_n})"
        return {"name": name, "checked": checked, "failures": failures, "seconds": seconds}


CENSUS = Check("census vs closed forms", 8, 1, _census)
ROUNDTRIP = Check(
    "encode/decode roundtrip", 14, 1, _each(_CODES, lambda c: codec.encode(codec.decode(c)) == c)
)
ADJACENCY = Check("block adjacency = inversion adjacency", 11, 2, _each(_TREES, _adjacency_ok))
CATERPILLAR = Check("caterpillar shape and endpoints", 11, 3, _each(_TREES, _caterpillar_ok))
# the label predates the fourth route, gamma_code; verify's output pins it
COVER = Check("cover number triple agreement", 11, 1, _each(_CODES, cover_agrees))
DECOMPOSITION = Check("cover run decomposition identity", 11, 4, _each(_CODES, _decomposition_ok))
LAWS = Check("exact leaf law and degree coupling", 12, 3, _laws)

CHECKS = (CENSUS, ROUNDTRIP, ADJACENCY, CATERPILLAR, COVER, DECOMPOSITION, LAWS)


def run(max_n: int) -> list[dict]:
    """Every check up to ``min(max_n, cap)``: one result record each, in order."""
    if max_n < MIN_MAX_N:
        raise InvalidConfigError(f"max_n must be >= {MIN_MAX_N}; smaller bounds leave a check empty")
    return [check.run(min(max_n, check.cap)) for check in CHECKS]
