"""Cover numbers of permutation trees, by three independent routes.

The quantity computed here is the minimum size of a vertex set meeting
every edge of the tree ("covering set" below).  Three routes:

1. the leaf-neighbor marking algorithm: while a component has at least
   three vertices, simultaneously mark all neighbors of leaves, then drop
   every edge touching a marked vertex; finally mark the smaller-valued
   vertex of each surviving two-vertex component;
2. the caterpillar closed form gamma = k + sum floor(n_i / 2), where the
   k special spine vertices are the spine endpoints plus all vertices of
   degree >= 3, and n_i counts the degree-2 spine vertices strictly
   between consecutive special ones;
3. an exact two-state dynamic program over the tree (per vertex: best
   cover size with the vertex chosen / not chosen).

On top of these, the cover number decomposes into run statistics of the
coupled coin sequence, which is what makes its distribution tractable and
powers the vectorized kernel in montecarlo.  :func:`gamma_code` reads it
from the code alone, a fourth route: a few whole-int operations on the
packed code, with the toss loop :func:`gamma_from_tosses` as its scalar
oracle.  The three graph routes take an adjacency in
:func:`~permtree.perm.build_graph`'s format and only read it.  The four
must agree on every tree permutation: ``verify.COVER`` checks this
exhaustively at small sizes and the acceptance tests on large random samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module
from typing import Sequence

from .codec import TreeCode
from .errors import NotATreeError
from .perm import Permutation, build_graph
from .stats import Moments, run_lengths
from .structure import ordered_spine


@dataclass(frozen=True)
class CoverResult:
    chosen: frozenset[int]
    size: int


def marking_algorithm(
    perm: Permutation, adjacency: list[tuple[int, ...]] | None = None
) -> CoverResult:
    """Recursive leaf-neighbor marking; returns the marked set.

    Each round works on the forest left by the previous round: every
    component with >= 3 vertices contributes the neighbors of its leaves,
    marked simultaneously, after which all edges incident to marked
    vertices disappear.  Components of size 2 at the end contribute their
    smaller-valued vertex; size-1 components contribute nothing.

    A leaf's component has >= 3 vertices exactly when its neighbor is not
    a leaf, and after the first round the only leaves whose neighbor can
    be marked are those whose degree just fell to 1, so each round reads a
    leaf list and the whole run is O(n).  Edges vanish only at marked
    vertices, so a leaf keeps exactly one unmarked neighbor: each vertex
    carries the sum of its unmarked neighbors, lowered as they are marked,
    and on a leaf that sum is its partner.

    >>> marking_algorithm(Permutation([2, 3, 4, 1])).chosen
    frozenset({1})
    >>> marking_algorithm(Permutation([2, 4, 1, 3])).size
    2
    """
    n = perm.n
    if n == 1:
        return CoverResult(frozenset(), 0)
    adj = build_graph(perm) if adjacency is None else adjacency
    deg = list(map(len, adj))
    partner = list(map(sum, adj))
    marked = [False] * (n + 1)
    chosen: list[int] = []
    leaves = [v for v in range(1, n + 1) if deg[v] == 1]
    while True:
        newly = {partner[u] for u in leaves if deg[u] == 1 and deg[partner[u]] >= 2}
        if not newly:
            break
        chosen += newly
        for v in newly:
            marked[v] = True
        leaves = []
        for v in newly:
            deg[v] = 0
            for u in adj[v]:
                if not marked[u]:
                    deg[u] -= 1
                    partner[u] -= v
                    if deg[u] == 1:
                        leaves.append(u)
    # surviving components are single edges; take the smaller endpoint
    chosen += [v for v in range(1, n + 1) if deg[v] == 1 and v < partner[v]]
    return CoverResult(frozenset(chosen), len(chosen))


def gamma_formula(perm: Permutation, adjacency: list[tuple[int, ...]] | None = None) -> int:
    """Caterpillar closed form k + sum floor(n_i / 2).

    The k special vertices are the spine endpoints together with every
    vertex of degree >= 3; between consecutive special vertices sit runs
    of degree-2 spine vertices of lengths n_i.

    >>> gamma_formula(Permutation([2, 3, 4, 1]))
    1
    >>> gamma_formula(Permutation([2, 4, 1, 3]))
    2
    """
    n = perm.n
    if n == 1:
        return 0
    if n == 2:
        return 1
    adj = build_graph(perm) if adjacency is None else adjacency
    spine = ordered_spine(adj, n, perm.values[0])
    last = len(spine) - 1
    special = [
        i
        for i, v in enumerate(spine)
        if i == 0 or i == last or len(adj[v]) >= 3
    ]
    total = len(special)
    for a, b in zip(special, special[1:]):
        total += (b - a - 1) // 2
    return total


def min_cover_oracle(perm: Permutation, adjacency: list[tuple[int, ...]] | None = None) -> int:
    """Exact minimizer of the edge-meeting criterion by tree dynamic programming.

    Roots the tree at letter 1; per vertex keeps the best size with the
    vertex chosen and with it skipped (all children must then be chosen).

    >>> min_cover_oracle(Permutation([2, 1]))
    1
    >>> min_cover_oracle(Permutation([2, 3, 4, 1]))
    1
    """
    n = perm.n
    if n == 1:
        return 0
    adj = build_graph(perm) if adjacency is None else adjacency
    # a nonzero parent marks a letter reached; the root's is n + 1, a slot
    # of take and skip that only absorbs the root's own push
    parent = [0] * (n + 1)
    parent[1] = n + 1
    order = [1]
    for v in order:
        for u in adj[v]:
            if not parent[u]:
                parent[u] = v
                order.append(u)
    if len(order) != n:
        raise NotATreeError(f"graph of {perm} is not connected")
    # children come after their parent in BFS order, so each vertex is final
    # when reached backwards and pushes its values into its parent
    take = [1] * (n + 2)
    skip = [0] * (n + 2)
    for v in reversed(order):
        t, s = take[v], skip[v]
        p = parent[v]
        take[p] += t if t < s else s
        skip[p] += t
    return min(take[1], skip[1])


@dataclass(frozen=True)
class GammaDecomposition:
    """Cover number split into coin-sequence run statistics.

    Their sum, ``total``, is the cover number: the decomposition identity
    that ``verify.DECOMPOSITION`` checks.

    heavy_blocks   -- blocks of size >= 2 in the code (vertices of degree >= 3,
                      plus spine endpoints that head a heavy block)
    weighted_gaps  -- sum of floor(k/2) over interior runs of k degree-2
                      spine vertices (windows T H^(k+1) T in the tosses)
    boundary       -- contribution of degree-2 runs touching a spine endpoint
    """

    heavy_blocks: int
    weighted_gaps: int
    boundary: int

    @property
    def total(self) -> int:
        return self.heavy_blocks + self.weighted_gaps + self.boundary


def gamma_decomposition(code: TreeCode) -> GammaDecomposition:
    """Split the cover number of ``decode(code)`` into run statistics.

    The three terms are read from the code alone: neither the tree nor a
    graph route is built, so nothing here checks their sum.  That the sum
    equals :func:`gamma_formula` on the decoded tree is the identity
    ``verify.DECOMPOSITION`` checks.  Boundary terms: a terminated prefix
    (suffix) run of k heads contributes ceil(k/2); when the tosses are all
    heads (the tree is a path) the single run carries both endpoints and
    contributes 2 + floor((k-1)/2).
    """
    n = code.n
    if n < 4:
        raise ValueError("decomposition needs n >= 4")
    bits = code.bits
    heads = [bits[i] != bits[i + 1] for i in range(len(bits) - 1)]
    sizes = run_lengths(bits)
    heavy = sum(1 for s in sizes if s >= 2)

    tails_at = [i for i, h in enumerate(heads) if not h]
    weighted = 0
    for a, b in zip(tails_at, tails_at[1:]):
        k = b - a - 2
        if k >= 2:
            weighted += k // 2

    if not tails_at:
        boundary = 2 + (len(heads) - 1) // 2
    else:
        boundary = 0
        if heads[0]:
            prefix = tails_at[0]
            boundary += (prefix + 1) // 2
        if heads[-1]:
            suffix = len(heads) - 1 - tails_at[-1]
            boundary += (suffix + 1) // 2

    return GammaDecomposition(heavy, weighted, boundary)


def gamma_from_tosses(heads: Sequence[bool]) -> int:
    """Cover number straight from the coin sequence of a tree of size >= 4.

    Position-local form of the decomposition: count the maximal tail runs,
    the head positions whose within-run offset is odd and >= 3, and one
    for each end of the sequence that is a head.
    """
    length = len(heads)
    if length < 1:
        raise ValueError("need at least one toss (trees of size >= 4)")
    total = 0
    offset = 0
    prev_head = True
    for i, h in enumerate(heads):
        if h:
            offset += 1
            if offset >= 3 and offset % 2 == 1:
                total += 1
        else:
            offset = 0
            if prev_head:
                total += 1  # a tail run starts here
        prev_head = h
    return total + bool(heads[0]) + bool(heads[-1])


def gamma_code(code: TreeCode) -> int:
    """Cover number of ``decode(code)`` without building the tree.

    The fold of :func:`gamma_from_tosses`, taken on whole ints: toss i is
    bit i of H = code ^ (code >> 1), a head when set.  Bit i of T & ~(T << 1),
    where T is the tails (H's complement in n - 3 bits), marks a tail run
    starting at toss i.  For the head offsets, let S be the head-run
    starts and A = (2^(n-3) - 1) // 3 = 0b...0101, every other toss.  Adding S & A
    to H carries through exactly the runs that start on A, so
    H & ~(H + (S & A)) is those runs.  A head's offset is odd when it has
    the parity of its run's start, so the odd offsets >= 3 are the heads on
    A in those runs and the heads off A in the others, less the starts.
    ``gamma_from_tosses`` stays as the scalar oracle of this fold.

    >>> gamma_code(TreeCode(8, (1, 0, 1, 0, 1, 0)))   # all heads: the path on 8 letters
    4
    """
    n = code.n
    if n < 2:
        return 0
    if n < 4:
        return 1
    length = n - 3
    mask = (1 << length) - 1
    b = code.packed
    heads = (b ^ (b >> 1)) & mask
    tails = mask ^ heads
    starts = heads & ~(heads << 1)
    alternate = mask // 3
    on_alternate = heads & ~(heads + (starts & alternate))
    odd_offsets = ((on_alternate & alternate) | ((heads ^ on_alternate) & ~alternate)) & ~starts
    return (
        (tails & ~(tails << 1)).bit_count()
        + odd_offsets.bit_count()
        + (heads & 1)
        + (heads >> (length - 1))
    )


def gamma_theory(n: int) -> Moments:
    """Quoted asymptotic moments of the cover number of a random tree.

    The mean n/3 is exact up to an O(1) remainder and matches simulation.
    The 13n/50 variance is the conventionally quoted rate; it does not
    survive direct verification.  Exhaustive enumeration over all trees of
    a given size and large seeded simulations give the rate 2/27 instead,
    as does the chain derivation in the docstring of
    :func:`gamma_variance_rate`, the rate the Monte Carlo harness compares
    against.  This function keeps the quoted pair intact for reference
    output.

    >>> gamma_theory(300)
    Moments(mean=100.0, variance=78.0)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Moments(n / 3, 13 * n / 50)


def gamma_variance_rate() -> Fraction:
    """Exact asymptotic variance rate of the cover number: var/n -> 2/27.

    Derivation: write the cover number as a sum of per-position terms of
    the coin sequence (a maximal tail run starting at i contributes 1, a
    head whose within-run offset is odd and >= 3 contributes 1, plus O(1)
    boundary terms; see :func:`gamma_from_tosses`).  The per-position term
    is driven by the five-state chain (tail; head with offset 1, 2,
    odd >= 3, even >= 4) with stationary law (1/2, 1/4, 1/8, 1/12, 1/24).
    The chain central limit theorem with the fundamental-matrix correction
    gives

        sigma^2 = var(a) + 2 sum_{l >= 1} cov(a_0, a_l) = 2/9 - 4/27 = 2/27.

    The test suite checks this against exhaustive enumeration: the exact
    variance over all trees of size n equals (2/27) n minus a constant,
    10/81 in the limit.
    """
    return Fraction(2, 27)


def __getattr__(name: str):
    # The benchmark's trace looks batch_gamma up here; it lives in montecarlo,
    # and this forward goes with the shims (ROADMAP item 1).
    if name == "batch_gamma":
        return getattr(import_module(".montecarlo", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
