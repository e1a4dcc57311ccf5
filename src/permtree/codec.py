"""The insertion bijection between tree permutations and bit codes.

Every permutation whose inversion graph is a tree arises from (2, 1) by a
unique sequence of two insertion moves, one per new letter 3, 4, ..., n:

* first kind  (bit 1): insert the new largest letter n+1 between w_{n-1}
  and w_n; the new letter becomes a leaf attached to w_n and the deficit
  m = n - w_n grows by one.
* second kind (bit 0): replace the letter n by n+1 in place and append n
  at the end; {n, n+1} becomes an edge and the deficit resets to m = 1.

Histories are stored as ``TreeCode`` bit sequences of length n-2 (bit j
drives the insertion of letter j+3), so there are exactly 2^(n-2) tree
permutations of length n >= 2, and a uniform random code gives a uniform
random tree.  Codes pack little-endian into integers (bit j has weight
2^j); enumeration walks the packed integers 0 .. 2^(n-2)-1 in order.
"""
from __future__ import annotations

import json
import os
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceededError, NotATreeError
from .perm import Permutation, is_tree_permutation

DEFAULT_ENUM_CAP = 30
ENUM_CAP_ENV = "PERMTREE_ENUM_CAP"

BIT_FIRST_KIND = 1   # insert-new-max-before-last move
BIT_SECOND_KIND = 0  # replace-max-and-append move


class TreeCode:
    """Insertion history for a tree permutation of length ``n``.

    ``bits[j]`` in {0, 1} drives the insertion of letter j+3; the sequence
    has length max(n-2, 0).

    >>> TreeCode(4, (1, 0)).packed
    1
    >>> TreeCode.from_packed(4, 2).bits
    (0, 1)
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: Sequence[int]):
        n = int(n)
        if n < 1:
            raise ValueError("code length parameter n must be >= 1")
        bts = tuple(int(b) for b in bits)
        if len(bts) != max(n - 2, 0):
            raise ValueError(f"expected {max(n - 2, 0)} bits for n={n}, got {len(bts)}")
        if any(b not in (0, 1) for b in bts):
            raise ValueError("code bits must be 0 or 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bts)

    def __setattr__(self, name, value):
        raise AttributeError("TreeCode is immutable")

    @property
    def packed(self) -> int:
        """Little-endian packed integer: bit j has weight 2**j."""
        total = 0
        for j, b in enumerate(self.bits):
            total |= b << j
        return total

    @classmethod
    def from_packed(cls, n: int, value: int) -> "TreeCode":
        width = max(n - 2, 0)
        if value < 0 or value >> width:
            raise ValueError(f"packed value {value} out of range for n={n}")
        return cls(n, tuple((value >> j) & 1 for j in range(width)))

    def to_json(self) -> str:
        """Serialise as ``{"n": ..., "code": "0x..."}`` (lowercase hex)."""
        return json.dumps({"n": self.n, "code": format(self.packed, "#x")})

    @classmethod
    def from_json(cls, text: str) -> "TreeCode":
        obj = json.loads(text)
        return cls.from_packed(int(obj["n"]), int(obj["code"], 16))

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, TreeCode) and (self.n, self.bits) == (other.n, other.bits)

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"TreeCode(n={self.n}, bits={list(self.bits)})"


def insert_first_kind(perm: Permutation, check: bool = False) -> Permutation:
    """Insert letter n+1 between the last two letters.

    Result: w_1, ..., w_{n-1}, n+1, w_n.  The new letter is a leaf adjacent
    to w_n and the deficit grows: m(w') = m(w) + 1.

    >>> insert_first_kind(Permutation([2, 1])).values
    (2, 3, 1)
    """
    if check and not is_tree_permutation(perm):
        raise NotATreeError(f"not a tree permutation: {perm}")
    if perm.n < 2:
        raise ValueError("insertion needs length >= 2")
    w = perm.values
    return Permutation(w[:-1] + (perm.n + 1, w[-1]))


def insert_second_kind(perm: Permutation, check: bool = False) -> Permutation:
    """Replace letter n by n+1 in place and append n.

    Result has m = 1 and {n, n+1} as an edge; vertex n hands its old
    neighbors to n+1.

    >>> insert_second_kind(Permutation([2, 1])).values
    (3, 1, 2)
    """
    if check and not is_tree_permutation(perm):
        raise NotATreeError(f"not a tree permutation: {perm}")
    if perm.n < 2:
        raise ValueError("insertion needs length >= 2")
    n = perm.n
    w = list(perm.values)
    w[w.index(n)] = n + 1
    w.append(n)
    return Permutation(w)


def _decode_values(n: int, bits: Sequence[int]) -> list[int]:
    """Raw decode loop; assumes bits has length max(n-2, 0)."""
    if n == 1:
        return [1]
    w = [2, 1]
    max_slot = 0
    for j, b in enumerate(bits):
        cur = j + 2          # current length; new letter is cur + 1
        if b:
            w.insert(cur - 1, cur + 1)
            max_slot = cur - 1
        else:
            w[max_slot] = cur + 1
            w.append(cur)
    return w


def decode(code: TreeCode) -> Permutation:
    """Apply the insertion history starting from (2, 1) (or (1) for n=1).

    >>> decode(TreeCode(3, (1,))).values
    (2, 3, 1)
    >>> decode(TreeCode(3, (0,))).values
    (3, 1, 2)
    >>> decode(TreeCode(4, (1, 0))).values
    (2, 4, 1, 3)
    """
    return Permutation(_decode_values(code.n, code.bits))


def _encode_bits(perm: Permutation) -> list[int]:
    """Peel letters n, n-1, ..., 3 and report the move that produced each.

    Runs in O(n): the letters live in fixed slots of a doubly linked list,
    so removals never shift positions.  Assumes ``perm`` is a tree
    permutation of length >= 2.
    """
    n = perm.n
    vals = list(perm.values)
    nxt = list(range(1, n)) + [-1]
    prv = [-1] + list(range(n - 1))
    pos = [0] * (n + 1)
    for slot, v in enumerate(vals):
        pos[v] = slot
    tail = n - 1

    def unlink(slot: int) -> None:
        a, b = prv[slot], nxt[slot]
        if a != -1:
            nxt[a] = b
        if b != -1:
            prv[b] = a

    rev_bits = []
    cur = n
    while cur > 2:
        m = cur - vals[tail]
        if m > 1:
            # Reverse of the first kind: drop the largest letter.
            rev_bits.append(BIT_FIRST_KIND)
            unlink(pos[cur])
        else:
            # Reverse of the second kind: drop the last letter (cur - 1),
            # then relabel cur back down to cur - 1.
            rev_bits.append(BIT_SECOND_KIND)
            old_tail = tail
            tail = prv[tail]
            unlink(old_tail)
            slot = pos[cur]
            vals[slot] = cur - 1
            pos[cur - 1] = slot
        cur -= 1
    rev_bits.reverse()
    return rev_bits


def encode(perm: Permutation) -> TreeCode:
    """Insertion history of a tree permutation; inverse of :func:`decode`.

    Raises :class:`NotATreeError` if the inversion graph is not a tree.

    >>> encode(Permutation([2, 4, 1, 3])).bits
    (1, 0)
    >>> encode(Permutation([3, 1, 4, 2])).bits
    (0, 1)
    """
    if not is_tree_permutation(perm):
        raise NotATreeError(f"inversion graph of {perm} is not a tree")
    if perm.n == 1:
        return TreeCode(1, ())
    return TreeCode(perm.n, _encode_bits(perm))


def count_trees(n: int) -> int:
    """Exact number of tree permutations of length ``n``: 1, 1, 2, 4, 8, ...

    >>> [count_trees(n) for n in range(1, 9)]
    [1, 1, 2, 4, 8, 16, 32, 64]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 if n <= 2 else 1 << (n - 2)


def enumeration_cap() -> int:
    """Current enumeration cap (env ``PERMTREE_ENUM_CAP`` overrides 30)."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    return int(raw)


def enumerate_trees(n: int, cap: int | None = None) -> Iterator[Permutation]:
    """Yield every tree permutation of length ``n`` once, in packed-code order.

    Refuses n above the enumeration cap (2^(n-2) outputs grow fast).

    >>> [p.values for p in enumerate_trees(3)]
    [(3, 1, 2), (2, 3, 1)]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    limit = enumeration_cap() if cap is None else cap
    if n > limit:
        raise CapExceededError(f"n={n} exceeds enumeration cap {limit}")
    width = max(n - 2, 0)
    for k in range(1 << width):
        bits = [(k >> j) & 1 for j in range(width)]
        yield Permutation(_decode_values(n, bits))


def enumerate_codes(n: int, cap: int | None = None) -> Iterator[TreeCode]:
    """Yield every TreeCode for length ``n`` in packed order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    limit = enumeration_cap() if cap is None else cap
    if n > limit:
        raise CapExceededError(f"n={n} exceeds enumeration cap {limit}")
    width = max(n - 2, 0)
    for k in range(1 << width):
        yield TreeCode.from_packed(n, k)


def random_bits(rng: np.random.Generator, length: int) -> np.ndarray:
    """Canonical fair-bit draw shared by sampling and the Monte Carlo harness."""
    return rng.integers(0, 2, size=length, dtype=np.uint8)


def sample_tree(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform tree permutation of length ``n`` from n-2 fair bits.

    Uniformity is immediate from the bijection: each of the 2^(n-2) codes
    is hit with equal probability.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Permutation([1])
    bits = random_bits(rng, n - 2)
    return Permutation(_decode_values(n, bits.tolist()))


def sample_code(n: int, rng: np.random.Generator) -> TreeCode:
    """Uniform TreeCode for length ``n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return TreeCode(n, random_bits(rng, max(n - 2, 0)).tolist())
