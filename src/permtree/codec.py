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
random tree.  The code of a tree permutation is also its left-to-right
maxima flags at positions 2..n-1, which is how :func:`encode` reads it.
Codes pack little-endian into integers (bit j has weight 2^j);
enumeration walks the packed integers 0 .. 2^(n-2)-1 in order.
"""
from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import CapExceededError, NotATreeError
from .perm import Permutation, int_entries

if TYPE_CHECKING:  # the caller's generator brings numpy with it
    import numpy as np

ENUM_CAP = 30
# bit values <-> ASCII binary digits, for packing through int(..., 2)
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


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
        if isinstance(n, bool):
            raise TypeError("code length parameter n must be an integer, not a bool")
        n = operator.index(n)
        if n < 1:
            raise ValueError("code length parameter n must be >= 1")
        bts = int_entries(bits)
        if len(bts) != max(n - 2, 0):
            raise ValueError(f"expected {max(n - 2, 0)} bits for n={n}, got {len(bts)}")
        if not {0, 1}.issuperset(bts):
            raise ValueError("code bits must be 0 or 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bts)

    def __setattr__(self, name, value):
        raise AttributeError("TreeCode is immutable")

    @property
    def packed(self) -> int:
        """Little-endian packed integer: bit j has weight 2**j."""
        return int(bytes(self.bits[::-1]).translate(_TO_DIGITS) or b"0", 2)

    @classmethod
    def from_packed(cls, n: int, value: int) -> "TreeCode":
        width = max(n - 2, 0)
        if value < 0 or value >> width:
            raise ValueError(f"packed value {value} out of range for n={n}")
        digits = format(value, f"0{width}b")[::-1][:width]
        return cls(n, digits.encode().translate(_FROM_DIGITS))

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, TreeCode) and (self.n, self.bits) == (other.n, other.bits)

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"TreeCode(n={self.n}, bits={list(self.bits)})"


def _decode_values(n: int, bits: Sequence[int]) -> list[int]:
    """Raw decode loop; assumes bits has length max(n-2, 0).

    Both moves leave the last letter behind the rest, so it is held apart
    from the body: a first-kind move appends the new letter to the body, a
    second-kind move overwrites the body slot of the largest letter and
    appends the old last letter.
    """
    if n == 1:
        return [1]
    body = [2]
    last = 1
    max_slot = 0
    new = 2
    for b in bits:
        new += 1
        if b:
            max_slot = len(body)
            body.append(new)
        else:
            body[max_slot] = new
            body.append(last)
            last = new - 1
    body.append(last)
    return body


def decode(code: TreeCode) -> Permutation:
    """Apply the insertion history starting from (2, 1) (or (1) for n=1).

    >>> decode(TreeCode(3, (1,))).values
    (2, 3, 1)
    >>> decode(TreeCode(3, (0,))).values
    (3, 1, 2)
    >>> decode(TreeCode(4, (1, 0))).values
    (2, 4, 1, 3)

    The result records ``code.bits`` as its source, so :func:`code_flags`
    on it reads the flags off the values but does not decode them again
    when they equal that source.
    """
    perm = Permutation(_decode_values(code.n, code.bits))
    object.__setattr__(perm, "_source", code.bits)
    return perm


def code_flags(perm: Permutation) -> list[int]:
    """The code of a tree permutation, read as its interior flags.

    Letter k+1 was inserted by the first-kind move exactly when position k
    holds a left-to-right maximum, so the code is the flags at positions
    2..n-1, read in one pass that carries the running maximum.  Decoding is
    a bijection onto the tree permutations, so the flags decode back to
    ``perm`` exactly when ``perm`` is a tree; otherwise raises
    :class:`NotATreeError`.

    When :func:`decode` built ``perm`` from code bits equal to the flags,
    that decode is this check: decoding the flags would decode the same
    bits again.  So the flags are always read off the values, and only
    their decode is skipped; flags that differ from the source, and every
    permutation that :func:`decode` did not build, get the full check.

    A checked code is kept on ``perm``, so a later call on the same object
    returns a copy without reading the values again; only this check fills it.

    >>> code_flags(Permutation([2, 5, 1, 3, 6, 7, 11, 4, 8, 9, 10]))
    [1, 0, 0, 1, 1, 1, 0, 0, 0]
    """
    checked = getattr(perm, "_code", None)
    if checked is not None:
        return list(checked)
    w = perm.values
    flags = []
    top = w[0]
    for v in w[1:-1]:
        if v > top:
            top = v
            flags.append(1)
        else:
            flags.append(0)
    code = tuple(flags)
    if code != getattr(perm, "_source", None) and _decode_values(perm.n, flags) != list(w):
        raise NotATreeError(f"inversion graph of {perm} is not a tree")
    object.__setattr__(perm, "_code", code)
    return flags


def encode(perm: Permutation) -> TreeCode:
    """Insertion history of a tree permutation; inverse of :func:`decode`.

    Raises :class:`NotATreeError` if the inversion graph is not a tree.

    >>> encode(Permutation([2, 4, 1, 3])).bits
    (1, 0)
    >>> encode(Permutation([3, 1, 4, 2])).bits
    (0, 1)
    """
    return TreeCode(perm.n, code_flags(perm))


def count_trees(n: int) -> int:
    """Exact number of tree permutations of length ``n``: 1, 1, 2, 4, 8, ...

    >>> [count_trees(n) for n in range(1, 9)]
    [1, 1, 2, 4, 8, 16, 32, 64]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 if n <= 2 else 1 << (n - 2)


def enumerate_trees(n: int) -> Iterator[Permutation]:
    """Yield every tree permutation of length ``n`` once, in packed-code order.

    Refuses n above ``ENUM_CAP`` (2^(n-2) outputs grow fast).

    >>> [p.values for p in enumerate_trees(3)]
    [(3, 1, 2), (2, 3, 1)]
    """
    return map(decode, enumerate_codes(n))


def enumerate_codes(n: int) -> Iterator[TreeCode]:
    """Every TreeCode for length ``n`` in packed order, as an iterator.

    ``n`` and the cap are checked when this is called, not when the
    iterator is first read, so a refused request yields nothing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUM_CAP:
        raise CapExceededError(f"n={n} exceeds enumeration cap {ENUM_CAP}")
    return (TreeCode.from_packed(n, k) for k in range(1 << max(n - 2, 0)))


def random_bits(rng: np.random.Generator, length: int) -> np.ndarray:
    """Canonical fair-bit draw shared by sampling and the Monte Carlo harness.

    The bits are ``rng.integers(0, 2, length, dtype="u1")``.  numpy
    draws those as the top bit of each byte of successive 32-bit words, low
    byte first, and drops the unused bytes of the last word; drawing the
    words whole gives the same bits and leaves ``rng`` in the same state.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    words = rng.integers(0, 1 << 32, size=(length + 3) // 4, dtype="u4")
    return words.astype("<u4", copy=False).view("u1")[:length] >> 7


def sample_code(n: int, rng: np.random.Generator) -> TreeCode:
    """Uniform TreeCode for length ``n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return TreeCode(n, random_bits(rng, max(n - 2, 0)).tolist())
