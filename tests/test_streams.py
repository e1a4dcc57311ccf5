"""Stream identity: the harness's bulk draws equal numpy's own, bit for bit.

Every report digest rests on three draws made faster than numpy makes them:
fair bits from whole 32-bit words, one Philox re-keyed per sample instead
of a new one, and geometric draws read from a bucket table instead of
numpy's search.  Each must give the values numpy gives and leave the
generator in the state numpy leaves it, so the next draw agrees too.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    geometric_partial_sums,
    geometric_search,
    integer_bits,
    numpy_geometric,
)
from permtree.codec import random_bits
from permtree.montecarlo import (
    _GEOMETRIC_BUCKETS,
    _MAX_INDEX,
    _geometric,
    substream,
    substreams,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**64 - 1)
# numpy switches from its search to inversion below p = 1/3; q = 2/3 gives
# p = 0.33333333333333337, still the search
EDGE_QS = [2 / 3, math.nextafter(2 / 3, 0), math.nextafter(2 / 3, 1), 0.5, 1e-9, 1 - 1e-9]


def _pair(seed):
    """Two generators on one stream."""
    return (np.random.Generator(np.random.Philox(seed)) for _ in range(2))


def _same_state(a, b):
    return str(a.bit_generator.state) == str(b.bit_generator.state) and a.random() == b.random()


def test_random_bits_short_lengths():
    for length in range(65):
        ours, theirs = _pair(length)
        bits = random_bits(ours, length)
        expected = integer_bits(theirs, length)
        assert bits.dtype == expected.dtype and np.array_equal(bits, expected), length
        assert _same_state(ours, theirs), length


@PROPERTY
@given(seed=SEEDS, length=st.one_of(st.integers(0, 64), st.integers(65, 10_000)))
def test_random_bits_equal_integer_draw(seed, length):
    ours, theirs = _pair(seed)
    assert np.array_equal(random_bits(ours, length), integer_bits(theirs, length))
    assert _same_state(ours, theirs)


@pytest.mark.parametrize("domain, error", [(261, ValueError), (-251, ValueError), (True, TypeError)])
def test_domain_outside_one_byte_rejected(domain, error):
    # masked to one byte, 261 and -251 would draw gamma's streams (tag 5), True tag 1's
    with pytest.raises(error):
        substream(7, domain, 3)


def test_random_bits_rejects_negative_length():
    with pytest.raises(ValueError):
        random_bits(np.random.default_rng(0), -1)


@PROPERTY
@given(
    seed=SEEDS,
    # two statistics, the streams of ``permtree sample`` and the sampled cover check's
    domain=st.sampled_from(["gamma", "runs_geometric", "sample", 8, 9]),
    start=st.one_of(st.integers(0, 10**6), st.integers(_MAX_INDEX - 8, _MAX_INDEX - 1)),
    lengths=st.lists(st.integers(0, 300), min_size=0, max_size=8),
)
def test_substreams_equal_substream(seed, domain, start, lengths):
    count = min(len(lengths), _MAX_INDEX - start)
    seen = 0
    for i, rng in enumerate(substreams(seed, domain, start, count)):
        fresh = substream(seed, domain, start + i)
        assert str(rng.bit_generator.state) == str(fresh.bit_generator.state)
        # uneven lengths leave a spare 32-bit half or a part-used buffer behind
        assert np.array_equal(random_bits(rng, lengths[i]), integer_bits(fresh, lengths[i]))
        assert rng.random() == fresh.random()
        seen += 1
    assert seen == count


@PROPERTY
@given(
    seed=SEEDS,
    q=st.one_of(st.floats(0.5, 0.8), st.floats(1e-9, 1 - 1e-9), st.sampled_from(EDGE_QS)),
    size=st.one_of(st.integers(0, 3), st.integers(4, 5000)),
)
def test_geometric_equals_numpy(seed, q, size):
    ours, theirs = _pair(seed)
    assert np.array_equal(_geometric(ours, q, size), numpy_geometric(theirs, q, size))
    assert _same_state(ours, theirs)


@pytest.mark.parametrize("q", [2 / 3, 0.6, 0.3, 0.5])
def test_geometric_search_oracle_is_numpy(q):
    ours, theirs = _pair(11)
    u = ours.random(2000)
    expected = numpy_geometric(theirs, q, 2000)
    assert [geometric_search(1.0 - q, x) for x in u] == expected.tolist()


class _Doubles:
    """A generator stand-in whose ``random`` returns fixed doubles."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@PROPERTY
@given(q=st.one_of(st.floats(1e-9, 2 / 3), st.sampled_from([2 / 3, 0.5, 0.6, 1e-9])))
def test_geometric_at_partial_sums_and_bucket_edges(q):
    """Doubles on, and one ulp either side of, each partial sum and its bucket edges."""
    p = 1.0 - q
    sums = geometric_partial_sums(p, 200)
    points = {0.0}
    for s in sums:
        edge = math.floor(s * _GEOMETRIC_BUCKETS) / _GEOMETRIC_BUCKETS
        for x in (s, edge, edge + 1 / _GEOMETRIC_BUCKETS):
            points.update((x, math.nextafter(x, 0), math.nextafter(x, 1)))
    # numpy's search never ends for a double above the sum where it stalls
    u = sorted(x for x in points if 0.0 <= x <= sums[-1] and x < 1.0)
    assert _geometric(_Doubles(u), q, len(u)).tolist() == [geometric_search(p, x) for x in u]
