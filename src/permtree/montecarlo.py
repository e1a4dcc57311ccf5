"""Seeded Monte Carlo harness with deterministic, worker-independent reports.

Every sample gets its own Philox-4x64 generator keyed counter-style by
(master seed, tagged sample index): the 128-bit key is the pair

    key = (seed, domain << 56 | sample_index),

so substreams are pairwise independent by construction, no substream is
shared between statistics, and sample i's draw does not depend on chunk
boundaries or worker count.  :func:`substreams` re-keys one generator for
each sample of a range (counter 0, empty buffers): the stream of
:func:`substream` at a third of the cost of a new ``Philox``.  That one
walk serves ``permtree stats``, ``permtree sample`` and the sampled
cover-number check.  Aggregation is exact integer arithmetic, so a report
is a pure function of its configuration, whatever the parallelism.

Each statistic is one entry of :data:`REGISTRY`, keyed by its canonical
name: its Philox domain tag, its ``permtree stats --stat`` name, the
smallest n it accepts, the configuration parameters it reads (and
reports), the draw of one row per sample (the n - 2 code bits unless
stated), the chunk kernel and the report builder.  :func:`_compute_chunk`
walks the streams and stacks the rows; a kernel is a pure function of that
matrix and returns one statistic row per sample (a value or a count
vector), and the report reads every chunk's rows concatenated.  Coin
statistics are read from the code bits through one run-length encoding per
chunk (:func:`toss_runs`) and its projections (:class:`TossRuns`); every
theoretical number placed in a report comes from the closed-form
operations of :mod:`permtree.stats` and :mod:`permtree.cover`.  This is
the one module that imports numpy: the exact layer never loads it.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import SCHEMA
from . import cover as _cover
from . import stats as _stats
from .codec import random_bits
from .errors import EmptyHistogramError, InvalidConfigError, TooFewSamplesError

CHUNK = 1024  # rows per chunk at n <= 512; results do not depend on it
_CHUNK_TOSSES = 1 << 19  # per-chunk toss budget: fewer rows above n = 512

_MAX_INDEX = 1 << 56
_INT64_LIMIT = 1 << 63
_SAMPLE_TAG = 8  # the streams of ``permtree sample``
_GEOMETRIC_BUCKETS = 1 << 16

MAXDEG_K_RANGE = tuple(range(-2, 7))
WINDOW_K_MAX = 6
DEGREE_K_MAX = 64  # largest dcensus kmax: each column is kept for every sample

# the bounds of the report gates; every report lists them under "tolerances"
TOLERANCES = MappingProxyType({
    "z_limit": 3.0,
    "chi2_quantile": 0.999,
    "cov_abs": 0.02,
    "cdf_abs": 0.02,
    "ks_limit": 0.01,
    "gamma_mean_abs": 0.005,
    "gamma_var_abs": 0.01,
})


def substream(seed: int, domain: int | str, index: int) -> np.random.Generator:
    """Independent per-sample generator from (seed, domain, index).

    A string domain is a statistic's canonical name, resolved to its
    :data:`REGISTRY` tag, or ``"sample"``.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, domain, index)))


def substreams(seed: int, domain: int | str, start: int, count: int):
    """Generators of samples start .. start+count-1 of ``domain`` under ``seed``.

    Each is ``substream(seed, domain, start + i)`` in stream and state, but
    all are one generator re-keyed in place: finish drawing from one sample
    before advancing to the next.
    """
    rng = substream(seed, domain, start)
    bit_generator = rng.bit_generator
    fresh = bit_generator.state  # counter 0, empty buffers, no spare 32-bit half
    for index in range(start, start + count):
        fresh["state"]["key"] = _key(seed, domain, index)
        bit_generator.state = fresh
        yield rng


def check_seed(seed: int, bits: int = 64, name: str = "seed") -> None:
    """Reject a seed, or another key part of ``bits`` bits, that would alias a valid one.

    A non-integer or a bool (``TypeError``) would be truncated or read as
    0 or 1, a value outside [0, 2**bits) masked or taken modulo 2**bits.
    """
    if not 0 <= _integer(seed, name) < 1 << bits:
        raise InvalidConfigError(f"{name} must lie in [0, 2**{bits})")


def check_sample_count(count: int, name: str = "samples") -> None:
    """Reject more samples than the substream index space holds: one index per sample."""
    if count > _MAX_INDEX:
        raise InvalidConfigError(
            f"{name} must be at most 2**{_MAX_INDEX.bit_length() - 1}, the substream index space")


def _integer(value, name: str) -> int:
    """``value`` as a Python int; a bool or a non-integer raises ``TypeError``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


def _key(seed: int, domain: int | str, index: int) -> np.ndarray:
    """The Philox key of sample ``index`` of ``domain`` under ``seed``."""
    check_seed(seed)
    check_seed(index, 56, "sample index")
    if isinstance(domain, str):
        domain = _SAMPLE_TAG if domain == "sample" else REGISTRY[domain].domain
    check_seed(domain, 8, "domain tag")
    return np.array([seed, (domain << 56) | index], dtype=np.uint64)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    samples: int
    seed: int
    statistic: str
    q: float | None = None
    m: int = 5
    kmax: int = 8
    workers: int = 1

    def __post_init__(self):
        # numpy integers are stored as Python ints, which the report's JSON takes
        for name in ("n", "samples", "seed", "m", "kmax", "workers"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.q is not None:
            # a bool is no probability; a numpy float or a Fraction would reach the report's JSON
            if isinstance(self.q, bool) or not isinstance(self.q, numbers.Real):
                raise TypeError(f"q must be a real number, not {type(self.q).__name__}")
            object.__setattr__(self, "q", float(self.q))
        entry = REGISTRY.get(self.statistic)
        if entry is None:
            raise InvalidConfigError(f"unknown statistic {self.statistic!r}")
        check_seed(self.seed)
        if self.samples < 1:
            raise InvalidConfigError("samples must be >= 1")
        check_sample_count(self.samples)
        if self.workers < 1:
            raise InvalidConfigError("workers must be >= 1")
        if "q" in entry.params and (self.q is None or not 0.0 < self.q < 1.0):
            raise InvalidConfigError(f"{self.statistic} needs q strictly between 0 and 1")
        if self.n < entry.min_n:
            raise InvalidConfigError(f"{self.statistic} needs n >= {entry.min_n}")
        if "m" in entry.params:
            if not 1 <= self.m <= 8:
                raise InvalidConfigError(f"{self.statistic} supports 1 <= m <= 8")
            # a covariance of the m degree counts needs two samples
            if self.samples < 2:
                raise InvalidConfigError(f"{self.statistic} needs at least 2 samples")
        if "kmax" in entry.params and not 1 <= self.kmax <= DEGREE_K_MAX:
            raise InvalidConfigError(f"{self.statistic} supports 1 <= kmax <= {DEGREE_K_MAX}")
        # each squared count or cross product is at most n^2, summed in int64
        if entry.squares and self.samples * self.n**2 >= _INT64_LIMIT:
            raise InvalidConfigError(
                f"{self.statistic} needs samples * n**2 < 2**63 for its int64 sums of squares"
            )

    def to_dict(self) -> dict:
        out = asdict(self)
        # workers is an execution detail: reports are byte-identical across
        # worker counts, so it must not leak into the report
        out.pop("workers")
        params = REGISTRY[self.statistic].params
        for name in ("q", "m", "kmax"):
            if name not in params:
                out.pop(name)
        out["tolerances"] = dict(TOLERANCES)
        return out


@dataclass(frozen=True)
class StatReport:
    config: dict
    empirical: dict
    theory: dict
    tests: list
    verdict: str
    schema: str = SCHEMA

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> str:
        # strict JSON: a NaN or an infinity in a report is a bug and raises ValueError
        return json.dumps(vars(self), sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Run-length encoding of toss matrices (rows = samples, True = heads)
# ---------------------------------------------------------------------------


def tosses_from_codes(bits: np.ndarray) -> np.ndarray:
    """Heads matrix of the coin sequences coupled to rows of code bits."""
    if bits.ndim != 2 or bits.shape[1] < 2:
        raise ValueError("need a matrix of at least two code bits per row")
    return bits[:, 1:] != bits[:, :-1]


@dataclass(frozen=True)
class TossRuns:
    """Run-length encoding of a toss matrix (rows = samples, True = heads).

    ``length`` and ``tail`` describe every maximal constant run of every
    row, in row-major order; row i owns the runs ``start[i]:start[i + 1]``.
    Each method is one projection of the encoding, one value (or one
    histogram row) per toss row.
    """

    width: int
    length: np.ndarray  # int32 run lengths
    tail: np.ndarray  # True for a run of tails
    start: np.ndarray  # int64 run offsets, one per row plus the end

    @property
    def rows(self) -> int:
        return self.start.size - 1

    def _row_reduce(self, ufunc: np.ufunc, per_run: np.ndarray, dtype=None) -> np.ndarray:
        if per_run.size == 0:  # zero-width rows own no runs
            return np.zeros(self.rows, dtype=np.int64)
        return ufunc.reduceat(per_run, self.start[:-1], dtype=dtype).astype(np.int64)

    def _row_sum(self, per_run: np.ndarray) -> np.ndarray:
        # no row sums past its width < 2^31: int32 accumulation spares the
        # int64 copy of the whole input that np.add.reduceat makes by default
        if per_run.dtype == bool:
            per_run = per_run.view(np.int8)
        return self._row_reduce(np.add, per_run, np.int32)

    def _row_histogram(self, mask: np.ndarray, lo: int, columns: int) -> np.ndarray:
        """(rows, columns) counts of the runs in ``mask`` by length lo .. lo+columns-1."""
        sel = mask & (self.length >= lo)
        sel &= self.length < lo + columns
        row = np.repeat(np.arange(self.rows, dtype=np.int32), self._row_sum(sel))
        row *= columns
        row += np.compress(sel, self.length)
        row -= lo
        counts = np.bincount(row, minlength=self.rows * columns)
        return counts.reshape(self.rows, columns)

    def head_count(self) -> np.ndarray:
        return self._row_sum(np.where(self.tail, 0, self.length))

    def tail_runs(self) -> np.ndarray:
        """Number of maximal tail runs."""
        return self._row_sum(self.tail)

    def longest_tail_run(self) -> np.ndarray:
        """Longest run of tails, 0 for an all-heads row (Schilling 1990)."""
        return self._row_reduce(np.maximum, np.where(self.tail, self.length, 0))

    def tail_run_histogram(self, rmax: int) -> np.ndarray:
        """Column r-1 counts the maximal tail runs of length exactly r, r = 1 .. rmax."""
        return self._row_histogram(self.tail, 1, rmax)

    def window_counts(self, kmax: int) -> np.ndarray:
        """Column k-1 counts the windows H T^(k-1) H, k = 1 .. kmax.

        For k >= 2 these are the interior tail runs (neither first nor last
        in the row) of length k-1; k = 1 counts adjacent heads, the head
        runs' lengths less one.
        """
        interior = self.tail.copy()
        if interior.size:
            interior[self.start[:-1]] = False
            interior[self.start[1:] - 1] = False
        out = self._row_histogram(interior, 0, kmax)
        adjacent_heads = self.length - 1
        adjacent_heads *= ~self.tail
        out[:, 0] = self._row_sum(adjacent_heads)
        return out

    def degree_counts(self, n: int, kmax: int) -> np.ndarray:
        """Degree census columns D_1 .. D_kmax for trees of size n.

        A size-k block of the coupled code is one degree-(k+1) vertex and a
        size-k block with k >= 2 is a tail run of length k-1.
        """
        if self.width != n - 3:
            raise ValueError(f"expected n-3 = {n - 3} tosses per row, got {self.width}")
        out = np.zeros((self.rows, kmax), dtype=np.int64)
        nblocks = 1 + self.head_count()
        out[:, 0] = n - nblocks
        if kmax >= 2:
            out[:, 1] = nblocks - self.tail_runs()
        if kmax >= 3:
            out[:, 2:] = self.tail_run_histogram(kmax - 2)
        return out

    def cover_number(self) -> np.ndarray:
        """Cover number per row; :func:`permtree.cover.gamma_from_tosses` per run.

        A tail run counts one, a head run of length L counts floor((L-1)/2),
        and each row end that is a head counts one.
        """
        if self.width < 1:
            raise ValueError("need at least one toss per row (trees of size >= 4)")
        odd_far_heads = self.length - 1
        odd_far_heads >>= 1
        odd_far_heads *= ~self.tail
        total = self._row_sum(odd_far_heads) + self.tail_runs()
        total += ~self.tail[self.start[:-1]]
        total += ~self.tail[self.start[1:] - 1]
        return total


def toss_runs(heads: np.ndarray) -> TossRuns:
    """Encode every row of a toss matrix into its maximal constant runs.

    One pass over the whole matrix: a run starts wherever a toss differs
    from its predecessor and at every row start; its kind follows from the
    row's first toss by alternation.  Memory grows linearly with the
    matrix, so callers bound it: the Monte Carlo harness encodes one chunk
    at a time.
    """
    rows, width = heads.shape
    flat = heads.reshape(-1)
    if flat.size == 0:  # zero-width rows own no runs
        return TossRuns(width, np.zeros(0, np.int32), np.zeros(0, bool), np.zeros(rows + 1, np.int64))
    edge = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edge[1:])
    edge[::width] = True
    starts = np.flatnonzero(edge)
    length = np.empty(starts.size, dtype=np.int32)
    np.subtract(starts[1:], starts[:-1], out=length[:-1], casting="unsafe")
    length[-1] = flat.size - starts[-1]
    start = np.searchsorted(starts, np.arange(0, flat.size + 1, width))
    # run j is tails iff j is odd xor the row's phase (the row opens with
    # tails xor its first run's index is odd); cheaper than ~flat[starts]
    phase = ~heads[:, 0] ^ (start[:-1] & 1).astype(bool)
    tail = np.zeros(starts.size, dtype=bool)
    tail[1::2] = True
    tail ^= np.repeat(phase, np.diff(start))
    return TossRuns(width, length, tail, start)


# Shims with no caller in src: the benchmark's trace names them (as stats.batch_*
# and cover.batch_gamma) until ROADMAP item 1 deletes them.
def batch_head_count(heads: np.ndarray) -> np.ndarray:
    return toss_runs(heads).head_count()


def batch_longest_tail_run(heads: np.ndarray) -> np.ndarray:
    return toss_runs(heads).longest_tail_run()


def batch_tail_run_starts(heads: np.ndarray) -> np.ndarray:
    return toss_runs(heads).tail_runs()


def batch_tail_runs_equal(heads: np.ndarray, r: int) -> np.ndarray:
    if r < 1:
        raise ValueError("run length must be >= 1")
    return toss_runs(heads).tail_run_histogram(r)[:, r - 1]


def batch_window_counts(heads: np.ndarray, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError("window parameter k must be >= 1")
    return toss_runs(heads).window_counts(k)[:, k - 1]


def batch_degree_counts(heads: np.ndarray, n: int, kmax: int) -> np.ndarray:
    return toss_runs(heads).degree_counts(n, kmax)


def batch_gamma(heads: np.ndarray) -> np.ndarray:
    return toss_runs(heads).cover_number()


# ---------------------------------------------------------------------------
# Sample generation
# ---------------------------------------------------------------------------


def _code_bits(config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """One sample's row: the n - 2 bits of a uniform code."""
    return random_bits(rng, config.n - 2)


def _coin_runs(bits: np.ndarray) -> TossRuns:
    return toss_runs(tosses_from_codes(bits))


def _diam_chunk(config: ExperimentConfig, bits: np.ndarray) -> np.ndarray:
    if config.n <= 3:
        # no tosses: the only tree is the path on n vertices
        return np.full(len(bits), config.n - 1, dtype=np.int64)
    return tosses_from_codes(bits).sum(axis=1, dtype=np.int64) + 2


def _leaves_chunk(config: ExperimentConfig, bits: np.ndarray) -> np.ndarray:
    # a caterpillar's spine holds its non-leaves: leaves = n + 1 - diameter
    return config.n + 1 - _diam_chunk(config, bits)


def _maxdeg_chunk(config: ExperimentConfig, bits: np.ndarray) -> np.ndarray:
    return _coin_runs(bits).longest_tail_run() + 2


def _gamma_chunk(config: ExperimentConfig, bits: np.ndarray) -> np.ndarray:
    return _coin_runs(bits).cover_number()


def _dcensus_chunk(config: ExperimentConfig, bits: np.ndarray) -> np.ndarray:
    """Columns D_1 .. D_kmax, then the window counts k = 1 .. WINDOW_K_MAX."""
    runs = _coin_runs(bits)
    return np.hstack([runs.degree_counts(config.n, config.kmax), runs.window_counts(WINDOW_K_MAX)])


def _dcov_chunk(config: ExperimentConfig, bits: np.ndarray) -> np.ndarray:
    return _coin_runs(bits).degree_counts(config.n, config.m)


@lru_cache(maxsize=8)
def _geometric_table(q: float) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums and bucket table of numpy's geometric search at ``p = 1 - q``.

    numpy draws a geometric with p >= 1/3 as the least X with U <= S_X for
    one ``random()`` double U, where S_1 = p and S_(k+1) = S_k + p r^k with
    r = 1 - p, the product and the sum rounded step by step.  The sums are
    built here in that float order, up to the first that no longer grows
    (numpy's search never ends for a U above it).
    Entry b of the table is X for every U in [b, b + 1) / 2^16, or 0 where
    a partial sum splits that bucket.
    """
    p = 1.0 - q
    r = 1.0 - p
    sums = [p]
    prod = p
    while True:
        prod *= r
        total = sums[-1] + prod
        if total == sums[-1]:
            break
        sums.append(total)
    sums = np.array(sums)
    # X - 1 = #{k : S_k < U}, constant over a bucket whose two edges agree
    cut = np.searchsorted(sums, np.arange(_GEOMETRIC_BUCKETS + 1) / _GEOMETRIC_BUCKETS)
    table = np.where(cut[:-1] == cut[1:], cut[:-1] + 1, 0).astype(np.int16)
    sums.flags.writeable = table.flags.writeable = False
    return sums, table


def _geometric(rng: np.random.Generator, q: float, size: int) -> np.ndarray:
    """The values of ``rng.geometric(1 - q, size)``, leaving ``rng`` in the same state.

    Below p = 1/3 numpy inverts an exponential draw, which is left to it;
    from p = 1/3 up its search is read from :func:`_geometric_table`.
    """
    if 1.0 - q < 1 / 3:
        return rng.geometric(1.0 - q, size=size)
    sums, table = _geometric_table(q)
    u = rng.random(size)
    draws = table[(u * _GEOMETRIC_BUCKETS).astype(np.intp)]
    split = draws == 0
    if split.any():
        draws[split] = np.searchsorted(sums, u[split]) + 1
    return draws


def _runs_geometric_chunk(config: ExperimentConfig, draws: np.ndarray) -> np.ndarray:
    return 1 + np.count_nonzero(draws[:, 1:] != draws[:, :-1], axis=1)


def _compute_chunk(task: tuple) -> np.ndarray:
    """One statistic row per sample; pure function of (config, start, count).

    The one stream walk: the rows of the statistic's ``draw``, one per
    sample, stacked into the matrix its kernel reads.
    """
    config, start, count = task
    entry = REGISTRY[config.statistic]
    rows = None
    for i, rng in enumerate(substreams(config.seed, entry.domain, start, count)):
        row = entry.draw(config, rng)
        if rows is None:
            rows = np.empty((count, row.size), dtype=row.dtype)
        rows[i] = row
    return entry.kernel(config, rows)


def _chunk_rows(n: int) -> int:
    """Samples per chunk: CHUNK, or fewer so that rows * n <= _CHUNK_TOSSES."""
    return min(CHUNK, max(1, _CHUNK_TOSSES // n))


def _gather(config: ExperimentConfig) -> np.ndarray:
    """The statistic rows of every sample, in sample order."""
    rows = _chunk_rows(config.n)
    tasks = [
        (config, start, min(rows, config.samples - start))
        for start in range(0, config.samples, rows)
    ]
    if config.workers <= 1 or len(tasks) == 1:
        return np.concatenate([_compute_chunk(t) for t in tasks])
    import multiprocessing as mp

    with mp.Pool(min(config.workers, len(tasks))) as pool:
        return np.concatenate(pool.map(_compute_chunk, tasks))


# ---------------------------------------------------------------------------
# Test helpers
# ---------------------------------------------------------------------------


def chi_square(observed: Mapping[int, int], expected: Mapping[int, float]) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom with small-bin merging.

    ``observed`` maps values to counts, ``expected`` maps values to
    probability masses.  Rules: an observation at a value of zero expected
    mass is impossible under the model and makes the statistic infinite;
    otherwise adjacent bins (in value order, over the union of supports)
    are merged until each carries expected count at least 5,
    with a light trailing bin merged backwards.
    """
    total = sum(observed.values())
    if total == 0:
        raise EmptyHistogramError("no observations")
    support = sorted(set(observed) | set(expected))
    impossible = any(
        observed.get(v, 0) > 0 and float(expected.get(v, 0.0)) == 0.0 for v in support
    )
    merged: list[tuple[int, float]] = []
    obs_acc = 0
    exp_acc = 0.0
    for v in support:
        obs_acc += observed.get(v, 0)
        exp_acc += total * float(expected.get(v, 0.0))
        if exp_acc >= 5:
            merged.append((obs_acc, exp_acc))
            obs_acc = 0
            exp_acc = 0.0
    if obs_acc or exp_acc:
        if merged:
            o, e = merged[-1]
            merged[-1] = (o + obs_acc, e + exp_acc)
        else:
            merged.append((obs_acc, exp_acc))
    dof = max(len(merged) - 1, 0)
    if impossible:
        return math.inf, dof
    stat = 0.0
    for o, e in merged:
        if e <= 0.0:
            continue
        stat += (o - e) ** 2 / e
    return stat, dof


def normality_check(values) -> dict:
    """Distance of the standardized sample from the standard normal.

    Standardizes by the sample mean and deviation, then reports the
    maximum CDF deviation (two-sided sup over the sorted sample) plus
    skewness and excess kurtosis.  Needs at least 1000 values and a
    nondegenerate spread.  Acceptance thresholds live in
    :data:`TOLERANCES`, not here.
    """
    from scipy.special import ndtr  # deferred: scipy.special dominates a cold import

    arr = np.asarray(values, dtype=np.float64)
    count = arr.size
    if count < 1000:
        raise TooFewSamplesError(f"normality check needs >= 1000 values, got {count}")
    mean = arr.mean()
    std = arr.std()
    if std == 0.0:
        raise ValueError("degenerate sample: zero variance")
    z = np.sort((arr - mean) / std)
    cdf = ndtr(z)
    upper = np.arange(1, count + 1) / count
    lower = np.arange(0, count) / count
    ks = float(np.max(np.maximum(upper - cdf, cdf - lower)))
    centered = arr - mean
    skew = float((centered**3).mean() / std**3)
    kurt = float((centered**4).mean() / std**4 - 3.0)
    return {"count": int(count), "ks": ks, "skewness": skew, "excess_kurtosis": kurt}


def _test(name: str, kind: str, value: float | None, limit: float, **fields) -> dict:
    """One gate of a report: it passes when ``value <= limit``; a ``None`` value fails."""
    return {"name": name, "kind": kind, "value": value, "limit": limit,
            "pass": value is not None and bool(value <= limit), **fields}


def _z_test(name: str, emp: float, theory: float, se: float, limit: float) -> dict:
    if se == 0.0:
        # no spread to scale by: off theory the z score has no value (JSON null) and fails
        value = 0.0 if emp == theory else None
    else:
        value = abs(emp - theory) / se
    return _test(name, "z", value, limit, empirical=emp, theory=theory)


def _abs_test(name: str, emp: float, theory: float, limit: float) -> dict:
    return _test(name, "abs", abs(emp - theory), limit, empirical=emp, theory=theory)


def _add_shape(empirical: dict, tests: list, key: str, values: np.ndarray, limit: float) -> None:
    """Normality score as ``empirical[key]``, gated as ``{key}_ks`` when the lattice resolves it.

    Integer statistics sit on a lattice whose CDF jumps are about 0.4 per
    standard deviation; the sup-deviation test only gates once the spread
    makes the limit attainable (std * limit >= 0.25).
    """
    arr = np.asarray(values)
    std = arr.std()
    if arr.size < 1000 or std == 0.0:
        return
    empirical[key] = normality_check(arr)
    if std * limit >= 0.25:
        tests.append(_test(f"{key}_ks", "ks", empirical[key]["ks"], limit))


def _mean_tests(
    prefix: str, counts: np.ndarray, theory: Mapping[int, float], limit: float
) -> dict[int, dict]:
    """z gates ``{prefix}_{k}`` on column k - 1's mean, from exact int64 sums and squares."""
    count = len(counts)
    sums = counts.sum(axis=0)
    sumsqs = (counts * counts).sum(axis=0)
    gates = {}
    for k, th_mean in theory.items():
        emp_mean = float(sums[k - 1]) / count
        se = 0.0
        if count > 1:
            emp_var = (float(sumsqs[k - 1]) - count * emp_mean**2) / (count - 1)
            se = math.sqrt(max(emp_var, 0.0) / count)
        gates[k] = _z_test(f"{prefix}_{k}", emp_mean, th_mean, se, limit)
    return gates


def _by_k(gates: Mapping[int, dict], side: str) -> dict[str, float]:
    """The ``empirical`` or ``theory`` field of per-k gates, keyed by ``str(k)``."""
    return {str(k): gate[side] for k, gate in gates.items()}


def _moments_from_values(values: np.ndarray) -> tuple[float, float, float]:
    """Mean, unbiased variance, and fourth central moment."""
    count = values.size
    mean = float(values.mean())
    centered = values.astype(np.float64) - mean
    var = float((centered**2).sum() / (count - 1)) if count > 1 else 0.0
    m4 = float((centered**4).mean())
    return mean, var, m4


def _histogram(values: np.ndarray) -> dict[int, int]:
    uniq, cnt = np.unique(values, return_counts=True)
    return {int(v): int(c) for v, c in zip(uniq, cnt)}


def _binomial_pmf_window(n: int, values: np.ndarray, mean: float, sd: float) -> dict[int, float]:
    """Law 2 + Binomial(n-3, 1/2) over the observed range widened to +-8 sd.

    Leaves and diameter share it: their laws reflect into each other and the
    binomial is symmetric.  One ``math.comb`` opens the window and the exact
    recurrence C(N, j+1) = C(N, j) (N-j) / (j+1) walks it, so every entry is
    the exact binomial coefficient over 2^N, as in :func:`stats.leaves_pmf`.
    """
    lo = max(min(int(values.min()), math.floor(mean - 8 * sd)), 2)
    hi = min(max(int(values.max()), math.ceil(mean + 8 * sd)), max(n - 1, 2))
    big_n = n - 3
    denom = 1 << big_n
    pmf = {}
    c = math.comb(big_n, lo - 2)
    for v in range(lo, hi + 1):
        pmf[v] = c / denom
        j = v - 2
        c = c * (big_n - j) // (j + 1)
    return pmf


# ---------------------------------------------------------------------------
# Report builders
# ---------------------------------------------------------------------------


def _scalar_law_report(
    config: ExperimentConfig, values: np.ndarray, *, normality: bool
) -> tuple[dict, dict, list]:
    """Leaves / diameter: binomial law plus moment and shape tests.

    ``normality`` adds the shape test.
    """
    from scipy.special import chdtri  # deferred: scipy.special dominates a cold import

    n = config.n
    mean, var, _ = _moments_from_values(values)
    hist = _histogram(values)
    count = values.size

    th_mean, th_var = _stats.scalar_law_moments(config.statistic, n)
    if n == 2:
        pmf = {_stats.N2_VALUES[config.statistic]: 1.0}
    else:
        sd = math.sqrt(max(th_var, 1.0))
        pmf = _binomial_pmf_window(n, values, th_mean, sd)

    se_mean = math.sqrt(var / count) if count > 1 else 0.0
    tests = [_z_test("mean", mean, th_mean, se_mean, TOLERANCES["z_limit"])]
    stat, dof = chi_square(hist, pmf)
    # with no degree of freedom only stat == 0.0 passes; a sample the law
    # gives no mass (stat inf) has no statistic: JSON null, and the gate fails
    limit = float(chdtri(dof, 1.0 - TOLERANCES["chi2_quantile"])) if dof >= 1 else 0.0
    tests.append(_test("law_chi2", "chi2", None if math.isinf(stat) else stat, limit, dof=dof))
    empirical = {
        "mean": mean,
        "variance": var,
        "histogram": {str(k): v for k, v in hist.items()},
    }
    if normality:
        _add_shape(empirical, tests, "normality", values, TOLERANCES["ks_limit"])
    theory = {
        "mean": th_mean,
        "variance": th_var,
        "pmf": {str(k): v for k, v in pmf.items()},
    }
    return empirical, theory, tests


def _maxdeg_report(config: ExperimentConfig, values: np.ndarray) -> tuple[dict, dict, list]:
    n = config.n
    count = values.size
    hist = _histogram(values)
    base = math.floor(math.log2(n - 3))
    sorted_vals = np.sort(values)
    gates = {
        k: _abs_test(
            f"cdf_shift_{k}",
            float(np.searchsorted(sorted_vals, k + base, side="left")) / count,
            _stats.maxdeg_cdf_approx(n, k),
            TOLERANCES["cdf_abs"],
        )
        for k in MAXDEG_K_RANGE
    }
    empirical = {
        "mean": float(values.mean()),
        "histogram": {str(k): v for k, v in hist.items()},
        "cdf_shifted": _by_k(gates, "empirical"),
        "log2_floor": base,
    }
    theory = {"cdf_shifted": _by_k(gates, "theory"), "log2_floor": base}
    return empirical, theory, list(gates.values())


def _gamma_report(config: ExperimentConfig, values: np.ndarray) -> tuple[dict, dict, list]:
    n = config.n
    mean, var, _ = _moments_from_values(values)
    th = _cover.gamma_theory(n)
    exact_rate = float(_cover.gamma_variance_rate())
    tests = [
        _abs_test("mean_over_n", mean / n, th.mean / n, TOLERANCES["gamma_mean_abs"]),
        # gate against the verified rate; the quoted 13/50 goes into the
        # theory block for reference (see cover.gamma_theory)
        _abs_test("var_over_n", var / n, exact_rate, TOLERANCES["gamma_var_abs"]),
    ]
    empirical = {
        "mean": mean,
        "variance": var,
        "mean_over_n": mean / n,
        "var_over_n": var / n,
        "histogram": {str(k): v for k, v in _histogram(values).items()},
    }
    _add_shape(empirical, tests, "normality", values, TOLERANCES["ks_limit"])
    theory = {
        "mean": th.mean,
        "variance": exact_rate * n,
        "variance_rate_exact": exact_rate,
        "variance_quoted": th.variance,
    }
    return empirical, theory, tests


def _dcensus_report(config: ExperimentConfig, rows: np.ndarray) -> tuple[dict, dict, list]:
    n = config.n
    kmax = config.kmax
    limit = TOLERANCES["z_limit"]
    degree = _mean_tests(
        "degree_count", rows[:, :kmax],
        {k: _stats.expected_degree_count(n, k) for k in range(1, kmax + 1)}, limit,
    )
    window = _mean_tests(
        "window_count", rows[:, kmax:],
        {k: _stats.y_star_moments(n, k).mean for k in range(1, min(WINDOW_K_MAX, n - 4) + 1)},
        limit,
    )
    empirical = {
        "degree_means": _by_k(degree, "empirical"),
        "window_means": _by_k(window, "empirical"),
    }
    theory = {"degree_means": _by_k(degree, "theory"), "window_means": _by_k(window, "theory")}
    return empirical, theory, [*degree.values(), *window.values()]


def degree_cov(m: int) -> np.ndarray:
    """m x m limit covariance of (D_1, ..., D_m)/sqrt(n).

    The degree vector is the window-count vector pushed through the linear
    map whose first row is all -1 (leaves are n minus everything else) and
    whose remaining rows shift indices by one.  The two infinite sums in
    the first row/column are truncated 64 terms past m; entries decay
    geometrically, so the truncation error is far below any tolerance used
    in tests (< 1e-15).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    span = range(1, m + 65)
    sig = np.array([[_stats.sigma_entry(i, j) for j in span] for i in span])
    out = np.empty((m, m))
    out[0, 0] = sig.sum()
    for c in range(1, m):
        out[0, c] = out[c, 0] = -sig[:, c - 1].sum()
    out[1:, 1:] = sig[: m - 1, : m - 1]
    return out


def _dcov_report(config: ExperimentConfig, counts: np.ndarray) -> tuple[dict, dict, list]:
    n = config.n
    m = config.m
    count = len(counts)
    dsum = counts.sum(axis=0).astype(np.float64)
    dd = (counts.T @ counts).astype(np.float64)
    cov = (dd - np.outer(dsum, dsum) / count) / (count - 1) / n
    theory_cov = degree_cov(m)
    tests = [
        _abs_test(
            f"cov_{i + 1}_{j + 1}", float(cov[i, j]), float(theory_cov[i, j]), TOLERANCES["cov_abs"]
        )
        for i in range(m)
        for j in range(i, m)
    ]
    empirical = {"cov": [[float(x) for x in row] for row in cov]}
    _add_shape(empirical, tests, "normality_d1", counts[:, 0], TOLERANCES["ks_limit"])
    theory = {"cov": [[float(x) for x in row] for row in theory_cov]}
    return empirical, theory, tests


def _runs_report(config: ExperimentConfig, values: np.ndarray) -> tuple[dict, dict, list]:
    count = values.size
    mean, var, m4 = _moments_from_values(values)
    th = _stats.geometric_runs(config.n, config.q)
    se_mean = math.sqrt(var / count) if count > 1 else 0.0
    se_var = math.sqrt(max(m4 - var**2, 0.0) / count) if count > 1 else 0.0
    tests = [
        _z_test("mean", mean, th.mean, se_mean, TOLERANCES["z_limit"]),
        _z_test("variance", var, th.variance, se_var, TOLERANCES["z_limit"]),
    ]
    empirical = {"mean": mean, "variance": var}
    theory = {"mean": th.mean, "variance": th.variance}
    return empirical, theory, tests


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statistic:
    """What the harness knows about one statistic."""

    domain: int  # Philox domain tag: part of every substream key, never renumbered
    cli_name: str  # name of ``permtree stats --stat``
    min_n: int  # smallest n it accepts
    params: tuple[str, ...]  # configuration fields it reads, kept in its report
    kernel: Callable[[ExperimentConfig, np.ndarray], np.ndarray]  # drawn rows -> a row per sample
    report: Callable[[ExperimentConfig, np.ndarray], tuple[dict, dict, list]]  # every sample's row
    squares: bool = False  # sums squared per-sample counts in int64
    draw: Callable[[ExperimentConfig, np.random.Generator], np.ndarray] = _code_bits  # one row


# canonical name -> entry, in domain order (also the order of the CLI choices)
REGISTRY: dict[str, Statistic] = {
    "leaves": Statistic(
        1, "leaves", 2, (), _leaves_chunk,
        partial(_scalar_law_report, normality=True),
    ),
    "diam": Statistic(
        2, "diam", 2, (), _diam_chunk,
        partial(_scalar_law_report, normality=False),
    ),
    "maxdeg": Statistic(3, "maxdeg", 4, (), _maxdeg_chunk, _maxdeg_report),
    "dcensus": Statistic(4, "dcensus", 4, ("kmax",), _dcensus_chunk, _dcensus_report, squares=True),
    "gamma": Statistic(5, "gamma", 4, (), _gamma_chunk, _gamma_report),
    "dcov": Statistic(6, "dcov", 4, ("m",), _dcov_chunk, _dcov_report, squares=True),
    "runs_geometric": Statistic(7, "runs", 1, ("q",), _runs_geometric_chunk, _runs_report,
                                draw=lambda config, rng: _geometric(rng, config.q, config.n)),
}


def run_experiment(config: ExperimentConfig) -> StatReport:
    """Sample, aggregate exactly, and compare against the closed forms."""
    empirical, theory, tests = REGISTRY[config.statistic].report(config, _gather(config))
    verdict = "pass" if all(t["pass"] for t in tests) else "fail"
    return StatReport(
        config=config.to_dict(),
        empirical=empirical,
        theory=theory,
        tests=tests,
        verdict=verdict,
    )

