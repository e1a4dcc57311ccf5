"""Seeded Monte Carlo harness with deterministic, worker-independent reports.

Every sample gets its own Philox-4x64 generator keyed counter-style by
(master seed, tagged sample index): the 128-bit key is the pair

    key = (seed, statistic_domain << 56 | sample_index),

so substreams are pairwise independent by construction, no substream is
shared between statistics, and sample i's draw does not depend on chunk
boundaries or worker count.  All aggregation is exact integer arithmetic
(sums, squared sums, histograms, gathered value vectors in index order),
so a report is a pure function of its configuration: identical config,
identical bytes, regardless of parallelism.

Each statistic is one entry of :data:`REGISTRY`, keyed by its canonical
name.  The entry carries everything the harness needs to know about it:
its Philox domain tag, its ``permtree stats --stat`` name, the smallest n
it accepts, the configuration parameters it reads (and reports), the
chunk kernel that samples it and the builder that turns the merged chunks
into a report.  Coin statistics are read from the sampled code bits
through one run-length encoding per chunk (:func:`permtree.stats.toss_runs`)
and its projections; every theoretical number placed in a report comes
from the closed-form operations of :mod:`permtree.stats` and
:mod:`permtree.cover`.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Mapping

import numpy as np
from scipy.special import chdtri, ndtr

from . import cover as _cover
from . import stats as _stats
from .codec import random_bits
from .errors import EmptyHistogramError, InvalidConfigError, TooFewSamplesError

SCHEMA = "permtree/1"
CHUNK = 1024  # fixed slicing policy; results do not depend on it

_SEED_LIMIT = 1 << 64
_MAX_INDEX = 1 << 56
_SAMPLE_TAG = 8  # the streams of ``permtree sample``

MAXDEG_K_RANGE = tuple(range(-2, 7))
WINDOW_K_MAX = 6


def substream(seed: int, domain: int | str, index: int) -> np.random.Generator:
    """Independent per-sample generator from (seed, domain, index).

    A string domain is a statistic's canonical name, resolved to its
    :data:`REGISTRY` tag, or ``"sample"``.
    """
    if isinstance(domain, str):
        domain = _SAMPLE_TAG if domain == "sample" else REGISTRY[domain].domain
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError("seed must lie in [0, 2**64)")
    if not 0 <= index < _MAX_INDEX:
        raise ValueError("sample index out of the 56-bit range")
    key = np.array([seed, ((domain & 0xFF) << 56) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Tolerances:
    """Per-test numeric bounds attached to a configuration."""

    z_limit: float = 3.0
    chi2_quantile: float = 0.999
    cov_abs: float = 0.02
    cdf_abs: float = 0.02
    ks_limit: float = 0.01
    gamma_mean_abs: float = 0.005
    gamma_var_abs: float = 0.01

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not value > 0:
                raise InvalidConfigError(f"tolerance {name} must be positive")
        if not self.chi2_quantile < 1:
            raise InvalidConfigError("chi2_quantile must lie in (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    samples: int
    seed: int
    statistic: str
    q: float | None = None
    m: int = 5
    kmax: int = 8
    tolerances: Tolerances = field(default_factory=Tolerances)
    workers: int = 1

    def __post_init__(self):
        entry = REGISTRY.get(self.statistic)
        if entry is None:
            raise InvalidConfigError(f"unknown statistic {self.statistic!r}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise InvalidConfigError("seed must lie in [0, 2**64)")
        if self.samples < 1:
            raise InvalidConfigError("samples must be >= 1")
        if self.samples > _MAX_INDEX:
            raise InvalidConfigError("samples exceed the substream index space")
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
        if "kmax" in entry.params and self.kmax < 1:
            raise InvalidConfigError(f"{self.statistic} needs kmax >= 1")

    def to_dict(self) -> dict:
        out = asdict(self)
        # workers is an execution detail: reports are byte-identical across
        # worker counts, so it must not leak into the report
        out.pop("workers")
        params = REGISTRY[self.statistic].params
        for name in ("q", "m", "kmax"):
            if name not in params:
                out.pop(name)
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
        return json.dumps(
            {
                "schema": self.schema,
                "config": self.config,
                "empirical": self.empirical,
                "theory": self.theory,
                "tests": self.tests,
                "verdict": self.verdict,
            },
            sort_keys=True,
        )

    def csv_rows(self) -> list[tuple]:
        """Histogram projection: rows (value, count, expected)."""
        hist = self.empirical.get("histogram")
        if not hist:
            return []
        pmf = self.theory.get("pmf", {})
        total = sum(hist.values())
        rows = []
        for value in sorted(hist, key=int):
            expected = pmf.get(value)
            rows.append(
                (
                    int(value),
                    hist[value],
                    total * expected if expected is not None else "",
                )
            )
        return rows


# ---------------------------------------------------------------------------
# Sample generation
# ---------------------------------------------------------------------------


def _substreams(config: ExperimentConfig, start: int, count: int):
    """Generators of samples start .. start+count-1 of the statistic's domain."""
    domain = REGISTRY[config.statistic].domain
    return (substream(config.seed, domain, start + i) for i in range(count))


def _tosses(config: ExperimentConfig, start: int, count: int) -> np.ndarray:
    """Toss matrix of the chunk's sampled codes, one row per sample."""
    bits = np.empty((count, config.n - 2), dtype=np.uint8)
    for i, rng in enumerate(_substreams(config, start, count)):
        bits[i] = random_bits(rng, config.n - 2)
    # no caller keeps the bits or the tosses past their next form: the
    # chunk's matrices set the process's peak memory
    return _stats.tosses_from_codes(bits)


def _toss_runs(config: ExperimentConfig, start: int, count: int) -> _stats.TossRuns:
    return _stats.toss_runs(_tosses(config, start, count))


def _diam_chunk(config: ExperimentConfig, start: int, count: int) -> dict:
    if config.n <= 3:
        # no tosses: the only tree is the path on n vertices
        return {"values": np.full(count, config.n - 1, dtype=np.int64)}
    return {"values": _tosses(config, start, count).sum(axis=1, dtype=np.int64) + 2}


def _leaves_chunk(config: ExperimentConfig, start: int, count: int) -> dict:
    # a caterpillar's spine holds its non-leaves: leaves = n + 1 - diameter
    return {"values": config.n + 1 - _diam_chunk(config, start, count)["values"]}


def _maxdeg_chunk(config: ExperimentConfig, start: int, count: int) -> dict:
    return {"values": _toss_runs(config, start, count).longest_tail_run() + 2}


def _gamma_chunk(config: ExperimentConfig, start: int, count: int) -> dict:
    return {"values": _toss_runs(config, start, count).cover_number()}


def _dcensus_chunk(config: ExperimentConfig, start: int, count: int) -> dict:
    runs = _toss_runs(config, start, count)
    counts = runs.degree_counts(config.n, config.kmax)
    windows = runs.window_counts(WINDOW_K_MAX)
    return {
        "dsum": counts.sum(axis=0),
        "dsumsq": (counts * counts).sum(axis=0),
        "wsum": windows.sum(axis=0),
        "wsumsq": (windows * windows).sum(axis=0),
    }


def _dcov_chunk(config: ExperimentConfig, start: int, count: int) -> dict:
    counts = _toss_runs(config, start, count).degree_counts(config.n, config.m)
    return {
        "dsum": counts.sum(axis=0),
        "dd": counts.T @ counts,
        "d1": counts[:, 0].copy(),
    }


def _runs_geometric_chunk(config: ExperimentConfig, start: int, count: int) -> dict:
    vals = np.empty(count, dtype=np.int64)
    for i, rng in enumerate(_substreams(config, start, count)):
        draws = rng.geometric(1.0 - config.q, size=config.n)
        vals[i] = 1 + int(np.count_nonzero(draws[1:] != draws[:-1]))
    return {"values": vals}


def _compute_chunk(task: tuple) -> dict:
    """Raw per-chunk aggregates; pure function of (config, start, count)."""
    config, start, count = task
    return REGISTRY[config.statistic].kernel(config, start, count)


def _gather(config: ExperimentConfig) -> list[dict]:
    tasks = [
        (config, start, min(CHUNK, config.samples - start))
        for start in range(0, config.samples, CHUNK)
    ]
    if config.workers <= 1 or len(tasks) == 1:
        return [_compute_chunk(t) for t in tasks]
    import multiprocessing as mp

    with mp.Pool(config.workers) as pool:
        return pool.map(_compute_chunk, tasks)


def _merged_values(parts: list[dict]) -> np.ndarray:
    return np.concatenate([p["values"] for p in parts])


# ---------------------------------------------------------------------------
# Test helpers
# ---------------------------------------------------------------------------


def chi_square(observed: Mapping[int, int], expected: Mapping[int, float], min_expected: float = 5.0) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom with small-bin merging.

    ``observed`` maps values to counts, ``expected`` maps values to
    probability masses.  Rules: an observation at a value of zero expected
    mass is impossible under the model and makes the statistic infinite;
    otherwise adjacent bins (in value order, over the union of supports)
    are merged until each carries expected count at least ``min_expected``,
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
        if exp_acc >= min_expected:
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
    nondegenerate spread.  Acceptance thresholds live in the experiment
    configuration, not here.
    """
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


def _z_test(name: str, emp: float, theory: float, se: float, limit: float) -> dict:
    if se == 0.0:
        value = 0.0 if emp == theory else math.inf
    else:
        value = abs(emp - theory) / se
    return {
        "name": name,
        "kind": "z",
        "empirical": emp,
        "theory": theory,
        "value": value,
        "limit": limit,
        "pass": bool(value <= limit),
    }


def _abs_test(name: str, emp: float, theory: float, limit: float) -> dict:
    value = abs(emp - theory)
    return {
        "name": name,
        "kind": "abs",
        "empirical": emp,
        "theory": theory,
        "value": value,
        "limit": limit,
        "pass": bool(value <= limit),
    }


def _shape_entries(values: np.ndarray, name: str, limit: float) -> tuple[dict | None, dict | None]:
    """Normality score, plus a pass/fail test when the lattice resolves it.

    Integer statistics sit on a lattice whose CDF jumps are about 0.4 per
    standard deviation; the sup-deviation test only gates once the spread
    makes the limit attainable (std * limit >= 0.25).
    """
    arr = np.asarray(values)
    if arr.size < 1000 or arr.std() == 0.0:
        return None, None
    shape = normality_check(arr)
    if arr.std() * limit < 0.25:
        return shape, None
    test = {
        "name": name,
        "kind": "ks",
        "value": shape["ks"],
        "limit": limit,
        "pass": bool(shape["ks"] <= limit),
    }
    return shape, test


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
    config: ExperimentConfig, parts: list[dict], *, n2_value: int, normality: bool
) -> tuple[dict, dict, list]:
    """Leaves / diameter: binomial law plus moment and shape tests.

    ``n2_value`` is the statistic on the unique tree at n = 2; ``normality``
    adds the shape test.
    """
    n = config.n
    tol = config.tolerances
    values = _merged_values(parts)
    mean, var, _ = _moments_from_values(values)
    hist = _histogram(values)
    count = values.size

    th_mean, th_var = (n + 1) / 2, (n - 3) / 4 if n >= 3 else 0.0
    if n == 2:
        pmf = {n2_value: 1.0}
        th_mean, th_var = float(n2_value), 0.0
    else:
        sd = math.sqrt(max(th_var, 1.0))
        pmf = _binomial_pmf_window(n, values, th_mean, sd)

    tests = [
        _z_test(
            "mean",
            mean,
            th_mean,
            math.sqrt(var / count) if count > 1 else 0.0,
            tol.z_limit,
        )
    ]
    stat, dof = chi_square(hist, pmf)
    limit = float(chdtri(dof, 1.0 - tol.chi2_quantile)) if dof >= 1 else 0.0
    tests.append(
        {
            "name": "law_chi2",
            "kind": "chi2",
            "value": stat,
            "dof": dof,
            "limit": limit,
            "pass": bool(stat <= limit) if dof >= 1 else bool(stat == 0.0),
        }
    )
    empirical = {
        "mean": mean,
        "variance": var,
        "histogram": {str(k): v for k, v in hist.items()},
    }
    if normality:
        shape, shape_test = _shape_entries(values, "normality_ks", tol.ks_limit)
        if shape is not None:
            empirical["normality"] = shape
        if shape_test is not None:
            tests.append(shape_test)
    theory = {
        "mean": th_mean,
        "variance": th_var,
        "pmf": {str(k): v for k, v in pmf.items()},
    }
    return empirical, theory, tests


def _maxdeg_report(config: ExperimentConfig, parts: list[dict]) -> tuple[dict, dict, list]:
    values = _merged_values(parts)
    n = config.n
    tol = config.tolerances
    count = values.size
    hist = _histogram(values)
    base = math.floor(math.log2(n - 3))
    tests = []
    emp_cdf = {}
    th_cdf = {}
    sorted_vals = np.sort(values)
    for k in MAXDEG_K_RANGE:
        emp = float(np.searchsorted(sorted_vals, k + base, side="left")) / count
        th = _stats.maxdeg_cdf_approx(n, k)
        emp_cdf[str(k)] = emp
        th_cdf[str(k)] = th
        tests.append(_abs_test(f"cdf_shift_{k}", emp, th, tol.cdf_abs))
    empirical = {
        "mean": float(values.mean()),
        "histogram": {str(k): v for k, v in hist.items()},
        "cdf_shifted": emp_cdf,
        "log2_floor": base,
    }
    theory = {"cdf_shifted": th_cdf, "log2_floor": base}
    return empirical, theory, tests


def _gamma_report(config: ExperimentConfig, parts: list[dict]) -> tuple[dict, dict, list]:
    values = _merged_values(parts)
    n = config.n
    tol = config.tolerances
    mean, var, _ = _moments_from_values(values)
    th = _cover.gamma_theory(n)
    exact_rate = float(_cover.gamma_variance_rate())
    tests = [
        _abs_test("mean_over_n", mean / n, th.mean / n, tol.gamma_mean_abs),
        # gate against the verified rate; the quoted 13/50 goes into the
        # theory block for reference (see cover.gamma_theory)
        _abs_test("var_over_n", var / n, exact_rate, tol.gamma_var_abs),
    ]
    empirical = {
        "mean": mean,
        "variance": var,
        "mean_over_n": mean / n,
        "var_over_n": var / n,
        "histogram": {str(k): v for k, v in _histogram(values).items()},
    }
    shape, shape_test = _shape_entries(values, "normality_ks", tol.ks_limit)
    if shape is not None:
        empirical["normality"] = shape
    if shape_test is not None:
        tests.append(shape_test)
    theory = {
        "mean": th.mean,
        "variance": exact_rate * n,
        "variance_rate_exact": exact_rate,
        "variance_quoted": th.variance,
    }
    return empirical, theory, tests


def _dcensus_report(config: ExperimentConfig, parts: list[dict]) -> tuple[dict, dict, list]:
    n = config.n
    tol = config.tolerances
    count = config.samples
    dsum = np.sum([p["dsum"] for p in parts], axis=0)
    dsumsq = np.sum([p["dsumsq"] for p in parts], axis=0)
    wsum = np.sum([p["wsum"] for p in parts], axis=0)
    wsumsq = np.sum([p["wsumsq"] for p in parts], axis=0)

    tests = []
    deg_means = {}
    deg_theory = {}
    for k in range(1, config.kmax + 1):
        emp_mean = float(dsum[k - 1]) / count
        th_mean = _stats.expected_degree_count(n, k)
        se = 0.0
        if count > 1:
            emp_var = (float(dsumsq[k - 1]) - count * emp_mean**2) / (count - 1)
            se = math.sqrt(max(emp_var, 0.0) / count)
        deg_means[str(k)] = emp_mean
        deg_theory[str(k)] = th_mean
        tests.append(_z_test(f"degree_count_{k}", emp_mean, th_mean, se, tol.z_limit))

    win_means = {}
    win_theory = {}
    for k in range(1, min(WINDOW_K_MAX, n - 4) + 1):
        emp_mean = float(wsum[k - 1]) / count
        th_mean = _stats.y_star_moments(n, k).mean
        se = 0.0
        if count > 1:
            emp_var = (float(wsumsq[k - 1]) - count * emp_mean**2) / (count - 1)
            se = math.sqrt(max(emp_var, 0.0) / count)
        win_means[str(k)] = emp_mean
        win_theory[str(k)] = th_mean
        tests.append(_z_test(f"window_count_{k}", emp_mean, th_mean, se, tol.z_limit))

    empirical = {"degree_means": deg_means, "window_means": win_means}
    theory = {"degree_means": deg_theory, "window_means": win_theory}
    return empirical, theory, tests


def _dcov_report(config: ExperimentConfig, parts: list[dict]) -> tuple[dict, dict, list]:
    n = config.n
    m = config.m
    tol = config.tolerances
    count = config.samples
    dsum = np.sum([p["dsum"] for p in parts], axis=0).astype(np.float64)
    dd = np.sum([p["dd"] for p in parts], axis=0).astype(np.float64)
    cov = (dd - np.outer(dsum, dsum) / count) / (count - 1) / n
    theory_cov = _stats.degree_cov(m)
    tests = []
    for i in range(m):
        for j in range(i, m):
            tests.append(
                _abs_test(
                    f"cov_{i + 1}_{j + 1}",
                    float(cov[i, j]),
                    float(theory_cov[i, j]),
                    tol.cov_abs,
                )
            )
    d1 = np.concatenate([p["d1"] for p in parts])
    empirical = {"cov": [[float(x) for x in row] for row in cov]}
    shape, shape_test = _shape_entries(d1, "normality_d1_ks", tol.ks_limit)
    if shape is not None:
        empirical["normality_d1"] = shape
    if shape_test is not None:
        tests.append(shape_test)
    theory = {"cov": [[float(x) for x in row] for row in theory_cov]}
    return empirical, theory, tests


def _runs_report(config: ExperimentConfig, parts: list[dict]) -> tuple[dict, dict, list]:
    values = _merged_values(parts)
    tol = config.tolerances
    count = values.size
    mean, var, m4 = _moments_from_values(values)
    th = _stats.geometric_runs(config.n, config.q)
    se_mean = math.sqrt(var / count) if count > 1 else 0.0
    se_var = math.sqrt(max(m4 - var**2, 0.0) / count) if count > 1 else 0.0
    tests = [
        _z_test("mean", mean, th.mean, se_mean, tol.z_limit),
        _z_test("variance", var, th.variance, se_var, tol.z_limit),
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
    kernel: Callable[[ExperimentConfig, int, int], dict]  # (config, start, count)
    report: Callable[[ExperimentConfig, list[dict]], tuple[dict, dict, list]]


# canonical name -> entry, in domain order (also the order of the CLI choices)
REGISTRY: dict[str, Statistic] = {
    "leaves": Statistic(
        1, "leaves", 2, (), _leaves_chunk,
        partial(_scalar_law_report, n2_value=2, normality=True),
    ),
    "diam": Statistic(
        2, "diam", 2, (), _diam_chunk,
        partial(_scalar_law_report, n2_value=1, normality=False),
    ),
    "maxdeg": Statistic(3, "maxdeg", 4, (), _maxdeg_chunk, _maxdeg_report),
    "dcensus": Statistic(4, "dcensus", 4, ("kmax",), _dcensus_chunk, _dcensus_report),
    "gamma": Statistic(5, "gamma", 4, (), _gamma_chunk, _gamma_report),
    "dcov": Statistic(6, "dcov", 4, ("m",), _dcov_chunk, _dcov_report),
    "runs_geometric": Statistic(7, "runs", 1, ("q",), _runs_geometric_chunk, _runs_report),
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

