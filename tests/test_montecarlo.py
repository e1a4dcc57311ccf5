"""Harness determinism, goodness-of-fit plumbing, and small fixed-seed runs."""
from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import permtree
from permtree.cli import build_parser, main
from permtree.codec import decode, enumerate_codes
from permtree.cover import min_cover_oracle
from permtree.errors import (
    EmptyHistogramError,
    InvalidConfigError,
    TooFewSamplesError,
)
from permtree.montecarlo import (
    CHUNK,
    DEGREE_K_MAX,
    REGISTRY,
    WINDOW_K_MAX,
    ExperimentConfig,
    _key,
    chi_square,
    normality_check,
    run_experiment,
    substream,
    tosses_from_codes,
)
from permtree.stats import coin_stats, tree_stats


def test_config_validation():
    ok = ExperimentConfig(n=10, samples=100, seed=1, statistic="leaves")
    assert ok.statistic == "leaves"
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=10, samples=0, seed=1, statistic="leaves")
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=10, samples=10, seed=1, statistic="nope")
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=10, samples=10, seed=1, statistic="runs_geometric")
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=10, samples=10, seed=1, statistic="runs_geometric", q=1.5)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=3, samples=10, seed=1, statistic="gamma")
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=10, samples=10, seed=1, statistic="dcov", m=9)
    with pytest.raises(InvalidConfigError, match="substream index space"):
        ExperimentConfig(n=10, samples=(1 << 56) + 1, seed=1, statistic="leaves")
    with pytest.raises(InvalidConfigError, match="workers must be >= 1"):
        ExperimentConfig(n=10, samples=10, seed=1, statistic="leaves", workers=0)
    with pytest.raises(InvalidConfigError, match="at least 2 samples"):
        ExperimentConfig(n=10, samples=1, seed=1, statistic="dcov")
    # names other than the canonical ones are rejected, not aliased
    for name in ("diameter", "degree_census", "runs"):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(n=10, samples=10, seed=1, statistic=name, q=0.5)
    # the CLI offers exactly the registry's statistics, under their CLI names
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    stat = next(a for a in subcommands.choices["stats"]._actions if a.dest == "stat")
    assert tuple(stat.choices) == tuple(e.cli_name for e in REGISTRY.values()) == (
        "leaves", "diam", "maxdeg", "dcensus", "gamma", "dcov", "runs",
    )


@pytest.mark.parametrize(
    "field, value",
    [("samples", True), ("n", 10.5), ("workers", 1.5), ("m", 5.0), ("kmax", "8")],
)
def test_config_integer_fields_reject_bools_and_non_integers(field, value):
    # a bool would run and be reported as true; a float would fail deep in numpy or pass unread
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        ExperimentConfig(**{"n": 50, "samples": 100, "seed": 1, "statistic": "dcensus", field: value})


@pytest.mark.parametrize("q", [np.float32(0.5), Fraction(1, 2)])
def test_config_stores_q_as_a_python_float(q):
    # an unconverted q ran the whole experiment, then made to_json raise
    common = dict(n=40, samples=100, seed=1, statistic="runs_geometric")
    config = ExperimentConfig(**common, q=q)
    assert type(config.q) is float
    assert run_experiment(config).to_json() == run_experiment(
        ExperimentConfig(**common, q=0.5)
    ).to_json()


@pytest.mark.parametrize("q", [True, "0.5"])
def test_config_q_rejects_bools_and_non_numbers(q):
    with pytest.raises(TypeError, match="q must be a real number"):
        ExperimentConfig(n=40, samples=100, seed=1, statistic="runs_geometric", q=q)


@pytest.mark.parametrize(
    "statistic, fields",
    [
        ("dcov", dict(n=np.int64(50), samples=np.int32(100), seed=np.uint64(1), m=np.int8(3))),
        ("dcensus", dict(n=np.int32(50), samples=np.int64(100), kmax=np.uint8(4), workers=np.int64(1))),
    ],
)
def test_config_stores_numpy_integers_as_python_ints(statistic, fields):
    # a numpy integer reaching the report would make to_json raise after the whole run
    plain = {"seed": 1, "workers": 1, **{name: int(value) for name, value in fields.items()}}
    config = ExperimentConfig(statistic=statistic, **{**plain, **fields})
    for name in ("n", "samples", "seed", "m", "kmax", "workers"):
        assert type(getattr(config, name)) is int
    assert run_experiment(config).to_json() == run_experiment(
        ExperimentConfig(statistic=statistic, **plain)
    ).to_json()


def test_dcensus_kmax_bounded():
    # every kmax column is kept for every sample, and degrees above n - 1 cannot occur
    assert 12 <= DEGREE_K_MAX  # the exhaustive kernel test reads kmax = n up to 12
    common = dict(n=50, samples=10, seed=1, statistic="dcensus")
    assert ExperimentConfig(**common, kmax=DEGREE_K_MAX).kmax == DEGREE_K_MAX
    for kmax in (0, DEGREE_K_MAX + 1, 10**5):
        with pytest.raises(InvalidConfigError, match="kmax"):
            ExperimentConfig(**common, kmax=kmax)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_entry_validation(name):
    entry = REGISTRY[name]
    common = dict(samples=10, seed=1, statistic=name, q=0.5)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=entry.min_n - 1, **common)
    config = ExperimentConfig(n=entry.min_n, **common)
    assert set(config.to_dict()) == {"n", "samples", "seed", "statistic", "tolerances", *entry.params}
    assert run_experiment(config).config == config.to_dict()


@pytest.mark.parametrize("name", [name for name, e in REGISTRY.items() if e.squares])
def test_int64_sums_of_squares_bounded(name):
    # samples * n**2 bounds every int64 sum of squared counts: 2**23 * (2**20)**2 = 2**63
    n = 1 << 20
    assert ExperimentConfig(n=n, samples=(1 << 23) - 1, seed=1, statistic=name).n == n
    with pytest.raises(InvalidConfigError, match=r"2\*\*63"):
        ExperimentConfig(n=n, samples=1 << 23, seed=1, statistic=name)
    # the bound holds between the last accepted and the first rejected size too
    edge = math.isqrt(((1 << 63) - 1) // 3)
    ExperimentConfig(n=edge, samples=3, seed=1, statistic=name)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=edge + 1, samples=3, seed=1, statistic=name)


def test_int64_bound_is_a_cli_usage_error(capsys):
    argv = ["stats", "--stat", "dcov", "--n", str(1 << 20), "--samples", str(1 << 23), "--seed", "1"]
    assert main(argv) == 2
    assert "2**63" in capsys.readouterr().err


# Philox domain tags key every substream: renumbering one changes every
# report and sample drawn under it
DOMAIN_TAGS = {
    "leaves": 1, "diam": 2, "maxdeg": 3, "dcensus": 4,
    "gamma": 5, "dcov": 6, "runs_geometric": 7, "sample": 8,
}


@pytest.mark.parametrize("name", list(DOMAIN_TAGS))
def test_domain_tag_pinned(name):
    tag = DOMAIN_TAGS[name]
    if name in REGISTRY:
        assert REGISTRY[name].domain == tag
    assert substream(7, name, 3).bytes(16) == substream(7, tag, 3).bytes(16)


def test_substreams_independent_and_reproducible():
    a = substream(7, "gamma", 5).bytes(16)
    b = substream(7, "gamma", 5).bytes(16)
    c = substream(7, "gamma", 6).bytes(16)
    d = substream(7, "leaves", 5).bytes(16)
    assert a == b
    assert a != c and a != d


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seeds_outside_64_bits_rejected(seed):
    # modulo 2**64, -1 and 2**64 would alias the valid seeds 2**64 - 1 and 0
    with pytest.raises(ValueError):
        substream(seed, "gamma", 0)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=10, samples=10, seed=seed, statistic="leaves")


@pytest.mark.parametrize("seed", [1.5, 2.9, True, False])
def test_float_seeds_rejected(seed):
    # truncated into a key word, 2.9 would draw what the seed 2 draws, and
    # True what the seed 1 draws while the report says "seed": true
    with pytest.raises(TypeError):
        ExperimentConfig(n=50, samples=20, seed=seed, statistic="leaves")
    with pytest.raises(TypeError):
        substream(seed, 9, 0)
    with pytest.raises(TypeError):
        _key(seed, 9, 0)


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_seeds_at_the_64_bit_edges_accepted(seed):
    assert substream(seed, "gamma", 0).bytes(8) == substream(seed, "gamma", 0).bytes(8)
    report = run_experiment(ExperimentConfig(n=10, samples=10, seed=seed, statistic="leaves"))
    assert report.config["seed"] == seed
    assert substream(0, "gamma", 0).bytes(8) != substream((1 << 64) - 1, "gamma", 0).bytes(8)


def test_chi_square_exact_match_is_zero():
    observed = {1: 30, 2: 60, 3: 10}
    expected = {1: 0.3, 2: 0.6, 3: 0.1}
    stat, dof = chi_square(observed, expected)
    assert stat == pytest.approx(0.0)
    assert dof == 2


def test_chi_square_merges_small_bins():
    observed = {0: 90, 1: 4, 2: 3, 3: 3}
    expected = {0: 0.90, 1: 0.04, 2: 0.03, 3: 0.03}
    stat, dof = chi_square(observed, expected)
    # the three light tail bins merge into a single bin of expected mass 10
    assert dof == 1
    assert stat == pytest.approx(0.0)
    # a trailing sliver folds back into the final merged bin
    observed = {0: 96, 1: 2, 2: 1, 3: 1}
    expected = {0: 0.96, 1: 0.02, 2: 0.01, 3: 0.01}
    stat, dof = chi_square(observed, expected)
    assert dof == 0
    assert stat == pytest.approx(0.0)


def test_chi_square_mismatched_support():
    # observations at zero-mass values are impossible under the model
    stat, _ = chi_square({5: 50, 6: 50}, {5: 1.0})
    assert math.isinf(stat)
    stat, _ = chi_square({9: 10}, {1: 1.0})
    assert math.isinf(stat)
    # zero-mass values with zero observations are harmless
    stat, dof = chi_square({1: 100}, {1: 1.0, 2: 0.0})
    assert stat == pytest.approx(0.0)


def test_chi_square_empty():
    with pytest.raises(EmptyHistogramError):
        chi_square({}, {1: 1.0})


def test_normality_check_self_test():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=20_000)
    rep = normality_check(vals)
    assert rep["ks"] < 0.01
    assert abs(rep["skewness"]) < 0.05
    assert abs(rep["excess_kurtosis"]) < 0.1


def test_normality_check_errors():
    with pytest.raises(TooFewSamplesError):
        normality_check(np.zeros(10))
    with pytest.raises(ValueError):
        normality_check(np.zeros(5000))


def test_diameter_n2_all_ones():
    config = ExperimentConfig(n=2, samples=10, seed=42, statistic="diam")
    report = run_experiment(config)
    assert report.empirical["histogram"] == {"1": 10}
    assert report.passed


def test_leaves_small_fixed_seed():
    config = ExperimentConfig(n=5, samples=100_000, seed=2024, statistic="leaves")
    report = run_experiment(config)
    assert report.passed
    hist = {int(k): v for k, v in report.empirical["histogram"].items()}
    assert set(hist) == {2, 3, 4}
    assert abs(hist[3] / 100_000 - 0.5) < 0.01
    chi = next(t for t in report.tests if t["kind"] == "chi2")
    assert chi["value"] <= chi["limit"]


def test_diam_reflects_leaves():
    config = ExperimentConfig(n=30, samples=20_000, seed=7, statistic="diam")
    report = run_experiment(config)
    assert report.passed
    assert report.theory["mean"] == (30 + 1) / 2


@pytest.mark.parametrize("n", range(4, 13))
def test_chunk_kernels_match_tree_oracles_on_every_code(n):
    """Every code statistic's chunk kernel, fed all codes of size n, against the tree oracles."""
    codes = list(enumerate_codes(n))
    bits = np.array([c.bits for c in codes], dtype=np.uint8)
    heads = tosses_from_codes(bits)
    trees = [decode(c) for c in codes]
    tstats = [tree_stats(p) for p in trees]
    # tree_stats counts the degrees of build_graph's adjacency
    degrees = np.array([[s.degree_census.get(k) for k in range(1, n + 1)] for s in tstats])
    windows = np.array(
        [[coin_stats(row.tolist()).window_counts.get(k, 0) for k in range(1, WINDOW_K_MAX + 1)]
         for row in heads]
    )

    def chunk(statistic, **params):
        config = ExperimentConfig(n=n, samples=len(codes), seed=0, statistic=statistic, **params)
        return REGISTRY[statistic].kernel(config, bits)

    # one statistic row per code, in code order
    assert chunk("leaves").tolist() == [s.leaves for s in tstats]
    assert chunk("diam").tolist() == [s.diameter for s in tstats]
    assert chunk("maxdeg").tolist() == [s.max_degree for s in tstats]
    assert chunk("gamma").tolist() == [min_cover_oracle(p) for p in trees]
    assert np.array_equal(chunk("dcensus", kmax=n), np.hstack([degrees, windows]))
    m = min(n, 8)
    assert np.array_equal(chunk("dcov", m=m), degrees[:, :m])


def test_report_deterministic_and_worker_independent():
    base = dict(n=64, samples=4000, seed=99, statistic="gamma")
    r1 = run_experiment(ExperimentConfig(**base))
    r2 = run_experiment(ExperimentConfig(**base))
    assert r1.to_json() == r2.to_json()
    # the worker count must not affect a single output byte
    r3 = run_experiment(ExperimentConfig(**base, workers=2))
    assert r1.to_json() == r3.to_json()


def test_dcov_report_worker_independent():
    # each chunk's (count, m) block of degree counts crosses the pool and is concatenated in order
    base = dict(n=64, samples=2500, seed=99, statistic="dcov", m=5)
    pooled = run_experiment(ExperimentConfig(**base, workers=2))
    assert pooled.to_json() == run_experiment(ExperimentConfig(**base, workers=1)).to_json()


def test_pool_opens_no_more_processes_than_chunks(monkeypatch):
    import multiprocessing

    sizes = []

    class SerialPool:
        """Stand-in pool: records its size and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    base = dict(n=64, samples=2 * CHUNK, seed=99, statistic="gamma")
    pooled = run_experiment(ExperimentConfig(**base, workers=64))
    assert sizes == [2]
    assert pooled.to_json() == run_experiment(ExperimentConfig(**base)).to_json()


SPAWN_PROBE = """
import multiprocessing
multiprocessing.set_start_method("spawn")
from permtree.montecarlo import CHUNK, ExperimentConfig, run_experiment
base = dict(n=64, samples=2 * CHUNK + 100, seed=99, statistic="gamma")
serial = run_experiment(ExperimentConfig(**base)).to_json()
pooled = run_experiment(ExperimentConfig(**base, workers=2)).to_json()
print(pooled == serial)
"""


def test_workers_independent_under_spawn():
    # workers started by spawn import the package afresh instead of inheriting it
    env = dict(os.environ, PYTHONPATH=str(Path(permtree.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", SPAWN_PROBE], env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["True"]


@pytest.mark.parametrize(
    "config",
    [dict(n=10**5, samples=200, statistic="gamma"), dict(n=10**4, samples=1100, statistic="dcensus", kmax=8)],
    ids=["gamma-n100000", "dcensus-n10000"],
)
def test_chunk_memory_stays_bounded(config):
    # the toss budget bounds a chunk's bits, tosses and run encoding, so the
    # peak does not grow with n or with the rows a larger budget would allow
    tracemalloc.start()
    try:
        run_experiment(ExperimentConfig(seed=0xC0FFEE, **config))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_gamma_moderate_run():
    config = ExperimentConfig(n=1000, samples=20_000, seed=0xC0FFEE, statistic="gamma")
    report = run_experiment(config)
    assert abs(report.empirical["mean_over_n"] - 1 / 3) < 0.01
    assert abs(report.empirical["var_over_n"] - 2 / 27) < 0.02
    assert report.theory["variance_rate_exact"] == pytest.approx(2 / 27)
    assert report.theory["variance_quoted"] == pytest.approx(0.26 * 1000)
    assert report.passed


def test_dcensus_small_run():
    config = ExperimentConfig(n=100, samples=20_000, seed=5, statistic="dcensus")
    report = run_experiment(config)
    assert report.passed
    # exact mean of leaves is (n+1)/2
    assert float(report.theory["degree_means"]["1"]) == pytest.approx(50.5)


def test_dcov_small_run_and_helper():
    config = ExperimentConfig(n=400, samples=20_000, seed=11, statistic="dcov", m=3)
    report = run_experiment(config)
    got = np.array(report.empirical["cov"])
    assert got.shape == (3, 3)
    th = np.array(report.theory["cov"])
    assert np.all(np.abs(got - th) < 0.05)


def test_runs_small_run():
    config = ExperimentConfig(
        n=2000, samples=5000, seed=3, statistic="runs_geometric", q=0.5
    )
    report = run_experiment(config)
    assert report.passed
    assert report.theory["mean"] == pytest.approx((2 / 3) * 2000 + 1 / 3)


def test_maxdeg_run_cdf_within_band():
    config = ExperimentConfig(n=131, samples=50_000, seed=8, statistic="maxdeg")
    report = run_experiment(config)
    # n-3 = 128, an exact power of two; the limit CDF at k=0 is exp(-2)
    assert report.theory["cdf_shifted"]["0"] == pytest.approx(math.exp(-2))
    for t in report.tests:
        assert t["value"] <= 0.05
