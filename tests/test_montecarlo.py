"""Harness determinism, goodness-of-fit plumbing, and small fixed-seed runs."""
from __future__ import annotations

import argparse
import math

import numpy as np
import pytest

from permtree.cli import build_parser
from permtree.errors import (
    EmptyHistogramError,
    InvalidConfigError,
    TooFewSamplesError,
)
from permtree.montecarlo import (
    REGISTRY,
    ExperimentConfig,
    Tolerances,
    chi_square,
    normality_check,
    run_experiment,
    substream,
)


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
    with pytest.raises(InvalidConfigError):
        Tolerances(z_limit=0.0)
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


@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_entry_validation(name):
    entry = REGISTRY[name]
    common = dict(samples=10, seed=1, statistic=name, q=0.5)
    with pytest.raises(InvalidConfigError):
        ExperimentConfig(n=entry.min_n - 1, **common)
    config = ExperimentConfig(n=entry.min_n, **common)
    assert set(config.to_dict()) == {"n", "samples", "seed", "statistic", "tolerances", *entry.params}
    assert run_experiment(config).config == config.to_dict()


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


def test_report_deterministic_and_worker_independent():
    base = dict(n=64, samples=4000, seed=99, statistic="gamma")
    r1 = run_experiment(ExperimentConfig(**base))
    r2 = run_experiment(ExperimentConfig(**base))
    assert r1.to_json() == r2.to_json()
    # the worker count must not affect a single output byte
    r3 = run_experiment(ExperimentConfig(**base, workers=2))
    assert r1.to_json() == r3.to_json()


def test_gamma_moderate_run():
    config = ExperimentConfig(
        n=1000,
        samples=20_000,
        seed=0xC0FFEE,
        statistic="gamma",
        tolerances=Tolerances(gamma_mean_abs=0.01, gamma_var_abs=0.02, ks_limit=0.05),
    )
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


def test_report_csv_rows():
    config = ExperimentConfig(n=5, samples=1000, seed=1, statistic="leaves")
    report = run_experiment(config)
    rows = report.csv_rows()
    assert rows and all(len(r) == 3 for r in rows)
    values = [r[0] for r in rows]
    assert values == sorted(values)
    assert sum(r[1] for r in rows) == 1000
