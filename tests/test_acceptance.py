"""Acceptance battery.

One test per criterion (criteria 1-3 share one census run, criterion 8
splits into its three clauses); each prints a single pass/fail line with
the objects it checked and the seconds it took, visible with ``pytest
-s``.  The exhaustive parts of criteria 1-7 run the checks of
``permtree.verify`` over their own ranges, and criterion 7's sampled
part applies ``verify.cover_agrees``, the predicate of its cover check,
to each sampled tree.  The heavy fixed-seed
experiments (seed 0xC0FFEE, n = 10^4, 10^5 samples) are shared
module-scoped fixtures.

Criterion 8's variance clause demands var(gamma)/n in [0.25, 0.27], the
band around the quoted rate 13/50.  That rate is refuted by exact
enumeration (the exact variance over all trees of size n is (2/27) n minus
a constant; see cover.gamma_variance_rate and README), so the clause is
implemented literally and marked as a strict expected failure: it must
keep failing honestly, and this suite will flag it loudly if it ever
starts passing.
"""
from __future__ import annotations

import math
import multiprocessing as mp
import time

import pytest

from permtree import verify
from permtree.codec import count_trees, enumerate_trees, sample_code
from permtree.counting import census, forest_count, forest_total, indecomposable_count
from permtree.cover import gamma_variance_rate
from permtree.montecarlo import ExperimentConfig, run_experiment, substreams
from permtree.stats import maxdeg_cdf_approx

SEED = 0xC0FFEE
BIG_N = 10_000
BIG_SAMPLES = 100_000
WORKERS = 2
# the exhaustive bound of the structure (5) and cover (7) checks
EXHAUSTIVE_N = 12


def _line(tag: str, ok: bool, text: str, *results: dict) -> None:
    """Print the verdict with the objects checked and seconds spent by ``results``."""
    checked = sum(r["checked"] for r in results)
    seconds = sum(r["seconds"] for r in results)
    print(
        f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {text} [{checked} objects, {seconds:.1f} s]",
        flush=True,
    )


def _passed(results: list[dict]) -> bool:
    return all(r["failures"] == 0 for r in results)


def _worst(gates: list[dict], spec: str) -> str:
    """The largest gate value, formatted; a gate without a value (JSON null) is the worst."""
    values = [t["value"] for t in gates]
    return "null" if None in values else format(max(values), spec)


def _experiment(statistic: str, n: int = BIG_N, **extra) -> tuple:
    """(report, record) for one fixed-seed run of 10^5 samples."""
    start = time.perf_counter()
    report = run_experiment(
        ExperimentConfig(
            n=n, samples=BIG_SAMPLES, seed=SEED, statistic=statistic, workers=WORKERS, **extra
        )
    )
    return report, {"checked": BIG_SAMPLES, "seconds": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gamma_report():
    return _experiment("gamma")


@pytest.fixture(scope="module")
def leaves_report():
    return _experiment("leaves")


@pytest.fixture(scope="module")
def dcensus_report():
    return _experiment("dcensus")


@pytest.fixture(scope="module")
def dcov_report():
    return _experiment("dcov", m=5)


# ---------------------------------------------------------------------------
# 1-3: exhaustive census vs closed forms
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def census_run():
    """The shared census check over n <= 8, and the tables of each clause."""
    result = verify.CENSUS.run(8)
    tables = {n: census(n) for n in range(1, 9)}
    return result, tables


def test_criterion_1_tree_counts(census_run):
    result, tables = census_run
    ok = result["failures"] == 0 and result["checked"] == sum(math.factorial(n) for n in range(1, 9))
    ok = ok and all(tables[n].trees == count_trees(n) for n in range(1, 9)) and tables[1].trees == 1
    _line("1", ok and result["seconds"] < 60, "census trees = 2^(n-2) over all of S_n, n=1..8", result)
    assert ok
    assert result["seconds"] < 60


def test_criterion_2_forest_counts(census_run):
    result, tables = census_run
    ok = result["failures"] == 0
    for n in range(1, 9):
        table = tables[n]
        for m in range(1, n + 1):
            ok &= table.forests_by_m.get(m, 0) == forest_count(n, m)
        ok &= table.forest_total == forest_total(n)
    _line("2", ok, "census forests match f(n,m) and the 3f-f recurrence, n=1..8", result)
    assert ok


def test_criterion_3_indecomposable_counts(census_run):
    result, tables = census_run
    ok = result["failures"] == 0
    ok &= all(tables[n].connected == indecomposable_count(n) for n in range(1, 9))
    _line("3", ok, "census connected tally matches the factorial convolution, n=1..8", result)
    assert ok


# ---------------------------------------------------------------------------
# 4: the bijection
# ---------------------------------------------------------------------------


def test_criterion_4_bijection(trees_up_to_8):
    result = verify.ROUNDTRIP.run(18)
    ok = result["failures"] == 0
    for n in range(1, 9):
        image = {p.values for p in enumerate_trees(n)}
        ok &= image == trees_up_to_8[n]
        ok &= len(image) == count_trees(n)
    _line("4", ok, "encode(decode) = id for n<=18; decode image = brute-force trees for n<=8", result)
    assert ok


# ---------------------------------------------------------------------------
# 5: structure lemmas
# ---------------------------------------------------------------------------


def test_criterion_5_structure_lemmas():
    results = [verify.ADJACENCY.run(EXHAUSTIVE_N), verify.CATERPILLAR.run(EXHAUSTIVE_N)]
    elapsed = sum(r["seconds"] for r in results)
    ok = _passed(results)
    text = f"block adjacency and caterpillar shape, n<={EXHAUSTIVE_N}"
    _line("5", ok and elapsed < 120, text, *results)
    assert ok
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 6: exact small-n laws
# ---------------------------------------------------------------------------


def test_criterion_6_exact_laws():
    result = verify.LAWS.run(14)
    ok = result["failures"] == 0
    _line("6", ok, "exact laws: leaves/diameter binomial, max degree = 2 + tail run, degree coupling (n<=14)", result)
    assert ok


# ---------------------------------------------------------------------------
# 7: cover-number triple agreement
# ---------------------------------------------------------------------------


def _sampled_cover(block: tuple[int, int]) -> tuple[int, int]:
    """(checked, failures) of ``verify.cover_agrees`` on one block of sampled trees."""
    start, count = block
    rngs = substreams(SEED, 9, start, count)
    oks = [verify.cover_agrees(sample_code(1000, rng)) for rng in rngs]
    return len(oks), oks.count(False)


def test_criterion_7_triple_agreement():
    results = [verify.COVER.run(EXHAUSTIVE_N), verify.DECOMPOSITION.run(EXHAUSTIVE_N)]
    sampled_start = time.perf_counter()
    samples = 100_000
    block = 2500
    with mp.Pool(WORKERS) as pool:
        parts = pool.map(_sampled_cover, [(start, block) for start in range(0, samples, block)])
    checked = sum(c for c, _ in parts)
    failures = sum(f for _, f in parts)
    results.append({"checked": checked, "failures": failures, "seconds": time.perf_counter() - sampled_start})
    ok = _passed(results) and checked == samples
    _line(
        "7",
        ok,
        f"marking = formula = exact minimizer and the run decomposition (n<={EXHAUSTIVE_N} "
        f"exhaustive; {checked} sampled at n=1000)",
        *results,
    )
    assert ok


# ---------------------------------------------------------------------------
# 8: fixed-seed moment reproduction
# ---------------------------------------------------------------------------


def test_criterion_8a_gamma_mean(gamma_report):
    report, record = gamma_report
    ratio = report.empirical["mean_over_n"]
    ok = 0.328 <= ratio <= 0.338
    _line("8a", ok, f"mean gamma/n = {ratio:.5f} in [0.328, 0.338]", record)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="var(gamma)/n converges to 2/27 = 0.0741 (exact enumeration and the"
    " chain closed form agree; see cover.gamma_variance_rate and README), so the"
    " quoted band [0.25, 0.27] around 13/50 cannot be met by the statistic this"
    " suite verifies three independent ways.",
)
def test_criterion_8b_gamma_variance_band(gamma_report):
    report, record = gamma_report
    ratio = report.empirical["var_over_n"]
    ok = 0.25 <= ratio <= 0.27
    _line(
        "8b",
        ok,
        f"var gamma/n = {ratio:.5f} vs quoted band [0.25, 0.27] "
        f"(exact rate 2/27 = {float(gamma_variance_rate()):.5f}; expected failure)",
        record,
    )
    assert ok


def test_criterion_8c_window_means(dcensus_report):
    report, record = dcensus_report
    window_tests = [t for t in report.tests if t["name"].startswith("window_count_")]
    ok = len(window_tests) == 6 and all(t["pass"] for t in window_tests)
    worst = _worst(window_tests, ".2f")
    _line("8c", ok, f"window-count means within 3 standard errors for k<=6 (worst z = {worst})", record)
    assert ok


# ---------------------------------------------------------------------------
# 9: shape checks at desk scale
# ---------------------------------------------------------------------------


def test_criterion_9_normality_and_covariance(gamma_report, leaves_report, dcov_report):
    g_ks = gamma_report[0].empirical["normality"]["ks"]
    d1_ks = leaves_report[0].empirical["normality"]["ks"]
    cov_tests = [t for t in dcov_report[0].tests if t["name"].startswith("cov_")]
    worst_cov = _worst(cov_tests, ".4f")
    ok = g_ks < 0.01 and d1_ks < 0.01 and all(t["pass"] for t in cov_tests)
    _line(
        "9",
        ok,
        f"gamma ks = {g_ks:.4f} < 0.01, leaf-count ks = {d1_ks:.4f} < 0.01, "
        f"covariance entries within 0.02 (worst {worst_cov})",
        gamma_report[1],
        leaves_report[1],
        dcov_report[1],
    )
    assert g_ks < 0.01
    assert d1_ks < 0.01
    assert all(t["pass"] for t in cov_tests)


# ---------------------------------------------------------------------------
# 10: max-degree limit law
# ---------------------------------------------------------------------------


def test_criterion_10_maxdeg_cdf():
    report, record = _experiment("maxdeg", n=2051)
    diffs = {
        int(k): abs(report.empirical["cdf_shifted"][k] - report.theory["cdf_shifted"][k])
        for k in report.empirical["cdf_shifted"]
    }
    ok = set(diffs) == set(range(-2, 7)) and all(v <= 0.02 for v in diffs.values())
    _line("10", ok, f"shifted max-degree CDF within 0.02 at k=-2..6 (worst {max(diffs.values()):.4f})", record)
    assert ok
    # spot value: n-3 = 2048 is a power of two, so the k=0 limit is exp(-2)
    assert report.theory["cdf_shifted"]["0"] == pytest.approx(math.exp(-2), abs=1e-12)
    assert maxdeg_cdf_approx(2051, 0) == pytest.approx(0.1353, abs=5e-5)


# ---------------------------------------------------------------------------
# 11: geometric run counts
# ---------------------------------------------------------------------------


def test_criterion_11_geometric_runs():
    report, record = _experiment("runs_geometric", q=0.5)
    by_name = {t["name"]: t for t in report.tests}
    ok = by_name["mean"]["pass"] and by_name["variance"]["pass"]
    _line(
        "11",
        ok,
        f"run-count mean z = {_worst([by_name['mean']], '.2f')}, "
        f"variance z = {_worst([by_name['variance']], '.2f')} (3-SE bands at q=1/2)",
        record,
    )
    assert ok
