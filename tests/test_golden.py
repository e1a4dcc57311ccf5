"""Pinned report digests: every statistic's full report, byte for byte.

Reports are pure functions of their configuration, so a kernel or report
refactor that changes no behaviour leaves these SHA-256 digests of
``run_experiment(config).to_json()`` unchanged.  The configurations are
small (n <= 5000, at most 3000 samples); the n = 200 runs span three
sample chunks, and the n = 2..6 runs cover the degenerate trees.  The
stdout of three CLI commands is pinned the same way.
"""
from __future__ import annotations

import hashlib

import pytest

from permtree.cli import main
from permtree.montecarlo import CHUNK, ExperimentConfig, run_experiment

GOLDEN = [
    (dict(n=200, samples=3000, seed=20240601, statistic="leaves"),
     "0e4568e2b8ff7ea550e59e5df5763e8f6aeeaccf5029219573101f721f14f9ef"),
    (dict(n=200, samples=3000, seed=20240601, statistic="diam"),
     "c71d3c4e9d0c073b98a612b9386150accd33cab39ea54fcfeb90e9de31170b23"),
    (dict(n=200, samples=3000, seed=20240601, statistic="maxdeg"),
     "5769c2b57ea3412bfe08cf4a134358e7e94a3b1dcb88757618b87a915be1306e"),
    (dict(n=200, samples=3000, seed=20240601, statistic="dcensus", kmax=8),
     "25c0a9c3af8af553381d5ad83398c0c31b40c7f30f57efb0f54062b68fbbd2a0"),
    (dict(n=200, samples=3000, seed=20240601, statistic="gamma"),
     "81a7c09cff220a9a50d5fa3dfd2b3de7644adf16ad06aa0b4871d87956d7e98a"),
    (dict(n=200, samples=3000, seed=20240601, statistic="dcov", m=5),
     "5ca1fc9869b1c585a34e23c4dc1e2e0056d3d1347002b9326e2af488acf7acf5"),
    (dict(n=200, samples=3000, seed=20240601, statistic="runs_geometric", q=0.3),
     "e09ffc53a537d3f45b896c303cd476aa4cfcb7aecfb109ccc78bbcd27baa146a"),
    (dict(n=2, samples=50, seed=1, statistic="leaves"),
     "04860b2fa39ba1613ad780650317532a4d0e11a52d8bd4bf9c43d059b16add74"),
    (dict(n=3, samples=50, seed=1, statistic="diam"),
     "1f4ccdde645be7c18c667378e68207015f10f04b5c362cd46f6287bfd636e8e1"),
    (dict(n=4, samples=1500, seed=2, statistic="gamma"),
     "ca92fb2256d0b422de83b31bd726c885a4a0f3abc002abe641a3da331f173862"),
    (dict(n=4, samples=1500, seed=2, statistic="maxdeg"),
     "bcb95485d9d1593b76a3cdabe7b48ce26436cd9a9c2ee892f7edc6df957d75a7"),
    (dict(n=5, samples=1500, seed=3, statistic="dcensus", kmax=8),
     "b386579ac7334030bcabfd72f020fb28ce2e0e90b92c182683adf8ceb11d99c7"),
    (dict(n=6, samples=1500, seed=3, statistic="dcov", m=8),
     "ca2c35fcc0d19a7fac20f4dba9728bea249d50c12091d1af31c7ecf1f41a9664"),
    # wide pmf windows: the leaf and diameter laws at larger n
    (dict(n=1000, samples=2500, seed=77, statistic="leaves"),
     "e1027325976b8658e31aa6c887c5416c8a959d19e58a12fefdc67db0cacdcb95"),
    (dict(n=5000, samples=1100, seed=78, statistic="diam"),
     "6b18146eb06e09512d9ad5c7105ad39f6d9f7dea8621a33dd0a6c5b3d9d5ab3d"),
]


def _id(case):
    cfg = case[0]
    return f"{cfg['statistic']}-n{cfg['n']}-s{cfg['samples']}"


def test_golden_configs_span_several_chunks():
    assert {cfg["statistic"] for cfg, _ in GOLDEN} == {
        "leaves", "diam", "maxdeg", "dcensus", "gamma", "dcov", "runs_geometric",
    }
    assert max(cfg["samples"] for cfg, _ in GOLDEN) > 2 * CHUNK


@pytest.mark.parametrize("case", GOLDEN, ids=[_id(c) for c in GOLDEN])
def test_report_digest(case):
    cfg, digest = case
    text = run_experiment(ExperimentConfig(**cfg)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


CLI_GOLDEN = [
    ("verify --max-n 8 --format json",
     "60dc68077bbd85ec87960ff8886345248f33d7b7d5028c197892178486649602"),
    ("sample --n 50 --count 20 --seed 7",
     "6b0cce4f17b67e9884883af4306766fadf9f875542983ff7c8fd3753b61c5dd0"),
    # "runs" is the CLI name of runs_geometric
    ("stats --n 40 --samples 2000 --seed 5 --stat runs --q 0.5",
     "9a1b279a2c0f1c42bab9a23eb208ad6055725a0d2ba6c6d250d60f14d835237c"),
]


@pytest.mark.parametrize("case", CLI_GOLDEN, ids=[c[0].split()[0] for c in CLI_GOLDEN])
def test_cli_stdout_digest(case, capsys):
    argv, digest = case
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
