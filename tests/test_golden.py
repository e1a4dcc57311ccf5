"""Pinned report digests: every statistic's full report, byte for byte.

Reports are pure functions of their configuration, so a kernel or report
refactor that changes no behaviour leaves these SHA-256 digests of
``run_experiment(config).to_json()`` unchanged.  The configurations are
small (n <= 8500, at most 3000 samples); the n = 200 to 300 runs span three
sample chunks, the n = 2..6 runs cover the degenerate trees, and the
1100-sample runs at n >= 3000 spread wide enough to carry a normality
(ks) gate.  The stdout of CLI commands is pinned the same way: three JSON
outputs and every csv and text projection.
"""
from __future__ import annotations

import hashlib

import pytest

from permtree import montecarlo
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
    # numpy draws a geometric with p < 1/3 by inversion, and with p >= 1/3
    # by a search; q = 2/3 gives p = 0.33333333333333337, the search side
    (dict(n=250, samples=3000, seed=20240601, statistic="runs_geometric", q=0.8),
     "f50938c7142598b68d4db4243d85d6345df2f70eb121ec7d20717964eff165eb"),
    (dict(n=300, samples=3000, seed=20240601, statistic="runs_geometric", q=2 / 3),
     "2fa2bb789ef4f1836ef74fcf3dee8ba68b53c8e8d4efea45fabe2e98078eee6f"),
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
    # normality gates: at least 1000 values and std * ks_limit >= 0.25
    (dict(n=4000, samples=1100, seed=79, statistic="leaves"),
     "0a61f0fe8c52357439deb198c257f0e9edba29a2f73c8eacbf3418ba390b99b7"),
    (dict(n=8500, samples=1100, seed=88, statistic="gamma"),
     "f5c1c0272f4cf8c14bb158fb0429374dc483d181a59cff33b5830d1bae55a333"),
    (dict(n=3000, samples=1100, seed=81, statistic="dcov", m=5),
     "a7fb3098cd4c7f84a431cb55921a344af79399b566b869bb76744702afd481d5"),
]


def _id(case):
    cfg = case[0]
    return f"{cfg['statistic']}-n{cfg['n']}-s{cfg['samples']}"


# the ks gate each normality case must carry, so its digest covers that path
KS_GATES = {
    "leaves-n4000-s1100": "normality_ks",
    "gamma-n8500-s1100": "normality_ks",
    "dcov-n3000-s1100": "normality_d1_ks",
}
KS_CASES = [c for c in GOLDEN if _id(c) in KS_GATES]


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


def test_chunk_rows_follow_the_toss_budget():
    budget = montecarlo._CHUNK_TOSSES
    assert montecarlo._chunk_rows(budget // CHUNK) == CHUNK
    n = budget // CHUNK + 1  # the smallest size the budget cuts below CHUNK rows
    rows = montecarlo._chunk_rows(n)
    assert rows < CHUNK and rows * n <= budget < (rows + 1) * n
    assert montecarlo._chunk_rows(budget) == 1
    assert montecarlo._chunk_rows(budget + 1) == 1
    assert montecarlo._chunk_rows(10_000) == 52  # the acceptance fixtures' size


@pytest.mark.parametrize("budget, rows", [(1 << 24, CHUNK), (7 * 200, 7)], ids=["1024-rows", "7-rows"])
@pytest.mark.parametrize("name", ["leaves-n200-s3000", "dcov-n200-s3000"])
def test_report_digest_does_not_depend_on_the_chunk_budget(name, budget, rows, monkeypatch):
    cfg, digest = next(c for c in GOLDEN if _id(c) == name)
    monkeypatch.setattr(montecarlo, "_CHUNK_TOSSES", budget)
    counts = []
    compute = montecarlo._compute_chunk
    monkeypatch.setattr(montecarlo, "_compute_chunk", lambda task: counts.append(task[2]) or compute(task))
    text = run_experiment(ExperimentConfig(**cfg)).to_json()
    assert max(counts) == rows and sum(counts) == cfg["samples"]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", KS_CASES, ids=[_id(c) for c in KS_CASES])
def test_normality_cases_carry_a_ks_gate(case):
    assert len(KS_CASES) == len(KS_GATES)
    tests = run_experiment(ExperimentConfig(**case[0])).tests
    assert [t["name"] for t in tests if t["kind"] == "ks"] == [KS_GATES[_id(case)]]


CLI_GOLDEN = [
    ("verify --max-n 8 --format json",
     "60dc68077bbd85ec87960ff8886345248f33d7b7d5028c197892178486649602"),
    ("sample --n 50 --count 20 --seed 7",
     "6b0cce4f17b67e9884883af4306766fadf9f875542983ff7c8fd3753b61c5dd0"),
    # "runs" is the CLI name of runs_geometric
    ("stats --n 40 --samples 2000 --seed 5 --stat runs --q 0.5",
     "9a1b279a2c0f1c42bab9a23eb208ad6055725a0d2ba6c6d250d60f14d835237c"),
]


# every csv and text projection, and the JSON of each streamed array; the
# empty cells of a one-letter tree, an empty array and both stats tables
# (histogram for leaves, gates for dcov) included
CLI_PROJECTIONS = [
    ("count --what trees --n 10 --format csv",
     "b8bb1b313429b87e788a5543dad39a42ceaa2422ad05f0cb62655cb857052f54"),
    ("count --what forests --n 12 --m 3 --format csv",
     "ab4fcfb8a08d5ad294bc1f10332a6c29235f7807dd3ecb94688034aa0d5264a9"),
    ("count --what forests --n 12 --format csv",
     "c014edccb5697a735b64bb7df8b3e7ca54fed070ada4a438c2db4eb617419de2"),
    ("count --what forests --n 12 --m 3 --format text",
     "9952650dbb26a7c5275a61397a9cd29c9fc3db27e50b0de551eade37bf153839"),
    ("count --what indecomposable --n 9 --format text",
     "678381b17330b840a41a3086f389d569b43dc1bb59f319cec252fe38192b24ec"),
    ("enumerate --n 5 --emit perms --format csv",
     "fdd3f0d96ff4e71185667e424c7912b8adf870c1e00066d07d46ebc8e7db4c40"),
    ("enumerate --n 5 --emit perms --format text",
     "d74de76154a8050ab6896789778c23f688323b8669061a87172ce7c951453869"),
    ("enumerate --n 5 --emit codes --format csv",
     "aa6bab830a17a02b4550eb2d2020ea3b0a97b2c16dfed6ef7c6e312110dccf66"),
    ("enumerate --n 5 --emit codes --format text",
     "e19df263df6b17b7cda43da5e4db5fdeb0bf0bbf3490754b91c47dfb983cb309"),
    ("enumerate --n 5 --emit stats --format csv",
     "93f2a49b71914412dbe308f4490ba948a44e74bd2f25e6b44d370b6d57ccc10c"),
    ("enumerate --n 5 --emit stats --format text",
     "b2a85ba41bcdcd38a8fb9d44a05667d128f87c15b66b0bcd0fc44cab041e5c68"),
    ("enumerate --n 1 --emit stats --format csv",
     "0555a930eb020f5847632c355c17af12c68c3c23783cd70427683c42bb6ddbc5"),
    ("sample --n 12 --count 5 --seed 7 --format csv",
     "89c0ae03d99602f92aa8eef8d41e4edfca36478a5f1adf7ceaf9072152e59355"),
    ("sample --n 12 --count 5 --seed 7 --format text",
     "c5083ad0a0686b36cde93bb4ffce6e3f52ec046005b474ba2a4667da2b7d2dfe"),
    ("stats --n 40 --samples 2000 --seed 5 --stat leaves --format csv",
     "9cb8c9a0d44cec1b7e7b53d7a972f8d81756210b93ee6e74f2ac0f9408e08c26"),
    ("stats --n 200 --samples 2000 --seed 5 --stat dcov --format csv",
     "48df3fce809dff4ead5b06ab362b937fb9e174918678e9cfc654bd5e74e04b2e"),
    ("stats --n 40 --samples 2000 --seed 5 --stat gamma --format text",
     "2c49d4d64fe99c229b2722cc5faccefa8a77e17f42e62904ffcb53b834737343"),
    ("theory --stat dcov --n 100 --k 3 --format csv",
     "0f97d7813e533d5b19dcb59a6c5982b423636be3d4360bf4846d6e8d4d742d10"),
    ("theory --stat leaves --n 100 --k 7 --format text",
     "d6713d9bb1bc0cf70a3191fa274d22dc8ab9e78dd42b25f72ceb105f1c56309e"),
    ("verify --max-n 6 --format text",
     "0ca4694fe8e6901e8f4457a4a0277afaf581d0a9eaafa94ef519914504b8ac2b"),
    ("enumerate --n 5 --emit perms",
     "850d1541991a945b412018f953141b751cd0ab3a0cc6afef4d9b92f0f4814f27"),
    ("enumerate --n 5 --emit codes",
     "85359622917afacaeec8c53942be993aa8e5cc2d897885bb98477d8cc4c8a876"),
    ("enumerate --n 5 --emit stats",
     "34685520e4e1f912a6a357f031e14f9577994a1f47801f8192e6f5b251ace194"),
    ("enumerate --n 1 --emit stats",
     "e0b631e9bd9cf99d5b5d2324fd596a9641d5fc276113e03a928a7940f158df96"),
    ("sample --n 12 --count 0 --seed 7",
     "7701bef8ce43e67262bf7344ac33e83406740c3af3066700e59f81085aa76f17"),
]


@pytest.mark.parametrize(
    "case",
    CLI_GOLDEN + CLI_PROJECTIONS,
    ids=[c[0].split()[0] for c in CLI_GOLDEN] + [c[0] for c in CLI_PROJECTIONS],
)
def test_cli_stdout_digest(case, capsys):
    argv, digest = case
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
