"""CLI surface: dispatch, formats, determinism, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permtree
from permtree.cli import main


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return _run


def test_count_trees(run):
    code, out, _ = run("count", "--what", "trees", "--n", "10")
    assert code == 0
    assert json.loads(out) == {
        "schema": "permtree/1",
        "what": "trees",
        "n": 10,
        "count": "256",
    }


def test_count_forests_with_m(run):
    code, out, _ = run("count", "--what", "forests", "--n", "4", "--m", "2")
    assert code == 0
    assert json.loads(out)["count"] == "5"
    code, out, _ = run("count", "--what", "forests", "--n", "4", "--format", "text")
    assert out.strip() == "13"


def test_count_indecomposable(run):
    code, out, _ = run("count", "--what", "indecomposable", "--n", "8", "--format", "text")
    assert code == 0
    assert out.strip() == "29093"


def test_enumerate_perms(run):
    code, out, _ = run("enumerate", "--n", "3")
    assert code == 0
    # packed-code order: code 0x0 decodes to (3,1,2), code 0x1 to (2,3,1)
    assert json.loads(out)["perms"] == [[3, 1, 2], [2, 3, 1]]


def test_enumerate_stats_csv(run):
    code, out, _ = run("enumerate", "--n", "4", "--emit", "stats", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "code,perm,leaves,diameter,max_degree,gamma"
    assert len(lines) == 5


def test_sample_requires_seed(run):
    code, _, _ = run("sample", "--n", "5", "--count", "2")
    assert code == 2


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_seed_outside_64_bits_is_a_usage_error(run, seed):
    assert run("sample", "--n", "5", "--count", "2", "--seed", seed)[0] == 2
    argv = ("stats", "--n", "10", "--samples", "10", "--seed", seed, "--stat", "leaves")
    assert run(*argv)[0] == 2


def test_sample_deterministic(run):
    a = run("sample", "--n", "12", "--count", "3", "--seed", "7")
    b = run("sample", "--n", "12", "--count", "3", "--seed", "7")
    assert a == b
    assert a[0] == 0
    perms = json.loads(a[1])["samples"]
    assert len(perms) == 3
    for rec in perms:
        vals = rec["perm"]
        assert sorted(vals) == list(range(1, 13))


def test_theory_gamma(run):
    code, out, _ = run("theory", "--stat", "gamma", "--n", "300")
    assert code == 0
    obj = json.loads(out)
    assert obj["mean"] == 100.0 and obj["variance"] == 78.0
    assert obj["variance_rate_exact"] == pytest.approx(2 / 27)


def test_theory_runs(run):
    code, out, _ = run("theory", "--stat", "runs", "--n", "100", "--q", "0.5")
    assert code == 0
    obj = json.loads(out)
    assert obj["mean"] == pytest.approx(200 / 3 + 1 / 3)


def test_theory_missing_parameter(run):
    code, _, err = run("theory", "--stat", "ystar", "--n", "100")
    assert code == 2
    assert "error" in err


def test_stats_runs_and_exit_code(run):
    code, out, _ = run(
        "stats", "--n", "40", "--samples", "4000", "--seed", "5", "--stat", "leaves"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "permtree/1"
    assert obj["verdict"] == "pass"


def test_stats_byte_identical(run):
    argv = ("stats", "--n", "40", "--samples", "2000", "--seed", "9", "--stat", "gamma")
    a = run(*argv)
    b = run(*argv)
    assert a == b


def test_stats_text_format(run):
    code, out, _ = run(
        "stats", "--n", "30", "--samples", "2000", "--seed", "5",
        "--stat", "diam", "--format", "text",
    )
    assert code == 0
    assert "verdict: pass" in out


def test_verify_small(run):
    code, out, _ = run("verify", "--max-n", "7", "--format", "text")
    assert code == 0
    assert "verdict: pass" in out
    assert out.count("PASS") == 7


def test_enumerate_cap_exit_2(run):
    code, _, err = run("enumerate", "--n", "40")
    assert code == 2
    assert "cap" in err


def test_verify_json(run):
    code, out, _ = run("verify", "--max-n", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "pass"
    assert all(c["pass"] for c in obj["checks"])


def test_usage_error_exit_2(run):
    code, _, _ = run("count", "--what", "nonsense", "--n", "4")
    assert code == 2
    code, _, _ = run()
    assert code == 2


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone costs about a second of every cold start
    env = dict(os.environ, PYTHONPATH=str(Path(permtree.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, permtree.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"
