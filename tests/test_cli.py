"""CLI surface: dispatch, formats, determinism, exit codes."""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permtree
from permtree import cli
from permtree.cli import COUNT_MAX_N, PMF_MAX_N, YSTAR_MAX_K, build_parser, main
from permtree.codec import count_trees
from permtree.counting import forest_total
from permtree.montecarlo import REGISTRY, ExperimentConfig, run_experiment


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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("what, n, exact", [("trees", 20000, count_trees),
                                            ("forests", 12000, forest_total)])
def test_count_prints_every_digit(run, fmt, what, n, exact):
    """Counts past the interpreter's 4300-digit conversion cap print exactly."""
    limit = sys.get_int_max_str_digits()
    code, out, _ = run("count", "--what", what, "--n", str(n), "--format", fmt)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    if fmt == "json":
        digits = json.loads(out)["count"]
    elif fmt == "csv":
        digits = list(csv.reader(io.StringIO(out)))[1][3]
    else:
        digits = out.strip()
    sys.set_int_max_str_digits(0)
    try:
        assert digits == str(exact(n))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) > 4300


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


@pytest.mark.parametrize("stat, value", [("leaves", 2.0), ("diam", 1.0)])
def test_theory_agrees_with_stats_at_n2(run, stat, value):
    code, out, _ = run("theory", "--stat", stat, "--n", "2", "--k", str(int(value)))
    assert code == 0
    theory = json.loads(out)
    code, out, _ = run("stats", "--stat", stat, "--n", "2", "--samples", "50", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert theory["mean"] == report["theory"]["mean"] == report["empirical"]["mean"] == value
    assert theory["variance"] == report["theory"]["variance"] == 0.0
    assert theory["pmf_at_k"] == 1.0
    assert run("theory", "--stat", stat, "--n", "1")[0] == 2


def test_theory_missing_parameter(run):
    for stat, flag in (("ystar", "--k"), ("maxdeg", "--k"), ("runs", "--q")):
        code, _, err = run("theory", "--stat", stat, "--n", "100")
        assert code == 2
        assert f"needs {flag}" in err


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


@pytest.mark.parametrize("statistic", list(REGISTRY))
def test_stats_json_is_the_report_json(run, statistic):
    """One JSON writer: ``stats`` prints ``to_json()`` for every report shape."""
    q = 0.5 if "q" in REGISTRY[statistic].params else None
    argv = ["stats", "--stat", REGISTRY[statistic].cli_name, "--n", "12", "--samples", "40",
            "--seed", "3", *(["--q", str(q)] if q is not None else [])]
    _, out, _ = run(*argv)
    config = ExperimentConfig(n=12, samples=40, seed=3, statistic=statistic, q=q)
    assert out == run_experiment(config).to_json() + "\n"


def test_stats_text_format(run):
    code, out, _ = run(
        "stats", "--n", "30", "--samples", "2000", "--seed", "5",
        "--stat", "diam", "--format", "text",
    )
    assert code == 0
    assert "verdict: pass" in out


def test_stats_csv_histogram_rows(run):
    code, out, _ = run(
        "stats", "--n", "5", "--samples", "1000", "--seed", "1", "--stat", "leaves", "--format", "csv",
    )
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["value", "count", "expected"]
    assert rows and all(len(r) == 3 for r in rows)
    values = [int(r[0]) for r in rows]
    assert values == sorted(values)
    assert sum(int(r[1]) for r in rows) == 1000


def test_verify_small(run):
    code, out, _ = run("verify", "--max-n", "7", "--format", "text")
    assert code == 0
    assert "verdict: pass" in out
    assert out.count("PASS") == 7


def test_enumerate_cap_exit_2(run):
    code, out, err = run("enumerate", "--n", "40")
    assert code == 2
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--max-n", "0"),
        ("verify", "--max-n", "-5"),
        ("verify", "--max-n", "3"),
        ("verify", "--max-n", "6", "--workers", "1"),
        ("sample", "--n", "5", "--count", "-1", "--seed", "1"),
        ("verify", "--max-n", "6", "--format", "csv"),
        ("sample", "--n", "0", "--count", "0", "--seed", "1"),
        ("sample", "--n", "-3", "--count", "0", "--seed", "1", "--format", "csv"),
        ("count", "--what", "trees", "--n", "5", "--m", "3", "--format", "csv"),
        ("count", "--what", "indecomposable", "--n", "5", "--m", "3"),
        ("sample", "--n", "5", "--count", "0", "--seed", "-1"),
        ("sample", "--n", "5", "--count", "0", "--seed", str(1 << 64)),
        ("theory", "--stat", "gamma", "--n", "10", "--k", "3"),
        ("theory", "--stat", "leaves", "--n", "10", "--q", "0.5"),
        ("theory", "--stat", "runs", "--n", "10", "--q", "0.5", "--k", "2"),
        ("theory", "--stat", "dcov", "--n", "-5", "--k", "2"),
        ("theory", "--stat", "dcov", "--n", "10", "--k", "9"),
        ("stats", "--stat", "gamma", "--n", "50", "--samples", "10", "--seed", "1", "--q", "0.5"),
        ("stats", "--stat", "gamma", "--n", "50", "--samples", "10", "--seed", "1", "--m", "9"),
    ],
)
def test_requests_that_check_or_emit_nothing_are_usage_errors(run, argv):
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert "error" in err


BIG = str(10**20)
CALL_LIMIT_S = 5.0


class _CallTimedOut(Exception):
    pass


def _timed_out(signum, frame):
    raise _CallTimedOut


def _timed_main(argv):
    """``main(argv)`` in process, stopped by SIGALRM after ``CALL_LIMIT_S``: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        *(("count", "--what", what, "--n", str(bound + 1)) for what, bound in COUNT_MAX_N.items()),
        ("count", "--what", "forests", "--n", str(COUNT_MAX_N["forests"] + 1), "--m", "2"),
        ("theory", "--stat", "leaves", "--n", str(PMF_MAX_N + 1), "--k", "3"),
        ("theory", "--stat", "diam", "--n", str(PMF_MAX_N + 1), "--k", "3"),
        # a traceback or a run without end before the bounds
        ("count", "--what", "trees", "--n", BIG),
        ("count", "--what", "indecomposable", "--n", BIG),
        ("count", "--what", "forests", "--n", BIG),
        ("count", "--what", "forests", "--n", BIG, "--m", "1"),
        ("theory", "--stat", "leaves", "--n", BIG, "--k", "3"),
        ("theory", "--stat", "diam", "--n", BIG, "--k", "3"),
    ],
)
def test_sizes_above_the_bounds_are_refused(run, argv):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "refuses n above" in err


# past the bound, and at 2^63 (a MemoryError before the bound)
@pytest.mark.parametrize("k", [YSTAR_MAX_K + 1, 2**63])
def test_ystar_k_above_its_bound_is_refused(run, k):
    code, out, err = run("theory", "--stat", "ystar", "--n", BIG, "--k", str(k))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "refuses k above" in err


def test_the_bounds_refuse_only_what_they_name(run):
    assert run("theory", "--stat", "leaves", "--n", BIG)[0] == 0
    assert run("count", "--what", "forests", "--n", str(COUNT_MAX_N["forests"]), "--m", "2")[0] == 0
    code, out, _ = run("theory", "--stat", "ystar", "--n", BIG, "--k", str(YSTAR_MAX_K))
    assert code == 0 and json.loads(out)["mean"] == 0.0


def _readme_number(text):
    """'700', '10^6' or '5 * 10^5' as an int."""
    value = 1
    for factor in text.split(" * "):
        base, _, exponent = factor.partition("^")
        value *= int(base) ** int(exponent or 1)
    return value


def test_the_readme_bound_table_lists_exactly_the_cli_bounds():
    """One README row per bound constant of ``permtree.cli``, with its value."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\|[^|]+\| [nk] = ([0-9*^ ]+?) +\| `([^`]+)` +\|", readme, re.MULTILINE)
    listed = {constant: _readme_number(size) for size, constant in rows}
    assert len(listed) == len(rows)
    bounds = {}
    for name, value in vars(cli).items():
        if re.fullmatch("[A-Z_]+_MAX_[NK]", name):
            entries = value.items() if isinstance(value, dict) else [(None, value)]
            bounds.update({name if key is None else f'{name}["{key}"]': v for key, v in entries})
    assert listed == bounds


def test_samples_past_the_index_space_are_refused_before_any_output():
    """The substream index space of ``stats --samples`` bounds ``sample --count``."""
    from permtree.montecarlo import _MAX_INDEX

    for argv in (("--n", "4", "--count", str(_MAX_INDEX + 1)), ("--n", BIG, "--count", "2")):
        code, out, err = _timed_main(["sample", *argv, "--seed", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_the_json_writer_refuses_non_finite_values_before_any_output(capsys, value):
    """A bug, not a usage error: a RuntimeError (main maps ValueError to exit 2), stdout empty."""
    with pytest.raises(RuntimeError):
        cli._write("json", {"a": 1, "value": value}, None, None)
    assert capsys.readouterr().out == ""


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


# In a fresh interpreter: import the CLI and verify, run every exact command
# in process, and report exit codes and which heavy modules got loaded.
_EXACT_COMMANDS_PROBE = """
import contextlib, io, json, sys
import permtree.cli, permtree.verify
extra = {"maxdeg": ["--k", "1"], "ystar": ["--k", "2"], "runs": ["--q", "0.5"]}
argvs = [["count", "--what", "trees", "--n", "10"],
         ["enumerate", "--n", "6", "--emit", "stats", "--format", "csv"],
         *(["theory", "--stat", s, "--n", "100", *extra.get(s, [])]
           for s in permtree.cli.THEORY_STATS if s != "dcov"),
         ["verify", "--max-n", "8"]]
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(permtree.cli.main(argv))
heavy = ("numpy", "scipy.stats", "scipy.special")
print(json.dumps({"codes": codes, "loaded": [m for m in heavy if m in sys.modules]}))
"""


def test_import_does_not_load_scipy_stats():
    # the exact layer never imports numpy (about 0.13 s of a cold start) or
    # scipy (scipy.stats about a second, scipy.special a third); only the
    # Monte Carlo commands load them
    env = dict(os.environ, PYTHONPATH=str(Path(permtree.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", _EXACT_COMMANDS_PROBE], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    result = json.loads(out)
    assert result["codes"] == [0] * 9
    assert result["loaded"] == []


def test_stats_choices_are_the_registry_names_in_order():
    from permtree.cli import SAMPLED_STATS
    from permtree.montecarlo import REGISTRY

    assert SAMPLED_STATS == tuple(entry.cli_name for entry in REGISTRY.values())


# ---------------------------------------------------------------------------
# every argv: a result, or a usage error that prints nothing
# ---------------------------------------------------------------------------

ARG_INTS = st.sampled_from([-10**20, -1, 0, 1, 2, 3, 4, 2**63, 10**20])
ARG_FLOATS = st.sampled_from(["nan", "inf", "1e-300"])
_SUBCOMMANDS = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices


def _flag_values(action):
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    return {int: ARG_INTS, float: ARG_FLOATS}[action.type]


@st.composite
def _argvs(draw):
    """A subcommand with every required flag and some optional ones, as the parser lists them."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if action.option_strings and action.nargs != 0 and (action.required or draw(st.booleans())):
            argv += [action.option_strings[0], str(draw(_flag_values(action)))]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(argv=_argvs())
# a sample index past 2**56: samples without end
@example(argv=["sample", "--n", "4", "--seed", "1", "--count", str(10**20)])
# a size the draw cannot allocate, after the first bytes of JSON
@example(argv=["sample", "--n", str(10**20), "--seed", "1", "--count", "1"])
# 2^(2k+2) at k = 2^63: MemoryError
@example(argv=["theory", "--stat", "ystar", "--n", str(10**20), "--k", str(2**63)])
# 2.0 ** 10^20: OverflowError
@example(argv=["theory", "--stat", "maxdeg", "--n", "4", "--k", str(-10**20)])
# a z gate with no spread off theory: Infinity in the JSON
@example(argv=["stats", "--stat", "leaves", "--n", "4", "--samples", "2", "--seed", "1"])
@example(argv=["stats", "--stat", "runs", "--n", "4", "--samples", "4", "--seed", "1",
               "--q", "1e-300"])
def test_every_argv_ends_in_a_result_or_a_usage_error(argv):
    code, out, err = _timed_main(argv)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1)
        if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
            json.loads(out, parse_constant=_reject_constant)
