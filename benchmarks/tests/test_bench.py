"""Tests of the benchmark itself: span arithmetic, output checks, tiny smoke runs.

Run from the repository root:

    python3 -m pytest benchmarks/tests -q
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402

TINY = bw.Sizes(
    mc_n=64,
    mc_maxdeg_n=67,
    mc_samples=300,
    exact_n=60,
    exact_trees=6,
    count_n=7,
    sample_n=30,
    sample_count=4,
    verify_max_n=6,
)


def synthetic(spans):
    """Tracer holding ``spans`` given as (name, start, end, parent)."""
    tracer = bench_trace.Tracer("test")
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
    return tracer


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def test_union_length_merges_overlaps_and_clips():
    assert bench_trace.union_length([(1, 3), (3, 5)], 0, 10) == 4  # back to back
    assert bench_trace.union_length([(1, 4), (2, 3), (3.5, 6)], 0, 10) == 5  # nested, overlapping
    assert bench_trace.union_length([(-2, 1), (9, 12)], 0, 10) == 2  # clipped to the window
    assert bench_trace.union_length([], 0, 10) == 0


def test_self_times_nested_and_back_to_back_children():
    tracer = synthetic(
        [
            ("a.root", 0.0, 10.0, -1),
            ("a.left", 1.0, 3.0, 0),
            ("a.inner", 1.5, 2.5, 1),  # grandchild: counts against a.left only
            ("a.right", 3.0, 5.0, 0),  # starts where a.left ends
            ("a.root", 11.0, 12.0, -1),
        ]
    )
    selfs = bench_trace.self_times(tracer.starts, tracer.ends, tracer.parents)
    assert selfs == pytest.approx([6.0, 1.0, 1.0, 2.0, 1.0])
    # a sub-range sees parents outside it as roots
    assert bench_trace.self_times(tracer.starts, tracer.ends, tracer.parents, 1, 3) == pytest.approx([1.0, 1.0])


def test_pass_layers_counts_toss_passes_per_chunk_and_uncovered_time():
    tracer = synthetic(
        [
            ("montecarlo.run_experiment", 0.0, 4.0, -1),
            ("stats.tosses_from_codes", 0.1, 0.2, 0),
            ("cover.batch_gamma", 0.2, 0.5, 0),
            ("stats.tosses_from_codes", 1.0, 1.1, 0),
            ("cover.batch_gamma", 1.1, 1.4, 0),
            ("montecarlo.run_experiment", 5.0, 6.0, -1),
            ("stats.tosses_from_codes", 5.1, 5.2, 5),
            ("stats.batch_degree_counts", 5.2, 5.8, 5),
            ("stats.batch_head_count", 5.2, 5.3, 7),
            ("stats.batch_tail_run_starts", 5.3, 5.4, 7),
            ("stats.batch_tail_runs_equal", 5.4, 5.5, 7),
        ]
    )
    layers = bench_trace.pass_layers(tracer, 0, len(tracer), [(0.0, 4.5), (4.5, 6.5)])
    assert layers["stats.toss_passes"] == pytest.approx(1 + 3)  # 2 calls / 2 chunks + 3 / 1
    assert layers["cover.batch_gamma.s"] == pytest.approx(0.6)
    assert layers["stats.batch_degree_counts.self_s"] == pytest.approx(0.3)
    assert layers["stats.batch_tail_runs_equal.calls"] == 1
    assert layers["montecarlo.run_experiment.self_s"] == pytest.approx(4.0 - 0.8 + 1.0 - 0.7)
    assert layers["trace.uncovered_s"] == pytest.approx(0.5 + 1.0)
    names = {name for name, _ in bench_trace.LAYER_METRICS}
    assert names - {"cli.import_s", "cli.import_scipy_s", "trace.overhead_s"} <= set(layers)


def test_parse_importtime_reads_cumulative_microseconds():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1141 |     815747 |     scipy.stats",
            "import time:      8037 |    1172993 | permtree.cli",
        ]
    )
    assert bench_trace.parse_importtime(stderr) == {
        "cli.import_s": pytest.approx(1.172993),
        "cli.import_scipy_s": pytest.approx(0.815747),
    }
    assert bench_trace.parse_importtime("")["cli.import_scipy_s"] == 0.0


def test_installed_wraps_every_alias_and_restores():
    from permtree import codec, cover, montecarlo, perm

    original = codec.random_bits
    tracer = bench_trace.Tracer("test")
    with bench_trace.installed(tracer):
        assert montecarlo.random_bits is codec.random_bits is not original
        codec.decode(codec.TreeCode(5, (1, 0, 1)))
        cover.gamma_formula(perm.Permutation([2, 4, 1, 3]))
    assert montecarlo.random_bits is codec.random_bits is original
    assert "__wrapped__" not in vars(perm.Permutation.__init__)
    assert tracer.names[:2] == ["codec.decode", "perm.Permutation"]
    assert tracer.parents[1] == 0
    # cover looks up its own alias of structure.ordered_spine; the span keeps the defining name
    assert "structure.ordered_spine" in tracer.names


# ---------------------------------------------------------------------------
# output checks: corrupted output is a failed operation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mc():
    wl = bw.McFixtures(7, TINY, root=str(ROOT))
    wl.setup()
    return wl


def test_corrupted_report_is_a_failure(mc):
    from permtree import montecarlo

    cfg, cfg_dict = mc.configs[0], mc.config_dicts[0]
    text = montecarlo.run_experiment(cfg).to_json()
    assert bw.check_report(text, cfg_dict, cfg.samples) == ""
    obj = json.loads(text)
    first = next(iter(obj["empirical"]["histogram"]))
    obj["empirical"]["histogram"][first] += 1
    assert "histogram" in bw.check_report(json.dumps(obj), cfg_dict, cfg.samples)
    obj = json.loads(text)
    obj["verdict"] = "pass" if obj["verdict"] == "fail" else "fail"
    assert "verdict" in bw.check_report(json.dumps(obj), cfg_dict, cfg.samples)
    assert "JSON" in bw.check_report(text[:-1], cfg_dict, cfg.samples)

    assert mc.check(cfg.statistic, 0.0, 1.0, text, cfg_dict, cfg.samples).ok
    # any byte change, even one the structural check cannot see, breaks the digest
    changed = text.replace('"schema"', ' "schema"', 1)
    assert bw.check_report(changed, cfg_dict, cfg.samples) == ""
    op = mc.check(cfg.statistic, 0.0, 1.0, changed, cfg_dict, cfg.samples)
    assert not op.ok and "digest" in op.note


def test_pinned_digest_applies_at_default_seed_and_sizes():
    wl = bw.McFixtures(bw.DEFAULT_SEED)
    assert wl.digest_problem("leaves", bw.PINNED["mc_fixtures"]["leaves"]) == ""
    assert wl.digest_problem("leaves", "0" * 64) != ""
    other_seed = bw.CliCold(bw.DEFAULT_SEED + 1, root=str(ROOT))
    assert other_seed.digest_problem("verify", "0" * 64) != ""  # seed-free: still pinned
    assert other_seed.digest_problem("sample", "0" * 64) == ""  # first seen
    assert other_seed.digest_problem("sample", "1" * 64) != ""


def test_route_disagreement_is_a_failure(monkeypatch):
    from permtree import cover

    wl = bw.ExactN1000(7, TINY, root=str(ROOT))
    wl.setup()
    assert all(op.ok for op in wl.run_pass())
    real = cover.gamma_formula
    monkeypatch.setattr(cover, "gamma_formula", lambda p, adj=None: real(p, adj) + 1)
    ops = wl.run_pass()
    assert len(ops) == TINY.exact_trees and not any(op.ok for op in ops)


def test_corrupted_cli_stdout_is_a_failure():
    wl = bw.CliCold(7, TINY, root=str(ROOT))
    assert bw.check_count_stdout('{"count": "32"}', TINY.count_n) == ""
    assert not wl.check("count", 0.0, 1.0, 0, b'{"count": "31"}').ok
    assert not wl.check("verify", 0.0, 1.0, 0, b'{"checks": [{"pass": false}], "verdict": "fail"}').ok
    op = wl.check("count", 0.0, 1.0, 1, b"")
    assert not op.ok and "exit code 1" in op.note

    from permtree import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(wl.commands()[1][1])
    good = buf.getvalue()
    assert wl.check("sample", 0.0, 1.0, 0, good.encode()).ok
    obj = json.loads(good)
    perm = obj["samples"][0]["perm"]
    perm[0], perm[-1] = perm[-1], perm[0]
    swapped = json.dumps(obj)
    assert bw.check_sample_stdout(swapped, TINY.sample_n, TINY.sample_count, 7) != ""
    assert not wl.check("sample", 0.0, 1.0, 0, swapped.encode()).ok


# ---------------------------------------------------------------------------
# reference probe
# ---------------------------------------------------------------------------


def test_record_probes_for_the_probe_share_of_each_operation():
    wl = bw.ExactN1000(1, TINY, root=str(ROOT))
    ops = []
    wl.record(ops, bw.Op("tree", 0.0, 0.2, True))
    assert len(ops) == 1 and wl.probes
    assert sum(wl.probes) >= wl.probe_share * 0.2
    assert sum(wl.probes) - wl.probes[-1] < wl.probe_share * 0.2  # stops once the share is met


@pytest.mark.parametrize("cls", [bw.McFixtures, bw.ExactN1000, bw.CliCold])
def test_probes_call_nothing_in_permtree(cls):
    tracer = bench_trace.Tracer("test")
    with bench_trace.installed(tracer):
        cls(1, TINY, root=str(ROOT)).probe()
    assert len(tracer) == 0


# ---------------------------------------------------------------------------
# smoke runs at tiny size
# ---------------------------------------------------------------------------


def test_smoke_mc_fixtures(mc):
    passes = [mc.run_pass(), mc.run_pass()]
    assert [op.name for op in passes[0]] == [stat for stat, _ in bw.MC_STATS]
    assert all(op.ok for ops in passes for op in ops), [op.note for ops in passes for op in ops]
    assert set(mc.verdicts) == {stat for stat, _ in bw.MC_STATS}
    metrics = mc.named_metrics(passes)
    assert metrics["mc.trees_per_s"][0] > 0 and metrics["mc.runs_s"][1] == "s"


def test_smoke_exact_traced():
    wl = bw.ExactN1000(11, TINY, root=str(ROOT))
    wl.setup()
    tracer = bench_trace.Tracer(wl.name)
    with bench_trace.installed(tracer):
        ops = wl.run_pass()
    assert all(op.ok for op in ops)
    layers = bench_trace.pass_layers(tracer, 0, len(tracer), [(op.start, op.end) for op in ops])
    assert layers["structure.blocks.calls"] == TINY.exact_trees
    assert layers["montecarlo.substream.calls"] == 0
    assert wl.named_metrics([ops])["exact.trees_per_s"][0] > 0


def test_smoke_cli_cold_and_in_process():
    wl = bw.CliCold(3, TINY, root=str(ROOT))
    wl.setup(in_process=True)
    cold = wl.run_pass()
    warm = wl.run_pass(in_process=True)
    assert all(op.ok for op in cold + warm), [op.note for op in cold + warm]
    assert all(len(seen) == 1 for seen in wl.digests.values())  # cold and in-process agree
    assert set(wl.named_metrics([cold])) == {"cli.count_cold_s", "cli.sample_cold_s", "cli.verify_cold_s"}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "exact_n1000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
