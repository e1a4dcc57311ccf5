"""permtree benchmark: one workload per run, one JSON result on the last line.

    python3 benchmarks/run.py --workload mc_fixtures --seed 12648430 --seconds 20 --trace 0

Run from the root of a checkout; the benchmark measures that checkout's
``src/permtree`` and refuses to run against any other copy.  Without
``--workload`` it runs every workload in turn, each in its own process.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run: it alternates untraced and traced passes
over the same operations and reports per-layer self seconds and call
counts, the tracing overhead and the wall time no span covers.
See ``benchmarks/README.md``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
MIN_PASSES = 3
MAX_TRACED_PASSES = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

sys.path.insert(0, str(BENCH_DIR))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def use_checkout_src() -> None:
    if not (SRC / "permtree" / "__init__.py").is_file():
        raise BenchError(f"no src/permtree under {ROOT}; run from a permtree checkout")
    sys.path.insert(0, str(SRC))


def check_imported_copy() -> None:
    """Refuse to measure any ``permtree`` but this checkout's, here and in children."""
    import permtree

    want = (SRC / "permtree").resolve()
    if Path(permtree.__file__).resolve().parent != want:
        raise BenchError(f"imported permtree from {permtree.__file__}, not {want}")
    proc = subprocess.run(
        [sys.executable, "-c", "import permtree; print(permtree.__file__)"],
        cwd=ROOT, env=bench_workloads.child_env(str(ROOT)), capture_output=True, text=True,
        timeout=bench_workloads.CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or Path(proc.stdout.strip()).resolve().parent != want:
        raise BenchError(f"child interpreters import permtree from {proc.stdout.strip()!r}, not {want}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = git / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(wl, args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.input_sizes(),
    }


def measure_setup(wl, args) -> list[float]:
    """Set-up seconds of fresh processes, from launch to exit.

    ``cli_cold`` sets up with one untimed ``count`` invocation; the other
    workloads run their imports, input generation and warm-up call.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        if wl.name == "cli_cold":
            start, end, code, _ = wl.cold(wl.commands()[0][1])
        else:
            start = time.perf_counter()
            code = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                 "--workload", wl.name, "--seed", str(args.seed)],
                cwd=ROOT, stdout=subprocess.DEVNULL, timeout=bench_workloads.CHILD_TIMEOUT_S,
            ).returncode
            end = time.perf_counter()
        if code != 0:
            raise BenchError(f"set-up of {wl.name} exited with code {code}")
        samples.append(end - start)
    return samples


def timed_run(wl, args) -> tuple[dict, list[list], dict]:
    setup = measure_setup(wl, args)
    wl.setup()
    passes, pass_seconds, pass_rel = [], [], []
    began = time.perf_counter()
    while True:
        first_probe = len(wl.probes)
        passes.append(wl.run_pass())
        pass_seconds.append(sum(op.seconds for op in passes[-1]))
        pass_rel.append(pass_seconds[-1] / statistics.median(wl.probes[first_probe:]))
        elapsed = time.perf_counter() - began
        if len(passes) >= MIN_PASSES and elapsed + max(pass_seconds) > args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    metrics = {
        "pass_rel": (statistics.median(pass_rel), "probe"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    details = dict(wl.named_metrics(passes))
    details["pass_s"] = (statistics.median(pass_seconds), "s")
    details["probe_ms"] = (statistics.median(wl.probes) * 1e3, "ms")
    details["pass_samples_s"] = (pass_seconds, "s")
    details["setup_samples_s"] = (setup, "s")
    return metrics, passes, details


def traced_run(wl, args) -> tuple[dict, list[list], dict]:
    wl.setup(in_process=True)
    tracer = bench_trace.Tracer(wl.name)
    plain, traced, ranges, layers = [], [], [], []
    began = time.perf_counter()
    while True:
        plain.append(wl.run_pass(in_process=True))
        first = len(tracer)
        with bench_trace.installed(tracer):
            ops = wl.run_pass(in_process=True)
        traced.append(ops)
        ranges.append((first, len(tracer)))
        layers.append(
            bench_trace.pass_layers(tracer, first, len(tracer), [(op.start, op.end) for op in ops])
        )
        elapsed = time.perf_counter() - began
        pair = max(
            sum(op.seconds for op in p + t) for p, t in zip(plain, traced)
        )
        if len(traced) >= MAX_TRACED_PASSES or elapsed + pair > args.seconds:
            break
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import permtree.cli"],
        cwd=ROOT, env=bench_workloads.child_env(str(ROOT)), capture_output=True, text=True,
        timeout=bench_workloads.CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError("importing permtree.cli failed")
    imports = bench_trace.parse_importtime(proc.stderr)
    overhead = statistics.median(sum(op.seconds for op in ops) for ops in traced) - statistics.median(
        sum(op.seconds for op in ops) for ops in plain
    )
    metrics = {}
    for name, unit in bench_trace.LAYER_METRICS:
        if name in imports:
            value = imports[name]
        elif name == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median(layer[name] for layer in layers)
        metrics[name] = (value, unit)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{wl.name}_seed{args.seed}_spans.jsonl.gz"
    tracer.write(spans, ranges)
    details = {"spans_per_pass": (len(tracer) / len(traced), "count")}
    return metrics, plain + traced, details


def run_workload(args) -> int:
    wl = bench_workloads.WORKLOADS[args.workload](args.seed, root=str(ROOT))
    prov = provenance(wl, args)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    metrics, passes, details = (traced_run if args.trace else timed_run)(wl, args)

    ops = [op for ops_ in passes for op in ops_]
    failed = [op for op in ops if not op.ok]
    details["fail_ratio"] = (len(failed) / len(ops), "ratio")
    details["passes"] = (len(passes), "count")
    for name, seen in wl.digests.items():
        for digest in seen:
            print(f"digest {wl.name} {name} {digest}")
    for name, verdict in wl.verdicts.items():
        print(f"verdict {name} {verdict}")
    for op in failed[:20]:
        print(f"FAILED {op.name}: {op.note}")
    for name, (value, unit) in {**details, **metrics}.items():
        print(f"metric {name} {value} {unit}")

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        **result,
        "provenance": prov,
        "details": {name: {"value": v, "unit": u} for name, (v, u) in details.items()},
        "digests": {name: list(seen) for name, seen in wl.digests.items()},
        "verdicts": wl.verdicts,
    }
    path = OUT_DIR / f"{wl.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in bench_workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(bench_workloads.WORKLOADS), default=None,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=bench_workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per run; a timed run makes at least three passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must lie in [0, 2**64)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_src()
        if args.setup_only:
            bench_workloads.WORKLOADS[args.workload](args.seed, root=str(ROOT)).setup()
            return 0
        check_imported_copy()
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
