"""Spans around the calls into each ``permtree`` module, recorded from outside.

Wrappers are installed by the benchmark, not by the program: every
attribute of an imported ``permtree`` module that refers to a traced
function is replaced, so the name each caller looks up
(``montecarlo.random_bits``, ``cover.ordered_spine``,
``codec.is_tree_permutation``, ``counting.pattern_flags``, ...) reaches the
wrapper.  ``Permutation.__init__`` is wrapped on the class.  Spans stay in
memory as parallel lists and are written out once, when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  Each module of ``src/permtree`` is one layer.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Functions wrapped in the traced run, by defining module.
TRACED = {
    "montecarlo": ("substream", "run_experiment", "normality_check", "chi_square"),
    "codec": ("random_bits", "decode", "encode"),
    "stats": (
        "tosses_from_codes",
        "batch_head_count",
        "batch_longest_tail_run",
        "batch_tail_run_starts",
        "batch_tail_runs_equal",
        "batch_window_counts",
        "batch_degree_counts",
        "leaves_pmf",
        "tree_stats",
        "coupled_tree_stats_equivalence",
    ),
    "cover": (
        "batch_gamma",
        "marking_algorithm",
        "gamma_formula",
        "min_cover_oracle",
        "gamma_code",
        "gamma_decomposition",
    ),
    "structure": (
        "adjacency_via_blocks",
        "blocks",
        "ordered_spine",
        "neighbors_via_blocks",
        "central_path",
    ),
    "perm": (
        "is_tree_permutation",
        "inversion_count",
        "build_graph",
        "pattern_flags",
        "is_indecomposable",
    ),
    "counting": ("census",),
    "cli": ("main",),
}
PERMUTATION_SPAN = "perm.Permutation"

# Kernels that each make one full pass over a chunk's toss matrix.  The
# composite ``batch_degree_counts`` is left out: its passes are its children.
TOSS_KERNELS = frozenset(
    {
        "stats.batch_head_count",
        "stats.batch_longest_tail_run",
        "stats.batch_tail_run_starts",
        "stats.batch_tail_runs_equal",
        "stats.batch_window_counts",
        "cover.batch_gamma",
    }
)
CHUNK_SPAN = "stats.tosses_from_codes"  # one call per chunk

# (metric, unit) pairs printed by the traced run; ``<fn>.s`` and
# ``<fn>.self_s`` are both self seconds, ``.self_s`` marking a function whose
# children are wrapped too.
LAYER_METRICS = (
    ("montecarlo.substream.s", "s"),
    ("montecarlo.substream.calls", "count"),
    ("montecarlo.run_experiment.self_s", "s"),
    ("montecarlo.normality_check.s", "s"),
    ("montecarlo.chi_square.s", "s"),
    ("codec.random_bits.s", "s"),
    ("codec.random_bits.calls", "count"),
    ("codec.decode.s", "s"),
    ("codec.encode.self_s", "s"),
    ("stats.tosses_from_codes.s", "s"),
    ("stats.batch_head_count.s", "s"),
    ("stats.batch_longest_tail_run.s", "s"),
    ("stats.batch_tail_run_starts.s", "s"),
    ("stats.batch_tail_runs_equal.s", "s"),
    ("stats.batch_tail_runs_equal.calls", "count"),
    ("stats.batch_window_counts.s", "s"),
    ("stats.batch_window_counts.calls", "count"),
    ("stats.batch_degree_counts.self_s", "s"),
    ("stats.toss_passes", "count"),
    ("stats.leaves_pmf.s", "s"),
    ("stats.leaves_pmf.calls", "count"),
    ("stats.tree_stats.s", "s"),
    ("stats.coupled_tree_stats_equivalence.self_s", "s"),
    ("cover.batch_gamma.s", "s"),
    ("cover.marking_algorithm.s", "s"),
    ("cover.gamma_formula.self_s", "s"),
    ("cover.min_cover_oracle.s", "s"),
    ("cover.gamma_code.s", "s"),
    ("cover.gamma_decomposition.self_s", "s"),
    ("structure.adjacency_via_blocks.self_s", "s"),
    ("structure.blocks.s", "s"),
    ("structure.blocks.calls", "count"),
    ("structure.ordered_spine.s", "s"),
    ("structure.neighbors_via_blocks.self_s", "s"),
    ("structure.central_path.self_s", "s"),
    ("perm.Permutation.s", "s"),
    ("perm.Permutation.calls", "count"),
    ("perm.is_tree_permutation.self_s", "s"),
    ("perm.inversion_count.s", "s"),
    ("perm.build_graph.s", "s"),
    ("perm.pattern_flags.s", "s"),
    ("perm.pattern_flags.calls", "count"),
    ("perm.is_indecomposable.s", "s"),
    ("counting.census.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
)


class Tracer:
    """In-memory span store: parallel lists of name, start, end and parent."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.names)

    def write(self, path, passes: list[tuple[int, int]]) -> None:
        """Write every span as ``{workload, name, start, end, parent}`` lines.

        ``passes`` holds the (first, stop) span index range of each traced
        pass; times are seconds from the first span.
        """
        epoch = self.starts[0] if self.starts else 0.0
        head = '{"workload": ' + json.dumps(self.workload)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for number, (first, stop) in enumerate(passes):
                fh.writelines(
                    f'{head}, "pass": {number}, "name": "{self.names[i]}", '
                    f'"start": {self.starts[i] - epoch!r}, "end": {self.ends[i] - epoch!r}, '
                    f'"parent": {self.parents[i]}}}\n'
                    for i in range(first, stop)
                )


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function of the ``permtree`` modules already imported."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if name == "permtree" or name.startswith("permtree.")
    }
    wrappers: dict[int, tuple[object, object]] = {}
    for short, fn_names in TRACED.items():
        mod = modules.get(f"permtree.{short}")
        if mod is None:
            continue
        for fn_name in fn_names:
            fn = getattr(mod, fn_name)
            wrappers[id(fn)] = (fn, tracer.wrap(fn, f"{short}.{fn_name}"))
    patched = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                patched.append((mod, attr, value))
                setattr(mod, attr, entry[1])
    perm_cls = modules["permtree.perm"].Permutation
    init = perm_cls.__init__
    perm_cls.__init__ = tracer.wrap(init, PERMUTATION_SPAN)
    try:
        yield
    finally:
        perm_cls.__init__ = init
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents, first: int = 0, stop: int | None = None) -> list[float]:
    """Self seconds of spans ``first .. stop-1``: duration minus the union of children."""
    stop = len(starts) if stop is None else stop
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(first, stop):
        if parents[i] >= first:
            children[parents[i]].append(i)
    out = []
    for i in range(first, stop):
        kids = children.get(i)
        covered = 0.0
        if kids:
            covered = union_length(
                [(starts[c], ends[c]) for c in kids], starts[i], ends[i]
            )
        out.append(ends[i] - starts[i] - covered)
    return out


def pass_layers(tracer: Tracer, first: int, stop: int, windows: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer self seconds and call counts of one traced pass.

    Also returns ``stats.toss_passes`` (toss-matrix kernel calls per chunk,
    summed over the top-level calls) and ``trace.uncovered_s`` (time inside
    the timed ``windows`` of the pass that no top-level span covers).
    """
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    selfs = self_times(starts, ends, parents, first, stop)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for offset, i in enumerate(range(first, stop)):
        seconds[names[i]] += selfs[offset]
        calls[names[i]] += 1

    kernels: dict[int, int] = defaultdict(int)
    chunks: dict[int, int] = defaultdict(int)
    roots = []
    for i in range(first, stop):
        if parents[i] < first:
            roots.append(i)
            continue
        name = names[i]
        if name in TOSS_KERNELS or name == CHUNK_SPAN:
            root = i
            while parents[root] >= first:
                root = parents[root]
            if name == CHUNK_SPAN:
                chunks[root] += 1
            else:
                kernels[root] += 1
    toss_passes = sum(kernels[r] / chunks[r] for r in kernels if chunks[r])

    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        fn, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(fn, 0)
        elif kind in ("s", "self_s"):
            out[metric] = seconds.get(fn, 0.0)
    out["stats.toss_passes"] = toss_passes
    root_spans = [(starts[r], ends[r]) for r in roots]
    out["trace.uncovered_s"] = sum(
        (hi - lo) - union_length(root_spans, lo, hi) for lo, hi in windows
    )
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """``cli.import_s`` and ``cli.import_scipy_s`` from ``-X importtime`` output.

    Each line reads ``import time: self | cumulative | name``, in
    microseconds; a module never imported contributes 0.
    """
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {
        "cli.import_s": cumulative.get("permtree.cli", 0.0),
        "cli.import_scipy_s": cumulative.get("scipy.stats", 0.0),
    }
