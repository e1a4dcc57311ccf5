"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one client in one process: each call
starts after the previous one returns, ``workers=1``, no pool.  A pass runs
the workload's fixed list of operations once; every operation's output is
checked, and a failed check, a route disagreement, an exception or a
nonzero exit counts as a failed operation.

* ``mc_fixtures``: ``montecarlo.run_experiment`` on the acceptance fixture
  configurations.  The batch kernels of ``stats`` and ``cover.batch_gamma``,
  the per-sample substreams and bit draws, and ``stats.leaves_pmf`` do the
  work; the exact layer does none.
* ``exact_n1000``: the criterion 7 path, decode -> blocks -> adjacency ->
  the three exact cover routes, plus ``gamma_code`` and the ``encode``
  round trip, on trees at n = 1000.  No batch kernel runs.
* ``cli_cold``: ``count``, ``sample`` and ``verify`` each in a fresh
  interpreter, as the entry point runs them.  Imports dominate ``count``;
  ``verify`` makes tens of thousands of small calls; ``sample`` emits 6 MB
  of JSON.

Reports are pure functions of their configuration, so every output is also
compared with a pinned SHA-256 digest at the default seed and sizes, and
with the first pass of the same run otherwise.

After each operation the workload's reference probe, fixed work of the
same kind that calls nothing in ``permtree``, runs for ``probe_share`` of
the operation's time.  The machine the benchmark runs on is shared and
slows every process for tens of seconds at a time; a pass's time over the
probe's median time in the same pass cancels most of that slowdown.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

DEFAULT_SEED = 0xC0FFEE
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; the benchmark runs ``DEFAULT_SIZES``."""

    mc_n: int = 10_000
    mc_maxdeg_n: int = 2051
    mc_samples: int = 2048
    exact_n: int = 1000
    exact_trees: int = 200
    count_n: int = 10
    sample_n: int = 10_000
    sample_count: int = 100
    verify_max_n: int = 14


DEFAULT_SIZES = Sizes()

# SHA-256 of each output at DEFAULT_SIZES.  ``count`` and ``verify`` do not
# depend on the seed; the rest are pinned at DEFAULT_SEED.
PINNED = {
    "mc_fixtures": {
        "leaves": "ee957931c8c55680fe770b07807f319e7d75b12dc83d8e3b564248d40551a4b4",
        "gamma": "d6bc4684b74bc35306d1cf40528c787828debf17841c587284a0164120a5af70",
        "dcensus": "ca0061b4b231bb713a7ef67137c0008e10551c654134cb7698972ef2127e893d",
        "dcov": "19e1158f8a9dd8dfe098aeb6775bd7e52360427cf40ff6bec2378a816bd68569",
        "runs_geometric": "ed6f942826b3ee85bbbe73914a74366266b3ec569ca3ab16cb6a807628a0d60c",
        "maxdeg": "b2f3a82056bbaba8d8374561e1cd569ad827a5ecc79b69456a562bff2441c375",
    },
    "exact_n1000": {
        "covers": "1e40645c1408abdea07e86cba45c4e43395ef2b973f6f9422be2189b3ad4054f",
    },
    "cli_cold": {
        "count": "209a91bb1aed92b3b11f9fdc16c8ff035d60bf76bf8976c3ce3d78df82ceca26",
        "sample": "8a1816b812aa7e18edda9df6de0c0fc067a089af2cb34af1f6f6fe04a68a5590",
        "verify": "a37f10f4b50b1ba4fb01a539a694d289202493c46fcbcb3d485b9aedb2117254",
    },
}
SEED_FREE = frozenset({("cli_cold", "count"), ("cli_cold", "verify")})


def child_env(root: str) -> dict:
    """Environment that makes child interpreters import ``<root>/src/permtree``."""
    src = os.path.join(os.path.abspath(root), "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One timed operation and the verdict of its output check."""

    name: str
    start: float
    end: float
    ok: bool
    note: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


def failed_op(name: str, start: float, exc: BaseException) -> Op:
    tb = "".join(traceback.format_exception(exc)).strip().splitlines()
    return Op(name, start, time.perf_counter(), False, note=" | ".join(tb[-3:]))


class Workload:
    """Common workload state: seed, sizes, pinned digests and first-seen digests."""

    name = ""
    probe_share = 0.05  # probing seconds per second of operations

    def __init__(self, seed: int, sizes: Sizes = DEFAULT_SIZES, root: str = "."):
        self.seed = seed
        self.sizes = sizes
        self.root = root
        self.first_seen: dict[str, str] = {}
        self.digests: dict[str, dict[str, None]] = {}  # op -> digests seen, in order
        self.verdicts: dict[str, str] = {}
        self.probes: list[float] = []
        self._probe_debt = 0.0

    def expected_digest(self, op: str, digest: str) -> str:
        """Pinned digest where one applies, else the first digest of this run."""
        if self.sizes == DEFAULT_SIZES and (
            self.seed == DEFAULT_SEED or (self.name, op) in SEED_FREE
        ):
            pinned = PINNED[self.name].get(op)
            if pinned is not None:
                return pinned
        return self.first_seen.setdefault(op, digest)

    def digest_problem(self, op: str, digest: str) -> str:
        """Record ``digest`` and return '' when it is the expected one."""
        self.digests.setdefault(op, {})[digest] = None
        expected = self.expected_digest(op, digest)
        if digest != expected:
            return f"digest {digest[:16]} != expected {expected[:16]}"
        return ""

    def record(self, ops: list[Op], op: Op) -> None:
        """Append ``op``, then run the reference probe for ``probe_share`` of its time."""
        ops.append(op)
        self._probe_debt += self.probe_share * op.seconds
        while self._probe_debt > 0:
            start = time.perf_counter()
            self.probe()
            seconds = time.perf_counter() - start
            self.probes.append(seconds)
            self._probe_debt -= seconds

    def probe(self) -> None:
        """Fixed reference work of the workload's kind that calls nothing in permtree."""
        raise NotImplementedError

    def input_sizes(self) -> dict:
        raise NotImplementedError

    def setup(self, in_process: bool = False) -> None:
        raise NotImplementedError

    def run_pass(self, in_process: bool = False) -> list[Op]:
        raise NotImplementedError

    def named_metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


def _median_op(passes: list[list[Op]], name: str) -> float:
    return statistics.median(op.seconds for ops in passes for op in ops if op.name == name)


# ---------------------------------------------------------------------------
# mc_fixtures
# ---------------------------------------------------------------------------

MC_STATS = (
    ("leaves", "leaves"),
    ("gamma", "gamma"),
    ("dcensus", "dcensus"),
    ("dcov", "dcov"),
    ("runs_geometric", "runs"),
    ("maxdeg", "maxdeg"),
)


def check_report(text: str, config_dict: dict, samples: int) -> str:
    """Structural check of one ``StatReport.to_json()``; '' when it holds.

    The verdict itself is recorded, not gated: at reduced sample counts
    some gates fail from lack of power, not from a defect.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if not isinstance(obj, dict) or obj.get("schema") != "permtree/1":
        return "report schema is not permtree/1"
    if obj.get("config") != config_dict:
        return "report config differs from the requested configuration"
    empirical = obj.get("empirical")
    if not isinstance(empirical, dict):
        return "report has no empirical block"
    hist = empirical.get("histogram")
    if hist is not None and sum(hist.values()) != samples:
        return "histogram total differs from the sample count"
    for key in ("normality", "normality_d1"):
        if key in empirical and empirical[key].get("count") != samples:
            return f"{key} count differs from the sample count"
    tests = obj.get("tests")
    if not tests or not all(isinstance(t, dict) and isinstance(t.get("pass"), bool) for t in tests):
        return "report tests are missing or malformed"
    if obj.get("verdict") != ("pass" if all(t["pass"] for t in tests) else "fail"):
        return "verdict disagrees with the tests"
    return ""


class McFixtures(Workload):
    name = "mc_fixtures"

    def probe(self) -> None:
        # toss-matrix passes over a fixed 256 x 10^4 bit matrix, and one exact binomial
        import numpy as np

        if not hasattr(self, "_probe_bits"):
            self._probe_bits = np.random.default_rng(0).integers(0, 2, (256, 10_000), dtype=np.uint8)
        heads = self._probe_bits[:, 1:] != self._probe_bits[:, :-1]
        idx = np.arange(heads.shape[1], dtype=np.int32)
        np.maximum.accumulate(np.where(heads, idx, np.int32(-1)), axis=1).max(axis=1)
        heads.sum(axis=1, dtype=np.int64)
        math.comb(9997, 4998)

    def input_sizes(self) -> dict:
        s = self.sizes
        return {"n": s.mc_n, "maxdeg_n": s.mc_maxdeg_n, "samples": s.mc_samples}

    def _configs(self, n: int, maxdeg_n: int, samples: int) -> list:
        from permtree.montecarlo import ExperimentConfig

        common = {"samples": samples, "seed": self.seed, "workers": 1}
        return [
            ExperimentConfig(n=n, statistic="leaves", **common),
            ExperimentConfig(n=n, statistic="gamma", **common),
            ExperimentConfig(n=n, statistic="dcensus", kmax=8, **common),
            ExperimentConfig(n=n, statistic="dcov", m=5, **common),
            ExperimentConfig(n=n, statistic="runs_geometric", q=0.5, **common),
            ExperimentConfig(n=maxdeg_n, statistic="maxdeg", **common),
        ]

    def setup(self, in_process: bool = False) -> None:
        from permtree import montecarlo

        s = self.sizes
        self.configs = self._configs(s.mc_n, s.mc_maxdeg_n, s.mc_samples)
        self.config_dicts = [json.loads(json.dumps(c.to_dict())) for c in self.configs]
        # warm-up: every statistic once, at a size far below the fixtures
        for cfg in self._configs(64, 67, 1024):
            montecarlo.run_experiment(cfg)

    def run_pass(self, in_process: bool = False) -> list[Op]:
        from permtree import montecarlo

        ops = []
        for cfg, cfg_dict in zip(self.configs, self.config_dicts):
            start = time.perf_counter()
            try:
                text = montecarlo.run_experiment(cfg).to_json()
            except Exception as exc:  # a failed operation, not a failed run
                self.record(ops, failed_op(cfg.statistic, start, exc))
                continue
            end = time.perf_counter()
            self.record(ops, self.check(cfg.statistic, start, end, text, cfg_dict, cfg.samples))
        return ops

    def check(self, name: str, start: float, end: float, text: str, cfg_dict: dict, samples: int) -> Op:
        digest = sha256(text.encode())
        problem = self.digest_problem(name, digest) or check_report(text, cfg_dict, samples)
        if not problem:
            self.verdicts[name] = json.loads(text)["verdict"]
        return Op(name, start, end, not problem, problem)

    def named_metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str]]:
        trees = len(self.configs) * self.sizes.mc_samples
        out = {
            "mc.trees_per_s": (
                statistics.median(trees / sum(op.seconds for op in ops) for ops in passes),
                "trees/s",
            )
        }
        for stat, short in MC_STATS:
            out[f"mc.{short}_s"] = (_median_op(passes, stat), "s")
        return out


# ---------------------------------------------------------------------------
# exact_n1000
# ---------------------------------------------------------------------------


def exact_tree(n: int, bits: list[int]) -> tuple[bool, int]:
    """Decode one code, run the four cover routes and the round trip.

    Every call goes through the module attribute, so the traced run's
    wrappers see it.  Returns (routes agree and encode round-trips, cover).
    """
    from permtree import codec, cover, structure

    code = codec.TreeCode(n, bits)
    p = codec.decode(code)
    adj = structure.adjacency_via_blocks(p)
    marked = cover.marking_algorithm(p, adj).size
    formula = cover.gamma_formula(p, adj)
    oracle = cover.min_cover_oracle(p, adj)
    from_code = cover.gamma_code(code)
    ok = marked == formula == oracle == from_code and codec.encode(p) == code
    return ok, marked


class ExactN1000(Workload):
    name = "exact_n1000"

    def probe(self) -> None:
        # breadth-first search over a fixed 1000-vertex tree held in lists and a set
        adj: list[list[int]] = [[] for _ in range(1000)]
        for v in range(1, 1000):
            u = (v * 7919) % v
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        order = [0]
        for v in order:
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    order.append(u)

    def input_sizes(self) -> dict:
        return {"n": self.sizes.exact_n, "trees_per_pass": self.sizes.exact_trees}

    def setup(self, in_process: bool = False) -> None:
        from permtree.codec import random_bits
        from permtree.montecarlo import substream

        n = self.sizes.exact_n
        # the criterion 7 streams: domain 9, one substream per tree
        self.pool = [
            random_bits(substream(self.seed, 9, i), n - 2).tolist()
            for i in range(self.sizes.exact_trees)
        ]
        exact_tree(n, self.pool[0])

    def run_pass(self, in_process: bool = False) -> list[Op]:
        n = self.sizes.exact_n
        ops = []
        covers = []
        for bits in self.pool:
            start = time.perf_counter()
            try:
                ok, cover_number = exact_tree(n, bits)
            except Exception as exc:  # a failed operation, not a failed run
                self.record(ops, failed_op("tree", start, exc))
                covers.append(-1)
                continue
            end = time.perf_counter()
            self.record(ops, Op("tree", start, end, ok, note="" if ok else "cover routes or round trip disagree"))
            covers.append(cover_number)
        digest = sha256(",".join(map(str, covers)).encode())
        problem = self.digest_problem("covers", digest)
        if problem:
            # the digest spans the whole pass, so every tree of it is suspect
            for op in ops:
                op.ok = False
                op.note = op.note or problem
        return ops

    def named_metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str]]:
        per_tree = sorted(op.seconds for ops in passes for op in ops)
        quantiles = statistics.quantiles(per_tree, n=100) if len(per_tree) > 1 else per_tree * 99
        return {
            "exact.trees_per_s": (
                statistics.median(len(ops) / sum(op.seconds for op in ops) for ops in passes),
                "trees/s",
            ),
            "exact.tree_p50_ms": (statistics.median(per_tree) * 1e3, "ms"),
            "exact.tree_p99_ms": (quantiles[98] * 1e3, "ms"),
        }


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def check_count_stdout(text: str, n: int) -> str:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"count output is not JSON: {exc}"
    want = str(1 if n <= 2 else 1 << (n - 2))
    if not isinstance(obj, dict) or obj.get("count") != want:
        return f"count output does not report 2^(n-2) = {want}"
    return ""


def check_verify_stdout(text: str) -> str:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"verify output is not JSON: {exc}"
    checks = obj.get("checks") if isinstance(obj, dict) else None
    if not checks or obj.get("verdict") != "pass" or not all(c.get("pass") is True for c in checks):
        return "verify output does not report every check passing"
    return ""


def check_sample_stdout(text: str, n: int, count: int, seed: int, deep: int = 3) -> str:
    """Every sample is a permutation of 1..n; the first ``deep`` re-encode to their code."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"sample output is not JSON: {exc}"
    if not isinstance(obj, dict) or obj.get("n") != n or obj.get("seed") != seed:
        return "sample output header differs from the request"
    samples = obj.get("samples")
    if not isinstance(samples, list) or len(samples) != count:
        return f"sample output does not hold {count} samples"
    letters = list(range(1, n + 1))
    for i, rec in enumerate(samples):
        if rec.get("index") != i or sorted(rec.get("perm", ())) != letters:
            return f"sample {i} is not a permutation of 1..{n}"
    from permtree.codec import encode
    from permtree.errors import NotATreeError
    from permtree.perm import Permutation

    for rec in samples[:deep]:
        try:
            packed = encode(Permutation(rec["perm"])).packed
        except NotATreeError:
            return f"sample {rec['index']} is not a tree permutation"
        if format(packed, "#x") != rec["code"]:
            return f"sample {rec['index']} does not encode to its code"
    return ""


class CliCold(Workload):
    name = "cli_cold"
    probe_share = 0.2  # a probe takes ~0.15 s; fewer would leave a pass with one or two

    def __init__(self, seed: int, sizes: Sizes = DEFAULT_SIZES, root: str = "."):
        super().__init__(seed, sizes, root)
        self.env = child_env(root)
        self._checked: dict[tuple[str, str], str] = {}

    def input_sizes(self) -> dict:
        return {name: argv for name, argv in self.commands()}

    def probe(self) -> None:
        # a cold interpreter that imports NumPy
        subprocess.run(
            [sys.executable, "-c", "import numpy"],
            cwd=self.root, capture_output=True, timeout=CHILD_TIMEOUT_S, check=True,
        )

    def commands(self) -> list[tuple[str, list[str]]]:
        s = self.sizes
        return [
            ("count", ["count", "--what", "trees", "--n", str(s.count_n)]),
            ("sample", ["sample", "--n", str(s.sample_n), "--count", str(s.sample_count), "--seed", str(self.seed)]),
            ("verify", ["verify", "--max-n", str(s.verify_max_n), "--format", "json"]),
        ]

    def cold(self, argv: list[str]) -> tuple[float, float, int, bytes]:
        """Run one command in a fresh interpreter: (start, end, exit code, stdout)."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "permtree.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return start, time.perf_counter(), proc.returncode, proc.stdout

    def setup(self, in_process: bool = False) -> None:
        if in_process:
            from permtree import cli

            self.cli = cli
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(self.commands()[0][1])

    def run_pass(self, in_process: bool = False) -> list[Op]:
        ops = []
        for name, argv in self.commands():
            start = time.perf_counter()
            try:
                if in_process:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = self.cli.main(argv)
                    end = time.perf_counter()
                    stdout = buf.getvalue().encode()
                else:
                    start, end, code, stdout = self.cold(argv)
            except Exception as exc:  # a failed operation, not a failed run
                self.record(ops, failed_op(name, start, exc))
                continue
            self.record(ops, self.check(name, start, end, code, stdout))
        return ops

    def check(self, name: str, start: float, end: float, code: int, stdout: bytes) -> Op:
        digest = sha256(stdout)
        if code != 0:
            self.digest_problem(name, digest)
            return Op(name, start, end, False, f"exit code {code}")
        problem = self._checked.get((name, digest))
        if problem is None:
            text = stdout.decode()
            s = self.sizes
            if name == "count":
                problem = check_count_stdout(text, s.count_n)
            elif name == "verify":
                problem = check_verify_stdout(text)
            else:
                problem = check_sample_stdout(text, s.sample_n, s.sample_count, self.seed)
            self._checked[(name, digest)] = problem
        problem = self.digest_problem(name, digest) or problem
        return Op(name, start, end, not problem, problem)

    def named_metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str]]:
        return {f"cli.{name}_cold_s": (_median_op(passes, name), "s") for name, _ in self.commands()}


WORKLOADS = {w.name: w for w in (McFixtures, ExactN1000, CliCold)}
