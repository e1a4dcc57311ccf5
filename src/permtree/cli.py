"""Command-line front end.

Subcommands: count, enumerate, sample, stats, theory, verify.  JSON is the
canonical output format (schema tag "permtree/1"); csv and text are
projections of the same data, and ``verify`` offers json and text only.
Sampling subcommands require an explicit seed so every invocation is
reproducible byte for byte.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import codec, counting, cover, montecarlo, stats, verify
from .codec import TreeCode, decode, enumerate_codes, sample_code
from .errors import CapExceededError, InvalidConfigError
from .montecarlo import SCHEMA, ExperimentConfig, substream

THEORY_STATS = ("gamma", "leaves", "diam", "maxdeg", "ystar", "runs", "dcov")

# ``stats --stat`` name -> canonical statistic name
_CANONICAL = {entry.cli_name: name for name, entry in montecarlo.REGISTRY.items()}


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _csv(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _cmd_count(args) -> int:
    if args.what == "trees":
        value = codec.count_trees(args.n)
    elif args.what == "indecomposable":
        value = counting.indecomposable_count(args.n)
    elif args.m is not None:
        value = counting.forest_count(args.n, args.m)
    else:
        value = counting.forest_total(args.n)
    payload = {"schema": SCHEMA, "what": args.what, "n": args.n, "count": str(value)}
    if args.what == "forests" and args.m is not None:
        payload["m"] = args.m
    if args.format == "json":
        _emit(_json(payload))
    elif args.format == "csv":
        _emit(_csv([(args.n, args.what, args.m if args.m is not None else "", value)],
                   ("n", "what", "m", "count")))
    else:
        _emit(str(value))
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _tree_record(code: TreeCode) -> dict:
    p = decode(code)
    s = stats.tree_stats(p) if p.n >= 2 else None
    rec = {
        "perm": list(p.values),
        "code": format(code.packed, "#x"),
        "n": code.n,
    }
    if s is not None:
        rec.update(
            leaves=s.leaves,
            diameter=s.diameter,
            max_degree=s.max_degree,
            gamma=cover.gamma_formula(p),
        )
    return rec


def _cmd_enumerate(args) -> int:
    n = args.n
    if args.emit == "perms":
        rows = [list(decode(c).values) for c in enumerate_codes(n)]
        if args.format == "json":
            _emit(_json({"schema": SCHEMA, "n": n, "perms": rows}))
        elif args.format == "csv":
            _emit(_csv([(i, " ".join(map(str, r))) for i, r in enumerate(rows)],
                       ("index", "perm")))
        else:
            for r in rows:
                _emit(",".join(map(str, r)))
    elif args.emit == "codes":
        rows = [format(c.packed, "#x") for c in enumerate_codes(n)]
        if args.format == "json":
            _emit(_json({"schema": SCHEMA, "n": n, "codes": rows}))
        elif args.format == "csv":
            _emit(_csv(list(enumerate(rows)), ("index", "code")))
        else:
            for r in rows:
                _emit(r)
    else:
        recs = [_tree_record(c) for c in enumerate_codes(n)]
        if args.format == "json":
            _emit(_json({"schema": SCHEMA, "n": n, "trees": recs}))
        elif args.format == "csv":
            rows = [
                (
                    r["code"],
                    " ".join(map(str, r["perm"])),
                    r.get("leaves", ""),
                    r.get("diameter", ""),
                    r.get("max_degree", ""),
                    r.get("gamma", ""),
                )
                for r in recs
            ]
            _emit(_csv(rows, ("code", "perm", "leaves", "diameter", "max_degree", "gamma")))
        else:
            for r in recs:
                _emit(_json(r))
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    if args.count < 0:
        raise InvalidConfigError("count must be >= 0")
    recs = []
    for i in range(args.count):
        rng = substream(args.seed, "sample", i)
        code = sample_code(args.n, rng)
        recs.append({"index": i, "code": format(code.packed, "#x"),
                     "perm": list(decode(code).values)})
    if args.format == "json":
        _emit(_json({"schema": SCHEMA, "n": args.n, "seed": args.seed, "samples": recs}))
    elif args.format == "csv":
        _emit(_csv([(r["index"], r["code"], " ".join(map(str, r["perm"]))) for r in recs],
                   ("index", "code", "perm")))
    else:
        for r in recs:
            _emit(" ".join(map(str, r["perm"])))
    return 0


# ---------------------------------------------------------------------------
# stats (Monte Carlo experiments)
# ---------------------------------------------------------------------------


def _cmd_stats(args) -> int:
    config = ExperimentConfig(
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        statistic=_CANONICAL[args.stat],
        q=args.q,
        m=args.m,
        workers=args.workers,
    )
    report = montecarlo.run_experiment(config)
    if args.format == "json":
        _emit(report.to_json())
    elif args.format == "csv":
        rows = report.csv_rows()
        if rows:
            _emit(_csv(rows, ("value", "count", "expected")))
        else:
            _emit(_csv([(t["name"], t["value"], t["limit"], t["pass"]) for t in report.tests],
                       ("test", "value", "limit", "pass")))
    else:
        for t in report.tests:
            _emit(f"{t['name']}: value={t['value']:.6g} limit={t['limit']:.6g} "
                  f"{'pass' if t['pass'] else 'FAIL'}")
        _emit(f"verdict: {report.verdict}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------


def _cmd_theory(args) -> int:
    name = args.stat
    n = args.n
    if name == "gamma":
        th = cover.gamma_theory(n)
        payload = {
            "mean": th.mean,
            "variance": th.variance,
            "variance_rate_exact": float(cover.gamma_variance_rate()),
        }
    elif name in ("leaves", "diam"):
        mean, variance = montecarlo.scalar_law_moments(name, n)
        payload = {"mean": mean, "variance": variance}
        if args.k is not None:
            law = stats.leaves_pmf if name == "leaves" else stats.diameter_pmf
            at_k = args.k == montecarlo.N2_VALUES[name] if n == 2 else law(n, args.k)
            payload["pmf_at_k"] = float(at_k)
    elif name == "maxdeg":
        if args.k is None:
            raise InvalidConfigError("theory --stat maxdeg needs --k")
        payload = {"cdf_shifted_at_k": stats.maxdeg_cdf_approx(n, args.k), "k": args.k}
    elif name == "ystar":
        if args.k is None:
            raise InvalidConfigError("theory --stat ystar needs --k")
        m = stats.y_star_moments(n, args.k)
        payload = {"mean": m.mean, "variance": m.variance, "k": args.k}
    elif name == "runs":
        if args.q is None:
            raise InvalidConfigError("theory --stat runs needs --q")
        m = stats.geometric_runs(n, args.q)
        payload = {"mean": m.mean, "variance": m.variance, "q": args.q}
    else:  # dcov
        m = args.k if args.k is not None else 5
        payload = {"cov": [[float(x) for x in row] for row in stats.degree_cov(m)], "m": m}
    payload.update({"schema": SCHEMA, "stat": name, "n": n})
    if args.format == "json":
        _emit(_json(payload))
    elif args.format == "csv":
        rows = [(k, v) for k, v in sorted(payload.items()) if k not in ("schema",)]
        _emit(_csv(rows, ("key", "value")))
    else:
        view = {k: v for k, v in payload.items() if k not in ("schema", "stat", "n")}
        _emit(_json(view))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    results = verify.run(args.max_n, args.workers)
    all_ok = all(r["failures"] == 0 for r in results)
    payload = {
        "schema": SCHEMA,
        "max_n": args.max_n,
        "checks": [{"name": r["name"], "pass": r["failures"] == 0} for r in results],
        "verdict": "pass" if all_ok else "fail",
    }
    if args.format == "json":
        _emit(_json(payload))
    else:
        for check in payload["checks"]:
            _emit(f"{'PASS' if check['pass'] else 'FAIL'}  {check['name']}")
        _emit(f"verdict: {payload['verdict']}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permtree",
        description="Trees among permutation graphs: exact counts, enumeration, "
        "uniform sampling, cover numbers, and seeded Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("json", "csv", "text")):
        p.add_argument("--format", choices=choices, default="json")

    p = sub.add_parser("count", help="exact counts (trees, forests, indecomposable)")
    p.add_argument("--what", choices=("trees", "forests", "indecomposable"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="forest component count (forests only)")
    add_format(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list all tree permutations of length n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", choices=("perms", "codes", "stats"), default="perms")
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="draw uniform tree permutations (seed required)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stats", help="run a seeded Monte Carlo experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stat", choices=tuple(_CANONICAL), required=True)
    p.add_argument("--q", type=float, default=None, help="geometric parameter (runs)")
    p.add_argument("--m", type=int, default=5, help="degree-vector size (dcov)")
    p.add_argument("--workers", type=int, default=1)
    add_format(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("theory", help="evaluate a closed form")
    p.add_argument("--stat", choices=THEORY_STATS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q", type=float, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("verify", help="run the exhaustive oracle battery")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    # a verdict per check has no table to project into csv
    add_format(p, ("json", "text"))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidConfigError, CapExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
