"""Command-line front end.

Subcommands: count, enumerate, sample, stats, theory, verify.  JSON is the
canonical output format (schema tag "permtree/1").  Each subcommand builds
its JSON document, a csv table and text lines from the same data, and one
writer, :func:`_write`, prints the projection ``--format`` names; ``verify``
offers json and text only.  Sampling subcommands require an explicit seed
so every invocation is reproducible byte for byte.  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Iterator
from itertools import chain

from . import SCHEMA, codec, counting, cover, stats, verify
from .codec import TreeCode, decode, enumerate_codes, sample_code
from .errors import CapExceededError, InvalidConfigError

# --stat choices, read when the parser is built: no REGISTRY (and numpy) import for them
THEORY_STATS = ("gamma", "leaves", "diam", "maxdeg", "ystar", "runs", "dcov")
SAMPLED_STATS = ("leaves", "diam", "maxdeg", "dcensus", "gamma", "dcov", "runs")
# The largest n each exact evaluation accepts.  At its bound the slowest call
# takes a few seconds (2 s or less cold on a 2-core machine, 3 s for
# forests --m and theory --k, worst m and k); above it the request is a usage
# error instead of a traceback or a run that does not end.
COUNT_MAX_N = {"trees": 10**6, "forests": 10**5, "indecomposable": 700}
FOREST_M_MAX_N = 10**4  # count --what forests --m
PMF_MAX_N = 5 * 10**5  # theory --stat leaves|diam --k


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _json_pieces(doc: dict) -> Iterator[str]:
    """The text of ``_json(doc)`` and a newline, in pieces.

    A value that is an iterator becomes a JSON array written one element
    at a time, so a long listing is never held whole.
    """
    yield "{"
    for i, key in enumerate(sorted(doc)):
        yield f"{', ' if i else ''}{_json(key)}: "
        value = doc[key]
        if isinstance(value, Iterator):
            yield "["
            for j, item in enumerate(value):
                yield f"{', ' if j else ''}{_json(item)}"
            yield "]"
        else:
            yield _json(value)
    yield "}\n"


def _spaced(values) -> str:
    return " ".join(map(str, values))


def _write(fmt: str, doc: dict, table, lines) -> None:
    """Print one projection of a result: the only branch on ``--format``.

    ``doc`` is the JSON document, a dict (see :func:`_json_pieces`);
    ``table`` is ``(header, rows)``; ``rows`` and ``lines`` are iterables,
    consumed only when their format is asked for, so all three may read
    the same one-shot iterator.
    """
    if fmt == "json":
        sys.stdout.writelines(_json_pieces(doc))
    elif fmt == "csv":
        header, rows = table
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _cmd_count(args) -> int:
    if args.m is not None and args.what != "forests":
        raise InvalidConfigError("--m applies to --what forests only")
    if args.m is not None:
        what, bound = "forests --m", FOREST_M_MAX_N
    else:
        what, bound = args.what, COUNT_MAX_N[args.what]
    if args.n > bound:
        raise InvalidConfigError(f"count --what {what} refuses n above {bound}")
    if args.what == "trees":
        value = codec.count_trees(args.n)
    elif args.what == "indecomposable":
        value = counting.indecomposable_count(args.n)
    elif args.m is not None:
        value = counting.forest_count(args.n, args.m)
    else:
        value = counting.forest_total(args.n)
    limit = sys.get_int_max_str_digits()  # 4300 digits by default; a count may run past it
    sys.set_int_max_str_digits(0)
    try:
        digits = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    doc = {"schema": SCHEMA, "what": args.what, "n": args.n, "count": digits}
    if args.m is not None:
        doc["m"] = args.m
    m = "" if args.m is None else args.m
    _write(args.format, doc, (("n", "what", "m", "count"), [(args.n, args.what, m, digits)]),
           [digits])
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
    codes = enumerate_codes(args.n)
    if args.emit == "perms":
        perms = (list(decode(c).values) for c in codes)
        doc = {"perms": perms}
        table = (("index", "perm"), ((i, _spaced(p)) for i, p in enumerate(perms)))
        lines = (",".join(map(str, p)) for p in perms)
    elif args.emit == "codes":
        hexes = (format(c.packed, "#x") for c in codes)
        doc = {"codes": hexes}
        table = (("index", "code"), enumerate(hexes))
        lines = hexes
    else:
        recs = map(_tree_record, codes)
        doc = {"trees": recs}
        # a one-letter tree has no stats: its cells stay empty
        header = ("code", "perm", "leaves", "diameter", "max_degree", "gamma")
        table = (header, ((r["code"], _spaced(r["perm"]), *(r.get(k, "") for k in header[2:]))
                          for r in recs))
        lines = map(_json, recs)
    _write(args.format, {"schema": SCHEMA, "n": args.n, **doc}, table, lines)
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise InvalidConfigError("n must be >= 1")
    if args.count < 0:
        raise InvalidConfigError("count must be >= 0")
    from . import montecarlo

    montecarlo.check_seed(args.seed)
    streams = montecarlo.substreams(args.seed, "sample", 0, args.count)
    codes = (sample_code(args.n, rng) for rng in streams)
    recs = ({"index": i, "code": format(c.packed, "#x"), "perm": list(decode(c).values)}
            for i, c in enumerate(codes))
    doc = {"schema": SCHEMA, "n": args.n, "seed": args.seed, "samples": recs}
    table = (("index", "code", "perm"),
             ((r["index"], r["code"], _spaced(r["perm"])) for r in recs))
    _write(args.format, doc, table, (_spaced(r["perm"]) for r in recs))
    return 0


# ---------------------------------------------------------------------------
# stats (Monte Carlo experiments)
# ---------------------------------------------------------------------------


def _cmd_stats(args) -> int:
    from . import montecarlo

    statistic = next(name for name, e in montecarlo.REGISTRY.items() if e.cli_name == args.stat)
    params = montecarlo.REGISTRY[statistic].params
    # an unset --q or --m leaves the config's default
    given = {name: value for name, value in (("q", args.q), ("m", args.m)) if value is not None}
    for name in given:
        if name not in params:
            raise InvalidConfigError(f"stats --stat {args.stat} takes no --{name}")
    config = montecarlo.ExperimentConfig(
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        statistic=statistic,
        workers=args.workers,
        **given,
    )
    report = montecarlo.run_experiment(config)
    hist = report.empirical.get("histogram")
    if hist:
        # expected count n_samples * pmf(value), blank where the law has no value
        pmf = report.theory.get("pmf", {})
        total = sum(hist.values())
        table = (("value", "count", "expected"),
                 ((int(v), hist[v], "" if pmf.get(v) is None else total * pmf[v])
                  for v in sorted(hist, key=int)))
    else:
        table = (("test", "value", "limit", "pass"),
                 ((t["name"], t["value"], t["limit"], t["pass"]) for t in report.tests))
    lines = chain((f"{t['name']}: value={t['value']:.6g} limit={t['limit']:.6g} "
                   f"{'pass' if t['pass'] else 'FAIL'}" for t in report.tests),
                  [f"verdict: {report.verdict}"])
    _write(args.format, vars(report), table, lines)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------


def _cmd_theory(args) -> int:
    name = args.stat
    n = args.n
    if args.q is not None and name != "runs":
        raise InvalidConfigError("--q applies to --stat runs only")
    if args.k is not None and name in ("gamma", "runs"):
        raise InvalidConfigError(f"theory --stat {name} takes no --k")
    if name == "gamma":
        th = cover.gamma_theory(n)
        payload = {
            "mean": th.mean,
            "variance": th.variance,
            "variance_rate_exact": float(cover.gamma_variance_rate()),
        }
    elif name in ("leaves", "diam"):
        mean, variance = stats.scalar_law_moments(name, n)
        payload = {"mean": mean, "variance": variance}
        if args.k is not None:
            if n > PMF_MAX_N:
                raise InvalidConfigError(f"theory --stat {name} --k refuses n above {PMF_MAX_N}")
            law = stats.leaves_pmf if name == "leaves" else stats.diameter_pmf
            at_k = args.k == stats.N2_VALUES[name] if n == 2 else law(n, args.k)
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
        from . import montecarlo

        # the same size and range as ``stats --stat dcov --m``
        m = args.k if args.k is not None else 5
        if n < 1:
            raise InvalidConfigError("n must be >= 1")
        if not 1 <= m <= 8:
            raise InvalidConfigError("theory --stat dcov supports 1 <= k <= 8")
        payload = {"cov": [[float(x) for x in row] for row in montecarlo.degree_cov(m)], "m": m}
    doc = {"schema": SCHEMA, "stat": name, "n": n, **payload}
    rows = sorted((k, v) for k, v in doc.items() if k != "schema")
    # text shows only the law's own values
    _write(args.format, doc, (("key", "value"), rows), map(_json, [payload]))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    results = verify.run(args.max_n)
    checks = [{"name": r["name"], "pass": r["failures"] == 0} for r in results]
    verdict = "pass" if all(c["pass"] for c in checks) else "fail"
    doc = {"schema": SCHEMA, "max_n": args.max_n, "checks": checks, "verdict": verdict}
    lines = chain((f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}" for c in checks),
                  [f"verdict: {verdict}"])
    _write(args.format, doc, None, lines)
    return 0 if verdict == "pass" else 1


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
    p.add_argument("--stat", choices=SAMPLED_STATS, required=True)
    p.add_argument("--q", type=float, default=None, help="geometric parameter (runs)")
    p.add_argument("--m", type=int, default=None, help="degree-vector size (dcov)")
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
