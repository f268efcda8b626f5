"""Command-line front end: classify, survey, tables, verify.

Exit codes: 0 success, 1 usage or internal error, 2 invalid discriminant.
Discriminants are accepted negative (-d -20) or as |D| with --abs.
"""

import argparse
import json
import os
import sys

from . import verify
from .classify import classify, verdict_description
from .discriminant import NotFundamental, NotImaginary
from .survey import SurveyConfig, persist, scan, table1, table3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; keep 2 for bad discriminants only
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (NotFundamental, NotImaginary) as exc:
        print(f"invalid discriminant: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqgalois",
        description="Minimality of the absolute abelian Galois group "
        "of imaginary quadratic fields",
    )
    sub = parser.add_subparsers(dest="command")

    p_cls = sub.add_parser("classify", help="classify one discriminant")
    p_cls.add_argument("-d", "--discriminant", type=int, required=True)
    p_cls.add_argument("--abs", action="store_true", help="interpret the value as |D|")
    p_cls.add_argument("--json", action="store_true", help="machine-readable output")
    p_cls.set_defaults(func=_cmd_classify)

    p_sur = sub.add_parser("survey", help="scan a range of |D| and persist rows")
    p_sur.add_argument("--min", type=int, default=3)
    p_sur.add_argument("--max", type=int, required=True)
    p_sur.add_argument("--primes", type=str, default="2,3,5,7")
    p_sur.add_argument("--out", type=str, required=True)
    p_sur.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sur.add_argument("--workers", type=int, default=_default_workers())
    p_sur.add_argument("--checkpoint", type=str, default=None)
    p_sur.set_defaults(func=_cmd_survey)

    p_tab = sub.add_parser("tables", help="reproduce the splitting tables")
    p_tab.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    p_tab.add_argument("--p", type=int, default=3)
    p_tab.add_argument("--N", type=int, default=300)
    p_tab.add_argument("--B", type=int, default=100_000)
    p_tab.add_argument("--bound", type=int, default=6000, help="|D| bound for table 1")
    p_tab.add_argument("--max-p", type=int, default=7, help="largest class number for table 1")
    p_tab.add_argument("--csv", action="store_true", help="emit CSV instead of aligned text")
    p_tab.set_defaults(func=_cmd_tables)

    p_ver = sub.add_parser("verify", help="run oracle cross-check suites")
    p_ver.add_argument("--suite", choices=("forms", "local", "two", "all"), default="all")
    p_ver.add_argument("--bound", type=int, default=100_000, help="|D| sweep bound for 'two'")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("IQGALOIS_WORKERS", "1")))
    except ValueError:
        return 1


def _cmd_classify(args) -> int:
    value = args.discriminant
    if args.abs:
        value = -abs(value)
    record = classify(value)
    if args.json:
        print(json.dumps(record.to_dict(), indent=1, sort_keys=True))
    else:
        print(f"D = {record.discriminant}")
        print(f"h = {record.h}, class group {list(record.class_group) or [1]}")
        print(f"2-rank = {record.two_rank}")
        for p, status in record.per_prime:
            print(f"  p = {p}: {status}")
        print(f"verdict: {record.verdict}")
        print(verdict_description(record))
    return 0


def _cmd_survey(args) -> int:
    primes = tuple(int(p) for p in args.primes.split(",") if p)
    config = SurveyConfig(
        d_min=args.min,
        d_max=args.max,
        primes=primes,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
    )
    rows = list(scan(config))
    persist(rows, args.out, args.format)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_tables(args) -> int:
    if args.table == 1:
        rows = table1(args.max_p, args.bound)
        if args.csv:
            print("p,count,nonsplit,split_discriminants")
            for p in sorted(rows):
                r = rows[p]
                print(f"{p},{r.count},{r.nonsplit}," + "|".join(map(str, r.split_discriminants)))
        else:
            print(f"{'p':>3} {'#fields':>8} {'#nonsplit':>10}  -D for split fields")
            for p in sorted(rows):
                r = rows[p]
                span = ", ".join(map(str, r.split_discriminants)) or "-"
                print(f"{p:>3} {r.count:>8} {r.nonsplit:>10}  {span}")
        return 0
    r = table3(args.p, args.N, args.B)
    if args.table == 2:
        print(f"p={r.p} N={r.n_fields} B={r.lower_bound} p*f_p={r.overall:.3f}")
    else:
        parts = []
        for tag in ("split", "inert", "ramified"):
            v = r.by_behavior[tag]
            parts.append(f"{tag}={'-' if v is None else f'{v:.3f}'}(n={r.counts[tag]})")
        print(f"p={r.p} N={r.n_fields} B={r.lower_bound} p*f_p={r.overall:.3f} " + " ".join(parts))
    return 0


def _cmd_verify(args) -> int:
    suites = ("forms", "local", "two") if args.suite == "all" else (args.suite,)
    ok = True
    for suite in suites:
        failures = _VERIFIERS[suite](args)
        status = "ok" if not failures else "FAILED"
        print(f"suite {suite}: {status}")
        for item in failures[:5]:
            print(f"  {item}")
        ok = ok and not failures
    return 0 if ok else 1


_VERIFIERS = {
    "forms": lambda args: verify.forms(),
    "local": lambda args: verify.quotient_index() + verify.local_engines(),
    "two": lambda args: verify.two_families(verify.two_family_fields(args.bound)),
}


if __name__ == "__main__":
    sys.exit(main())
