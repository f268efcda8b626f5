"""Command-line front end: classify, survey, tables, verify.

Exit codes: 0 success, 1 usage or configuration error (or |D| too large),
2 invalid discriminant, 3 internal error: a failed consistency check (a
generator that does not generate its ideal or is not a unit above p among
them), prime forms short of the class group, or a number Pollard rho did
not split; 130 interrupted (SIGINT), where a survey with --checkpoint
names the checkpoint that the same command resumes from.
Discriminants are accepted negative (-d -20) or as |D| with --abs.
Each command imports only what it runs: survey and tables load the survey
harness, verify its oracles, and a process pool is imported only for
survey --workers > 1.
"""

import argparse
import json
import sys

from .arith import InvariantViolation
from .classify import classify, verdict_description
from .discriminant import NotFundamental, NotImaginary
from .quadform import ClassNumberAmbiguous


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
    except (InvariantViolation, ClassNumberAmbiguous, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        checkpoint = getattr(args, "checkpoint", None)
        resume = f"; the same command resumes from checkpoint {checkpoint}" if checkpoint else ""
        print(f"interrupted{resume}", file=sys.stderr)
        return 130


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
    p_sur.add_argument("--workers", type=int, default=1)
    p_sur.add_argument("--checkpoint", type=str, default=None)
    p_sur.set_defaults(func=_cmd_survey)

    p_tab = sub.add_parser("tables", help="reproduce the splitting tables")
    p_tab.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    # numeric options default to None, so that one given to the wrong table is refused
    p_tab.add_argument("--p", type=int)
    p_tab.add_argument("--N", type=int)
    p_tab.add_argument("--B", type=int)
    p_tab.add_argument("--bound", type=int, help="|D| bound for table 1")
    p_tab.add_argument("--max-p", type=int, help="largest class number for table 1")
    p_tab.add_argument("--csv", action="store_true", help="emit CSV instead of aligned text")
    p_tab.set_defaults(func=_cmd_tables)

    p_ver = sub.add_parser("verify", help="run oracle cross-check suites")
    p_ver.add_argument(
        "--suite", choices=("forms", "local", "two", "generators", "all"), default="all"
    )
    p_ver.add_argument("--bound", type=int, help="|D| sweep bound for 'two' and 'generators'")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


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
    from .survey import SurveyConfig, persist, scan
    primes = tuple(int(p) for p in args.primes.split(",") if p)
    config = SurveyConfig(
        d_min=args.min,
        d_max=args.max,
        primes=primes,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
    )
    n = persist(scan(config), args.out, args.format)
    print(f"wrote {n} rows to {args.out}")
    return 0


def _apply_defaults(args, defaults: dict[str, int], options: tuple[str, ...], target: str) -> None:
    """Fill in the defaults of the options that apply; refuse a given one that does not."""
    for name in options:
        if name in defaults:
            if getattr(args, name) is None:
                setattr(args, name, defaults[name])
        elif getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to {target}")


_TABLE_OPTIONS = ("p", "N", "B", "bound", "max_p")
_TABLE1_DEFAULTS = {"bound": 6000, "max_p": 7}
_CENSUS_DEFAULTS = {"p": 3, "N": 300, "B": 100_000}  # tables 2 and 3


def _cmd_tables(args) -> int:
    from .survey import table1, table3
    defaults = _TABLE1_DEFAULTS if args.table == 1 else _CENSUS_DEFAULTS
    _apply_defaults(args, defaults, _TABLE_OPTIONS, f"table {args.table}")
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
    if args.csv:
        raise ValueError(f"--csv applies to table 1 only, not table {args.table}")
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
    from . import verify
    sweeps = args.suite in ("two", "generators", "all")
    _apply_defaults(args, {"bound": 100_000} if sweeps else {}, ("bound",), f"suite {args.suite}")
    suites = tuple(_VERIFIERS) if args.suite == "all" else (args.suite,)
    ok = True
    for suite in suites:
        failures = _VERIFIERS[suite](verify, args)
        status = "ok" if not failures else "FAILED"
        print(f"suite {suite}: {status}")
        for item in failures[:5]:
            print(f"  {item}")
        ok = ok and not failures
    return 0 if ok else 1


_VERIFIERS = {
    "forms": lambda verify, args: verify.forms(),
    "local": lambda verify, args: verify.quotient_index() + verify.local_engines(),
    "two": lambda verify, args: verify.two_families(verify.two_family_fields(args.bound)),
    "generators": lambda verify, args: verify.generators(3, args.bound + 1),
}


if __name__ == "__main__":
    sys.exit(main())
