"""Command-line interface: jd3 verify {odd,even,lemma,asymptotics} | dims | all.

Exit codes: 0 when every check passes, 1 when any check fails, 2 on a
usage error.  Reports print as a plain-text table on stdout; --json and
--csv write machine-readable copies.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .asymptotics import DEFAULT_REGIMES, Regime
from .diagram_spaces import even_closed_form, odd_target_dim, ihx_image_slice, tet_slice
from .verifier import (
    Report,
    RunConfig,
    run_all,
    verify_asymptotics,
    verify_even_dims,
    verify_lemma,
    verify_odd_vanishing,
)

USAGE_ERROR = 2


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", metavar="PATH", help="write the report as JSON")
    parser.add_argument("--csv", metavar="PATH", help="write the report as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jd3",
        description="Exact verification of 3-loop Jacobi diagram space presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    odd = vsub.add_parser("odd", help="odd-degree vanishing checks")
    odd.add_argument("--max-legs", type=int, default=29, metavar="N")
    _add_output_flags(odd)

    even = vsub.add_parser("even", help="even-degree dimension checks")
    even.add_argument("--max-legs", type=int, default=30, metavar="N")
    _add_output_flags(even)

    lemma = vsub.add_parser("lemma", help="independence and span of the Q family")
    lemma.add_argument("--max-d", type=int, default=8, metavar="D")
    _add_output_flags(lemma)

    asym = vsub.add_parser("asymptotics", help="leading-term checks for the Q family")
    asym.add_argument("--max-d", type=int, default=6, metavar="D")
    asym.add_argument("--regime", choices=("one", "two", "both"), default="both")
    asym.add_argument(
        "--abc",
        nargs=3,
        metavar=("A", "B", "C"),
        help="exact rational exponents, e.g. 2 8/5 1 (requires --regime one or two)",
    )
    _add_output_flags(asym)

    dims = sub.add_parser("dims", help="print the dimension of one graded slice")
    dims.add_argument("--parity", choices=("odd", "even"), required=True)
    dims.add_argument("--legs", type=int, required=True, metavar="L")

    everything = sub.add_parser("all", help="run every suite with the default caps")
    everything.add_argument("--max-legs-odd", type=int, default=29, metavar="N")
    everything.add_argument("--max-legs-even", type=int, default=30, metavar="N")
    everything.add_argument("--max-d-lemma", type=int, default=8, metavar="D")
    everything.add_argument("--max-d-asym", type=int, default=6, metavar="D")
    everything.add_argument("--self-test-fail", action="store_true", help=argparse.SUPPRESS)
    _add_output_flags(everything)

    return parser


def _parse_regimes(args: argparse.Namespace) -> tuple[Regime, ...]:
    if args.abc is not None:
        if args.regime == "both":
            raise ValueError(
                "--abc requires --regime one or --regime two: no single (a, b, c) "
                "satisfies both regimes' inequalities"
            )
        try:
            a, b, c = (Fraction(v) for v in args.abc)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"--abc values must be exact rationals: {exc}") from exc
        return (Regime(args.regime, a, b, c),)
    if args.regime == "both":
        return (DEFAULT_REGIMES["one"], DEFAULT_REGIMES["two"])
    return (DEFAULT_REGIMES[args.regime],)


def _emit(report: Report, args: argparse.Namespace) -> int:
    print(report.to_text())
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if getattr(args, "csv", None):
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(report.to_csv_rows())
    return 0 if report.all_passed else 1


def _run_dims(args: argparse.Namespace) -> int:
    space = tet_slice(args.legs, args.parity)
    if args.parity == "even":
        print(
            f"legs={args.legs} parity=even dim={space.dim} "
            f"closed_form={even_closed_form(args.legs)}"
        )
    else:
        image = ihx_image_slice(args.legs)
        print(
            f"legs={args.legs} parity=odd dim={space.dim} "
            f"target={odd_target_dim(args.legs)} image_dim={image.dim} "
            f"quotient_dim={space.dim - image.dim}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        if args.command == "dims":
            return _run_dims(args)
        if args.command == "all":
            config = RunConfig(
                odd_max_legs=args.max_legs_odd,
                even_max_legs=args.max_legs_even,
                lemma_max_d=args.max_d_lemma,
                asym_max_d=args.max_d_asym,
                corrupt_even_closed_form=args.self_test_fail,
            )
            return _emit(run_all(config), args)
        if args.suite == "odd":
            return _emit(verify_odd_vanishing(args.max_legs), args)
        if args.suite == "even":
            return _emit(verify_even_dims(args.max_legs), args)
        if args.suite == "lemma":
            return _emit(verify_lemma(args.max_d), args)
        if args.suite == "asymptotics":
            regimes = _parse_regimes(args)
            return _emit(verify_asymptotics(args.max_d, regimes=regimes), args)
        raise ValueError(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"jd3: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
