"""Command-line interface: jd3 verify {odd,even,lemma,asymptotics} | dims | all.

Exit codes: 0 when every check passes, 1 when any check fails, 2 on a
usage error, a report file that cannot be written, a `dims` slice whose
e1 certificate fails, or any other error outside a check, named by its
type.  Reports print as a plain-text table on stdout; --json and --csv
write machine-readable copies.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from .asymptotics import DEFAULT_REGIMES, Regime
from .diagram_spaces import even_closed_form, odd_target_dim, ihx_image_slice, tet_slice
from .verifier import (
    ASYM_MAX_D,
    EVEN_MAX_LEGS,
    LEMMA_MAX_D,
    ODD_MAX_LEGS,
    Report,
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

    # each command's `run` takes the parsed arguments and returns the exit code
    odd = vsub.add_parser("odd", help="odd-degree vanishing checks")
    odd.add_argument("--max-legs", type=int, default=ODD_MAX_LEGS, metavar="N")
    odd.set_defaults(run=lambda args: _emit(verify_odd_vanishing(args.max_legs), args))
    _add_output_flags(odd)

    even = vsub.add_parser("even", help="even-degree dimension checks")
    even.add_argument("--max-legs", type=int, default=EVEN_MAX_LEGS, metavar="N")
    even.set_defaults(run=lambda args: _emit(verify_even_dims(args.max_legs), args))
    _add_output_flags(even)

    lemma = vsub.add_parser("lemma", help="independence and span of the Q family")
    lemma.add_argument("--max-d", type=int, default=LEMMA_MAX_D, metavar="D")
    lemma.set_defaults(run=lambda args: _emit(verify_lemma(args.max_d), args))
    _add_output_flags(lemma)

    asym = vsub.add_parser("asymptotics", help="leading-term checks for the Q family")
    asym.add_argument("--max-d", type=int, default=ASYM_MAX_D, metavar="D")
    asym.add_argument("--regime", choices=(*DEFAULT_REGIMES, "both"), default="both")
    asym.add_argument(
        "--abc",
        nargs=3,
        metavar=("A", "B", "C"),
        help="exact rational exponents, e.g. 2 8/5 1 (requires --regime one or two)",
    )
    asym.set_defaults(
        run=lambda args: _emit(verify_asymptotics(args.max_d, regimes=_parse_regimes(args)), args)
    )
    _add_output_flags(asym)

    dims = sub.add_parser("dims", help="print the dimension of one graded slice")
    dims.add_argument("--legs", type=int, required=True, metavar="L")
    dims.set_defaults(run=_run_dims)

    everything = sub.add_parser("all", help="run every suite with the default caps")
    everything.set_defaults(run=lambda args: _emit(run_all(), args))
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
        return tuple(DEFAULT_REGIMES.values())
    return (DEFAULT_REGIMES[args.regime],)


def _check_report_paths(args: argparse.Namespace) -> None:
    """Fail before any suite runs on a --json/--csv path that cannot be opened, or on
    both naming one file (the CSV would overwrite the JSON); leave no new file."""
    paths = [p for p in (getattr(args, "json", None), getattr(args, "csv", None)) if p]
    created = []
    try:
        for path in paths:
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                created.append(path)
        if len(paths) == 2 and os.path.samefile(*paths):
            raise ValueError(f"--json and --csv name the same file: {paths[1]}")
    finally:
        for path in created:
            os.remove(path)


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
    space = tet_slice(args.legs)
    if args.legs % 2 == 0:
        print(
            f"legs={args.legs} parity=even dim={space.dim} "
            f"closed_form={even_closed_form(args.legs)}"
        )
    else:
        image = ihx_image_slice(space)
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
        _check_report_paths(args)
        return args.run(args)
    # OSError: a --json/--csv path that cannot be written; ArithmeticError: a
    # slice whose e1 certificate fails under `dims` (the suites record it as a
    # FAIL); any other type is a fault outside every check, so it is named
    except Exception as exc:
        expected = isinstance(exc, (ValueError, OSError, ArithmeticError))
        kind = "" if expected else f"{type(exc).__name__}: "
        print(f"jd3: error: {kind}{exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
