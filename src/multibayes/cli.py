"""Command-line surface: reproduction report, grid CSVs, property
suites and model-file evaluation.

Exit codes: 0 success, 1 property failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import format_decimal12, format_scalar
from .errors import MultibayesError
from .models import GRID_MODES, grid_values, medical_grid_spec, medical_model
from .update import bayes_update, iterated_pearl_validity, jeffrey_update, pearl_update
from .validity import jeffrey_validity, pearl_validity, validity

# `check` and `eval` import their own modules (`properties`, the largest,
# and `modelfile`) when they run, so the other commands never load them.


def _fraction_line(name: str, value) -> str:
    return f"{name} = {format_scalar(value)} = {format_decimal12(value)}"


def cmd_report_medical() -> int:
    """Print every quantity of the built-in disease-test scenario."""
    model = medical_model()
    omega, pt, nt, psi = model.prior, model.pos_test, model.neg_test, model.three_tests
    posterior_j = jeffrey_update(omega, psi)
    posterior_p = pearl_update(omega, psi)
    lines = [
        f"prior = {omega}",
        _fraction_line("positive_test_validity", validity(omega, pt)),
        _fraction_line("negative_test_validity", validity(omega, nt)),
        _fraction_line("jeffrey_prior_validity", jeffrey_validity(omega, psi)),
        _fraction_line("pearl_prior_validity", pearl_validity(omega, psi)),
        f"posterior_positive = {bayes_update(omega, pt)}",
        f"posterior_negative = {bayes_update(omega, nt)}",
        f"jeffrey_posterior = {posterior_j}",
        f"pearl_posterior = {posterior_p}",
        _fraction_line("jeffrey_posterior_validity", jeffrey_validity(posterior_j, psi)),
        _fraction_line("pearl_posterior_validity", pearl_validity(posterior_p, psi)),
        _fraction_line("cross_pearl_update_jeffrey_validity", jeffrey_validity(posterior_p, psi)),
        _fraction_line("cross_jeffrey_update_pearl_validity", pearl_validity(posterior_j, psi)),
        _fraction_line("iterated_pearl", iterated_pearl_validity(omega, (pt, pt, nt))),
    ]
    for line in lines:
        print(line)
    return 0


def cmd_grid(mode: str, imax: int, jmax: int, out_path: str) -> int:
    spec = medical_grid_spec(mode, imax, jmax)
    rows = grid_values(spec)
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("i,j,value\n")
        for i, j, value in rows:
            handle.write(f"{i},{j},{format_decimal12(value)}\n")
    return 0


def cmd_check(suite: str, trials: int, seed: int) -> int:
    from .properties import run_suite

    results = run_suite(suite, trials, seed)
    failures = 0
    for result in results:
        print(result.line())
        if not result.passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} properties passed")
    return 1 if failures else 0


def cmd_eval(model_path: str, expr: str) -> int:
    from .modelfile import eval_expression, format_result, load_model

    model = load_model(model_path)
    result = eval_expression(model, expr)
    print(format_result(result))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache  # one parser per process: each parse_args call returns a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multibayes",
        description="Exact discrete inference: Jeffrey, Pearl and VFE updating",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="print a built-in reproduction report")
    report.add_argument("name", choices=("medical",))
    report.set_defaults(run=lambda args: cmd_report_medical())

    grid = sub.add_parser("grid", help="write an evidence-grid CSV")
    grid.add_argument("--mode", required=True, choices=GRID_MODES)
    grid.add_argument("--imax", type=int, default=10)
    grid.add_argument("--jmax", type=int, default=10)
    grid.add_argument("--out", required=True)
    grid.set_defaults(run=lambda args: cmd_grid(args.mode, args.imax, args.jmax, args.out))

    check = sub.add_parser("check", help="run seeded property suites")
    check.add_argument("--suite", default="all")
    check.add_argument("--trials", type=_positive_int, default=200)
    check.add_argument("--seed", type=int, default=42)
    check.set_defaults(run=lambda args: cmd_check(args.suite, args.trials, args.seed))

    evaluate = sub.add_parser("eval", help="evaluate an expression against a model file")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--expr", required=True)
    evaluate.set_defaults(run=lambda args: cmd_eval(args.model, args.expr))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except MultibayesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
