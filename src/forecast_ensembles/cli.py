"""Command-line surface.

Subcommands:
  combine   train a combiner on a full table and write the model
  predict   apply a saved model to a forecasts file
  loo       leave-one-out evaluation with a summary table
  score     per-forecaster score / calibration / refinement report
  synth     write a seeded synthetic forecasts/outcomes CSV pair

Exit codes: 0 success, 1 usage error, 2 data error.  The LOG_LEVEL
environment variable (error, warn, info, debug) controls diagnostics on
stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .combiners import (
    DEFAULT_ITERATIONS,
    adaboost_train,
    bag,
    classify,
    ensemble_predict,
    realboost_train,
)
from .dataio import (
    DataFormatError,
    load_forecast_matrix,
    load_model,
    load_outcomes,
    load_table,
    save_eval_report,
    save_model,
    write_table,
)
from .domain import MAX_SEED
from .evaluation import SyntheticSpec, generate_synthetic, loo_evaluate
from .links import LinkSpec, matched_scoring_rule
from .scoring import decompose

PREDICTION_SCHEMA = "prediction_report.v1"

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _configure_logging() -> None:
    level = os.environ.get("LOG_LEVEL", "warn").lower()
    if level not in _LOG_LEVELS:
        print(f"warning: unknown LOG_LEVEL {level!r}, using 'warn'", file=sys.stderr)
        level = "warn"
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[level],
                        format="%(levelname)s %(name)s: %(message)s")


def _seed(text: str) -> int:
    """argparse type of --seed: an integer that fits in 64 unsigned bits."""
    seed = int(text)
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64 - 1], got {seed}")
    return seed


def _positive(text: str) -> int:
    """argparse type of --iterations and --bins: an integer of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _build_parser() -> _Parser:
    parser = _Parser(prog="forecast-ensembles",
                     description="Combine probability forecasters with bagging and boosting.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    combine = commands.add_parser("combine", help="train a combiner on a full table")
    combine.add_argument("--method", required=True, choices=["bagging", "adaboost", "realboost"])
    combine.add_argument("--forecasts", required=True)
    combine.add_argument("--outcomes", required=True)
    combine.add_argument("--iterations", type=_positive, default=None)
    combine.add_argument("--seed", type=_seed, default=0)
    combine.add_argument("--model-out", required=True)
    combine.set_defaults(func=_cmd_combine)

    predict = commands.add_parser("predict", help="apply a saved model")
    predict.add_argument("--model", required=True)
    predict.add_argument("--forecasts", required=True)
    predict.add_argument("--outcomes", default=None)
    predict.add_argument("--report-out", required=True)
    predict.set_defaults(func=_cmd_predict)

    loo = commands.add_parser("loo", help="leave-one-out evaluation")
    loo.add_argument("--method", required=True, choices=["bagging", "adaboost", "realboost"])
    loo.add_argument("--forecasts", required=True)
    loo.add_argument("--outcomes", required=True)
    loo.add_argument("--iterations", type=_positive, default=None)
    loo.add_argument("--seed", type=_seed, default=0)
    loo.add_argument("--report-out", required=True)
    loo.set_defaults(func=_cmd_loo)

    score = commands.add_parser("score", help="per-forecaster score report")
    score.add_argument("--forecasts", required=True)
    score.add_argument("--outcomes", required=True)
    score.add_argument("--bins", type=_positive, default=10)
    score.set_defaults(func=_cmd_score)

    synth = commands.add_parser("synth", help="write synthetic forecast data")
    synth.add_argument("--forecasters", type=int, required=True)
    synth.add_argument("--questions", type=int, required=True)
    synth.add_argument("--mode", choices=["type1", "type2"], required=True)
    synth.add_argument("--noise", type=float, default=1.0)
    synth.add_argument("--coverage", type=float, default=0.8)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-prefix", required=True)
    synth.set_defaults(func=_cmd_synth)

    return parser


def _resolve_iterations(method: str, iterations: int | None) -> int:
    if iterations is None:
        return DEFAULT_ITERATIONS.get(method, 1)
    return iterations


def _train(method, table, iterations, seed):
    if method == "bagging":
        return bag(table)
    if method == "adaboost":
        return adaboost_train(table, iterations, seed)
    return realboost_train(table, iterations)


def _cmd_combine(args) -> int:
    table = load_table(args.forecasts, args.outcomes)
    iterations = _resolve_iterations(args.method, args.iterations)
    model = _train(args.method, table, iterations, args.seed)
    save_model(model, args.model_out)
    print(f"{args.method}: {len(model.rounds)} rounds, "
          f"{model.unique_forecasters} unique forecasters -> {args.model_out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    question_ids, _, matrix = load_forecast_matrix(args.forecasts, model.forecaster_ids)
    outcomes = None
    if args.outcomes is not None:
        outcomes = load_outcomes(args.outcomes, args.forecasts, question_ids)

    per_question = []
    errors = 0
    for j, question_id in enumerate(question_ids):
        margin, probability = ensemble_predict(model, matrix[:, j])
        predicted = classify(margin)
        entry = {"question_id": question_id, "margin": margin,
                 "probability": probability, "predicted": predicted}
        if outcomes is not None:
            entry["actual"] = outcomes[question_id]
            if predicted != entry["actual"]:
                errors += 1
        per_question.append(entry)

    record = {"schema": PREDICTION_SCHEMA, "method": model.method,
              "questions": len(question_ids), "per_question": per_question}
    if outcomes is not None:
        record["prediction_errors"] = errors
    with Path(args.report_out).open("w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    summary = f"{model.method}: predicted {len(question_ids)} questions"
    if outcomes is not None:
        summary += f", {errors} errors"
    print(summary + f" -> {args.report_out}")
    return 0


def _cmd_loo(args) -> int:
    table = load_table(args.forecasts, args.outcomes)
    iterations = _resolve_iterations(args.method, args.iterations)
    report = loo_evaluate(table, args.method, iterations, args.seed)
    save_eval_report(report, args.report_out)
    print(f"{'Method':<18}{'Errors':>8}  {'Avg unique forecasters':>24}")
    print(f"{'best_individual':<18}{report.best_individual_errors:>8}  {1:>24}")
    print(f"{report.method:<18}{report.prediction_errors:>8}  "
          f"{report.avg_unique_forecasters:>24.2f}")
    return 0


def _cmd_score(args) -> int:
    table = load_table(args.forecasts, args.outcomes)
    answered_cells = table.answered
    rule = matched_scoring_rule(LinkSpec("exponential"))
    print(f"{'Forecaster':<16}{'Count':>6}{'Total':>12}{'Calibration':>13}{'Refinement':>12}")
    for i, forecaster_id in enumerate(table.forecaster_ids):
        answered = answered_cells[i]
        count = int(answered.sum())
        if count == 0:
            print(f"{forecaster_id:<16}{0:>6}{'-':>12}{'-':>13}{'-':>12}")
            continue
        report = decompose(table.forecasts[i, answered], table.outcomes[answered],
                           rule, args.bins)
        print(f"{forecaster_id:<16}{count:>6}{report.total:>12.4f}"
              f"{report.calibration:>13.4f}{report.refinement:>12.4f}")
    return 0


def _cmd_synth(args) -> int:
    try:
        spec = SyntheticSpec(forecasters=args.forecasters, questions=args.questions,
                             mode=args.mode, noise=args.noise,
                             coverage=args.coverage, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    table = generate_synthetic(spec)
    forecasts_path = f"{args.out_prefix}.forecasts.csv"
    outcomes_path = f"{args.out_prefix}.outcomes.csv"
    write_table(table, forecasts_path, outcomes_path)
    print(f"wrote {forecasts_path} and {outcomes_path}")
    return 0


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
