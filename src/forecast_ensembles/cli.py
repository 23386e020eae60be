"""Command-line surface.

Subcommands:
  combine   train a combiner on a full table and write the model
  predict   apply a saved model to a forecasts file
  loo       leave-one-out evaluation with a summary table
  score     per-forecaster score / calibration / refinement report
  synth     write a seeded synthetic forecasts/outcomes CSV pair

Exit codes: 0 success, 1 usage error, 2 data error or out of memory.
The LOG_LEVEL environment variable (error, warn, info, debug) controls
diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import __version__
from .combiners import METHODS, classify, ensemble_predict_table, train
from .dataio import (
    _write_record,
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
from .scoring import MAX_BINS, decompose_table

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
    """argparse type of --iterations: an integer of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _bins(text: str) -> int:
    """argparse type of --bins: an integer in [1, `scoring.MAX_BINS`]."""
    bins = _positive(text)
    if bins > MAX_BINS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_BINS}, got {bins}")
    return bins


def _build_parser() -> _Parser:
    parser = _Parser(prog="forecast-ensembles",
                     description="Combine probability forecasters with bagging and boosting.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    combine = commands.add_parser("combine", help="train a combiner on a full table")
    combine.add_argument("--method", required=True, choices=METHODS)
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
    loo.add_argument("--method", required=True, choices=METHODS)
    loo.add_argument("--forecasts", required=True)
    loo.add_argument("--outcomes", required=True)
    loo.add_argument("--iterations", type=_positive, default=None)
    loo.add_argument("--seed", type=_seed, default=0)
    loo.add_argument("--report-out", required=True)
    loo.set_defaults(func=_cmd_loo)

    score = commands.add_parser("score", help="per-forecaster score report")
    score.add_argument("--forecasts", required=True)
    score.add_argument("--outcomes", required=True)
    score.add_argument("--bins", type=_bins, default=10)
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


def _cmd_combine(args) -> int:
    table = load_table(args.forecasts, args.outcomes)
    model = train(table, args.method, args.iterations, args.seed)
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

    margins, probabilities = ensemble_predict_table(model, matrix)
    per_question = [{"question_id": question_id, "margin": margin,
                     "probability": probability, "predicted": classify(margin)}
                    for question_id, margin, probability in zip(
                        question_ids, margins.tolist(), probabilities.tolist())]
    record = {"schema": PREDICTION_SCHEMA, "method": model.method,
              "questions": len(question_ids), "per_question": per_question}
    if outcomes is not None:
        for entry in per_question:
            entry["actual"] = outcomes[entry["question_id"]]
        record["prediction_errors"] = sum(entry["predicted"] != entry["actual"]
                                          for entry in per_question)
    _write_record(record, args.report_out)

    summary = f"{model.method}: predicted {len(question_ids)} questions"
    if outcomes is not None:
        summary += f", {record['prediction_errors']} errors"
    print(summary + f" -> {args.report_out}")
    return 0


def _cmd_loo(args) -> int:
    table = load_table(args.forecasts, args.outcomes)
    report = loo_evaluate(table, args.method, args.iterations, args.seed)
    save_eval_report(report, args.report_out)
    print(f"{'Method':<18}{'Errors':>8}  {'Avg unique forecasters':>24}")
    print(f"{'best_individual':<18}{report.best_individual_errors:>8}  {1:>24}")
    print(f"{report.method:<18}{report.prediction_errors:>8}  "
          f"{report.avg_unique_forecasters:>24.2f}")
    return 0


def _cmd_score(args) -> int:
    table = load_table(args.forecasts, args.outcomes)
    split = decompose_table(table.forecasts, table.outcomes,
                            matched_scoring_rule(LinkSpec("exponential")), args.bins)
    rows = [f"{'Forecaster':<16}{'Count':>6}{'Total':>12}{'Calibration':>13}{'Refinement':>12}\n"]
    for forecaster_id, count, total, calibration, refinement in zip(
            table.forecaster_ids, split.count.tolist(), split.total.tolist(),
            split.calibration.tolist(), split.refinement.tolist()):
        if count == 0:
            rows.append(f"{forecaster_id:<16}{0:>6}{'-':>12}{'-':>13}{'-':>12}\n")
        else:
            rows.append(f"{forecaster_id:<16}{count:>6}{total:>12.4f}"
                        f"{calibration:>13.4f}{refinement:>12.4f}\n")
    sys.stdout.write("".join(rows))
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
    except (OSError, ValueError) as exc:  # a DataFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
