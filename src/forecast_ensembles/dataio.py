"""CSV ingestion and JSON serialization.

File formats (all UTF-8 with LF line endings):

forecasts CSV   header exactly ``question_id,forecaster_id,probability``;
                one row per (question, forecaster) pair, pairs unique; an
                empty probability field means the forecaster gave no
                forecast.
outcomes CSV    header exactly ``question_id,outcome``; one row per
                question; outcome is the literal string ``+1`` or ``-1``.
model JSON      schema ``ensemble_model.v2``: method, rounds as
                [index, weight] pairs, link name and clip, imputation mode
                and seed, and forecaster ids; nothing of the training
                table, so a model fills absent forecasts by one rule on
                every question.  A ``v1`` file is rejected.
report JSON     schema ``eval_report.v1`` mirroring EvalReport.

Every forecasts CSV is read in one pass by `load_forecast_matrix`, which
orders questions by first appearance and forecasters by first appearance
or as the caller gives (a model's); `load_table` adds the outcomes file
and puts the questions in its order.  Probabilities are written with 17
significant digits and JSON floats use shortest-round-trip repr, so every
file round-trips bit-exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .combiners import EnsembleModel
from .domain import ForecastTable, ImputationPolicy
from .evaluation import EvalReport, QuestionResult
from .links import LinkSpec

__all__ = [
    "DataFormatError",
    "load_table",
    "write_table",
    "load_forecast_matrix",
    "load_outcomes",
    "save_model",
    "load_model",
    "save_eval_report",
    "load_eval_report",
]

FORECASTS_HEADER = ["question_id", "forecaster_id", "probability"]
OUTCOMES_HEADER = ["question_id", "outcome"]

MODEL_SCHEMA = "ensemble_model.v2"
REPORT_SCHEMA = "eval_report.v1"


class DataFormatError(ValueError):
    """Malformed input data; the message carries file and line context."""


def _fail(path, line, message) -> None:
    raise DataFormatError(f"{path}:{line}: {message}")


def _read_rows(path, header: list[str]):
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            _fail(path, 1, f"missing header; expected {','.join(header)}")
        if first != header:
            _fail(path, 1, f"bad header {','.join(first)!r}; expected {','.join(header)}")
        for row in reader:
            line = reader.line_num  # the record's last physical line
            if not row:
                continue
            if len(row) != len(header):
                _fail(path, line, f"expected {len(header)} fields, got {len(row)}")
            yield line, row


def load_forecast_matrix(path, forecaster_ids=None
                         ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Parse a forecasts CSV into ``(question_ids, forecaster_ids, matrix)``.

    ``matrix[i, j]`` is forecaster i's probability on question j, NaN where
    no forecast was given.  Questions follow first appearance in the file.
    Rows follow ``forecaster_ids`` when it is given, and a forecaster not in
    it is an error; otherwise they follow first appearance.
    """
    forecaster_index = {f: i for i, f in enumerate(forecaster_ids or ())}
    question_index: dict[str, int] = {}
    cells: dict[tuple[int, int], float] = {}  # (row, column) -> probability or NaN
    for line, (question_id, forecaster_id, field) in _read_rows(path, FORECASTS_HEADER):
        if not question_id or not forecaster_id:
            _fail(path, line, "question_id and forecaster_id must be non-empty")
        probability = np.nan
        if field != "":
            try:
                probability = float(field)
            except ValueError:
                _fail(path, line, f"probability {field!r} is not a number")
            if not 0.0 <= probability <= 1.0:
                _fail(path, line, f"probability {field!r} outside [0, 1]")
        row = forecaster_index.get(forecaster_id)
        if row is None:
            if forecaster_ids is not None:
                _fail(path, line, f"forecaster {forecaster_id!r} is not part of the model")
            row = forecaster_index[forecaster_id] = len(forecaster_index)
        cell = (row, question_index.setdefault(question_id, len(question_index)))
        if cell in cells:
            _fail(path, line, f"duplicate forecast for ({question_id}, {forecaster_id})")
        cells[cell] = probability
    matrix = np.full((len(forecaster_index), len(question_index)), np.nan)
    rows, columns = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
    matrix[rows, columns] = list(cells.values())
    return tuple(question_index), tuple(forecaster_index), matrix


def load_outcomes(path, forecasts_path, question_ids) -> dict[str, int]:
    """Parse an outcomes CSV into ``{question_id: +1 or -1}`` in file order.

    Every one of ``question_ids``, the questions of ``forecasts_path``, must
    have an outcome row.
    """
    outcomes: dict[str, int] = {}
    for line, (question_id, field) in _read_rows(path, OUTCOMES_HEADER):
        if not question_id:
            _fail(path, line, "question_id must be non-empty")
        if question_id in outcomes:
            _fail(path, line, f"duplicate outcome for question {question_id}")
        if field not in ("+1", "-1"):
            _fail(path, line, f"outcome must be '+1' or '-1', got {field!r}")
        outcomes[question_id] = int(field)
    for question_id in question_ids:
        if question_id not in outcomes:
            raise DataFormatError(
                f"{forecasts_path}: question {question_id!r} has no outcome row")
    return outcomes


def load_table(forecasts_path, outcomes_path) -> ForecastTable:
    """Assemble a forecast table from a forecasts CSV and an outcomes CSV.

    Questions follow outcome-file order; forecasters follow first
    appearance in the forecasts file.  Every question referenced by a
    forecast must have an outcome row.
    """
    question_ids, forecaster_ids, matrix = load_forecast_matrix(forecasts_path)
    outcomes = load_outcomes(outcomes_path, forecasts_path, question_ids)
    column = {question_id: j for j, question_id in enumerate(outcomes)}
    forecasts = np.full((len(forecaster_ids), len(outcomes)), np.nan)
    forecasts[:, [column[question_id] for question_id in question_ids]] = matrix
    return ForecastTable(tuple(outcomes), forecaster_ids, forecasts, list(outcomes.values()))


def write_table(table: ForecastTable, forecasts_path, outcomes_path) -> None:
    """Write a table as the forecasts/outcomes CSV pair.

    Only present cells are written, forecaster-major so that first
    appearance preserves forecaster order; a forecaster with no forecast
    gets one empty-probability row on the first question, so that it is
    not lost.  Probabilities carry 17 significant digits.
    """
    with Path(forecasts_path).open("w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(FORECASTS_HEADER)
        answered = table.answered
        for i, forecaster_id in enumerate(table.forecaster_ids):
            if table.question_ids and not answered[i].any():
                writer.writerow([table.question_ids[0], forecaster_id, ""])
            for q, question_id in enumerate(table.question_ids):
                if answered[i, q]:
                    writer.writerow([question_id, forecaster_id,
                                     format(table.forecasts[i, q], ".17g")])
    with Path(outcomes_path).open("w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(OUTCOMES_HEADER)
        for q, question_id in enumerate(table.question_ids):
            writer.writerow([question_id, "+1" if table.outcomes[q] > 0 else "-1"])


def save_model(model: EnsembleModel, path) -> None:
    """Serialize a trained model as schema ``ensemble_model.v2`` JSON."""
    record = {
        "schema": MODEL_SCHEMA,
        "method": model.method,
        "link": {"name": model.link.name, "clip": model.link.clip},
        "imputation": {"mode": model.imputation.mode, "seed": model.imputation.seed},
        "forecaster_ids": list(model.forecaster_ids),
        "rounds": [[index, weight] for index, weight in model.rounds],
    }
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def load_model(path) -> EnsembleModel:
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
    if record.get("schema") != MODEL_SCHEMA:
        raise DataFormatError(f"{path}: expected schema {MODEL_SCHEMA!r}, "
                              f"got {record.get('schema')!r}")
    try:
        return EnsembleModel(
            method=record["method"],
            rounds=tuple((int(i), float(w)) for i, w in record["rounds"]),
            link=LinkSpec(record["link"]["name"], float(record["link"]["clip"])),
            imputation=ImputationPolicy(record["imputation"]["mode"],
                                        int(record["imputation"]["seed"])),
            forecaster_ids=tuple(record["forecaster_ids"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed model record ({exc})") from exc


def save_eval_report(report: EvalReport, path) -> None:
    """Serialize an evaluation report as schema ``eval_report.v1`` JSON."""
    record = {
        "schema": REPORT_SCHEMA,
        "method": report.method,
        "questions": report.questions,
        "prediction_errors": report.prediction_errors,
        "avg_unique_forecasters": report.avg_unique_forecasters,
        "baseline": {
            "best_individual_errors": report.best_individual_errors,
            "mean_individual_errors": report.mean_individual_errors,
        },
        "per_question": [
            {"question_id": r.question_id, "predicted": r.predicted,
             "actual": r.actual, "probability": r.probability}
            for r in report.per_question
        ],
    }
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def load_eval_report(path) -> EvalReport:
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
    if record.get("schema") != REPORT_SCHEMA:
        raise DataFormatError(f"{path}: expected schema {REPORT_SCHEMA!r}, "
                              f"got {record.get('schema')!r}")
    try:
        return EvalReport(
            method=record["method"],
            questions=int(record["questions"]),
            prediction_errors=int(record["prediction_errors"]),
            avg_unique_forecasters=float(record["avg_unique_forecasters"]),
            per_question=tuple(
                QuestionResult(r["question_id"], int(r["predicted"]),
                               int(r["actual"]), float(r["probability"]))
                for r in record["per_question"]
            ),
            best_individual_errors=int(record["baseline"]["best_individual_errors"]),
            mean_individual_errors=float(record["baseline"]["mean_individual_errors"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed report record ({exc})") from exc
