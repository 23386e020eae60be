"""Row-by-row reference implementation of the forecasts-CSV loader.

This is the package's loader as it was before it read the file in blocks
of columns: one `csv.reader` record at a time, each checked and stored in a
dict keyed by (row, column).  It shares nothing with the package but the
error type, and pins `dataio.load_forecast_matrix` down to equal ids,
equal matrix bytes and equal error messages.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from forecast_ensembles.dataio import DataFormatError

FORECASTS_HEADER = ["question_id", "forecaster_id", "probability"]


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
