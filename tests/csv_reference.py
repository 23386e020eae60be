"""Row-by-row reference implementations of the forecasts-CSV loader and
of the table writer.

The loader is the package's as it was before it read the file in blocks
of columns: one `csv.reader` record at a time, each checked and stored in a
dict keyed by (row, column).  It shares nothing with the package but the
error type, and pins `dataio.load_forecast_matrix` down to equal ids,
equal matrix bytes and equal error messages.  It reads the whole file at
once, and so meets a byte that is not UTF-8 by brute force: the earliest
error wins, counting only the faults of records that end before the
byte's line, and the byte wins a tie.

The writer is the package's as it was before it joined each forecaster's
rows: one `csv.writer` row per cell, whose terminator holds a CR and an
LF, so that a field holding either is quoted on every Python version.  It
pins `dataio.write_table` down to equal file bytes.
"""

from __future__ import annotations

import csv
import io
from itertools import accumulate
from pathlib import Path

import numpy as np

from forecast_ensembles.dataio import DataFormatError

FORECASTS_HEADER = ["question_id", "forecaster_id", "probability"]


def _fail(path, line, message) -> None:
    raise DataFormatError(f"{path}:{line}: {message}")


def _records(path):
    """The file's records, each with the physical line it ends on.  A file
    that does not decode is decoded whole first, to find its first byte
    that is not UTF-8 and that byte's line; the records that end before
    that line come, and then an error naming it.  A `csv.Error` names its
    line too, unless the byte's line comes first or is the same."""
    data = Path(path).read_bytes()
    byte = None  # the first byte that is not UTF-8: its line and message
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines ends lines at \r, \n and \r\n, as csv.reader does
        ends = accumulate(map(len, data.splitlines(keepends=True)))
        byte = (next(n for n, end in enumerate(ends, 1) if end > exc.start),
                f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})")
    # U+FFFD stands for each bad byte, and ends no line
    reader = csv.reader(io.StringIO(data.decode("utf-8", "replace"), newline=""))
    try:
        for row in reader:
            if byte is not None and reader.line_num >= byte[0]:
                break
            yield reader.line_num, row  # the record's last physical line
    except csv.Error as exc:
        if byte is None or reader.line_num < byte[0]:
            _fail(path, reader.line_num, exc)
    if byte is not None:
        _fail(path, *byte)


def _read_rows(path, header: list[str]):
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    records = _records(path)
    first = next(records, None)
    if first is None:
        _fail(path, 1, f"missing header; expected {','.join(header)}")
    if first[1] != header:
        _fail(path, 1, f"bad header {','.join(first[1])!r}; expected {','.join(header)}")
    for line, row in records:
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


def _row(fields) -> str:
    """One csv.writer row ending in LF, a field quoted where it holds a CR
    or an LF on every Python version: csv quotes a field that holds a
    character of the line terminator."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(fields)
    return buffer.getvalue()[:-2] + "\n"


def write_table(table, forecasts_path, outcomes_path) -> None:
    """Write a table as the forecasts/outcomes CSV pair, one row at a time."""
    with Path(forecasts_path).open("w", newline="\n", encoding="utf-8") as handle:
        handle.write(_row(FORECASTS_HEADER))
        answered = table.answered
        for i, forecaster_id in enumerate(table.forecaster_ids):
            if table.question_ids and not answered[i].any():
                handle.write(_row([table.question_ids[0], forecaster_id, ""]))
            for q, question_id in enumerate(table.question_ids):
                if answered[i, q]:
                    handle.write(_row([question_id, forecaster_id,
                                       format(table.forecasts[i, q], ".17g")]))
    with Path(outcomes_path).open("w", newline="\n", encoding="utf-8") as handle:
        handle.write(_row(["question_id", "outcome"]))
        for q, question_id in enumerate(table.question_ids):
            handle.write(_row([question_id, "+1" if table.outcomes[q] > 0 else "-1"]))
