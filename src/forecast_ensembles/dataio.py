"""CSV ingestion and JSON serialization.

File formats (all UTF-8, written with LF line endings; the CSV readers also
take CRLF and quoted fields, and skip blank lines):

forecasts CSV   header exactly ``question_id,forecaster_id,probability``;
                one row per (question, forecaster) pair, pairs unique; an
                empty probability field means the forecaster gave no
                forecast.
outcomes CSV    header exactly ``question_id,outcome``; one row per
                question; outcome is the literal string ``+1`` or ``-1``.
model JSON      schema ``ensemble_model.v3``: exactly the schema, the
                method, ``imputation`` holding only the seed of the fill,
                the forecaster ids, and the rounds as [index, weight]
                pairs.  The method fixes the link, its clip and the fill
                rule, so none is written.  Nothing of the training table
                is kept, so a model fills absent forecasts by one rule on
                every question.  A ``v1`` or ``v2`` file, and a record
                with a field missing or added, are rejected.
report JSON     schema ``eval_report.v1`` mirroring EvalReport.

Every forecasts CSV is read by `_read_forecasts`, which orders questions
by first appearance and forecasters by first appearance or as the caller
gives (a model's).  The one lookup that maps a block's
ids to row and column numbers also numbers each id it meets for the
first time (`_numbering`); a caller's forecasters are looked up with a
default of -1 for one it did not give.  `load_forecast_matrix` lays its
cells out in that order; `load_table` adds the outcomes file and puts
the questions in its order.  Probabilities are written with 17
significant digits and JSON floats use shortest-round-trip repr, so every
file round-trips bit-exactly.  Each JSON file, the CLI's prediction report
too, is one line of compact, strict JSON (no NaN or infinity) written by
`_write_record`; ``python -m json.tool FILE`` pretty-prints one, and the
readers take any layout.

The forecasts file is read in blocks of whole lines, each turned into
question, forecaster and probability columns by `str.split` and `float`, then
checked as arrays, each CRLF read as LF.  Text with a quote, a NUL or a
carriage return that does not start a CRLF, or a line longer than
``csv.field_size_limit()`` (looked for only in text longer than that
limit), is tokenized by csv.reader instead, whose
records feed the same columns, so both read a file alike.
An error names the first offending record, ``file:line`` counting
physical lines; a field over the csv limit (131,072 characters unless
changed) and a byte that is not UTF-8 are errors too, not crashes.

A large forecasts file is read, or written, by two processes where
`_split` holds for its size: this one and a `_forking.Child` whose work
returns the later half, and whose `wait` does that work here if the child
failed.  The parse cuts the file after the first line feed at or after
its middle (`_second_range`).  The child's `_Part` of the second range is
merged after the first: its ids take the numbers a single pass gives
them, its lines are counted on from the first range, and it is dropped if
the first range holds an error, so ids, arrays and messages are those of
one pass.  A range with text for csv.reader or a byte that is not UTF-8
sends the whole file to csv.reader.  `write_table` has the child format
the later forecaster rows, and writes the bytes one process writes.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
from collections import defaultdict
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _forking
from .combiners import EnsembleModel
from .domain import ForecastTable
from .evaluation import EvalReport, QuestionResult

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

MODEL_SCHEMA = "ensemble_model.v3"
REPORT_SCHEMA = "eval_report.v1"
# The method fixes a model's link, clip and fill, so its file holds no more.
_MODEL_FIELDS = {"schema", "method", "imputation", "forecaster_ids", "rounds"}


class DataFormatError(ValueError):
    """Malformed input data; the message carries file and line context."""


def _fail(path, line, message) -> None:
    raise DataFormatError(f"{path}:{line}: {message}")


def _records(path, reader):
    """``reader``'s records, each with the physical line it ends on; a
    `csv.Error` (a field over ``csv.field_size_limit()``, say) or a byte
    that is not UTF-8 becomes a DataFormatError naming the line."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            _fail(path, reader.line_num, exc)
        except UnicodeDecodeError:
            _fail_undecodable(path)
            raise
        yield reader.line_num, row


def _fail_undecodable(path) -> None:
    """Name the physical line of the file's first byte that is not UTF-8.
    The decoder's own error counts from the start of the chunk it was
    decoding, so the file is decoded again whole."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines ends lines at \r, \n and \r\n, as csv.reader does
        line = len((data[:exc.start] + b"-").splitlines())
        _fail(path, line, f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})")


def _read_rows(path, header: list[str]):
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    with path.open(newline="", encoding="utf-8") as handle:
        records = _records(path, csv.reader(handle))
        _, first = next(records, (1, None))
        _check_header(path, first, header)
        for line, row in records:
            if not row:
                continue
            if len(row) != len(header):
                _fail(path, line, f"expected {len(header)} fields, got {len(row)}")
            yield line, row


def _check_header(path, first, header: list[str]) -> None:
    """Fail unless ``first``, a file's first record split into fields or
    None if the file is empty, is ``header``."""
    if first is None:
        _fail(path, 1, f"missing header; expected {','.join(header)}")
    if first != header:
        _fail(path, 1, f"bad header {','.join(first)!r}; expected {','.join(header)}")


# Bytes read per block of a forecasts file.  A block's lines and fields
# take many times its size in memory while they are parsed, and each block
# adds a fixed cost of some microseconds: 64 KiB keep both small.  The
# unfinished last line goes on to the next block.  Records that csv.reader
# tokenizes go on in blocks of a 32nd as many, about as many as a block of
# plain lines holds.
_BLOCK_BYTES = 1 << 16

# The bytes of a forecasts file per process that parses or writes it
# (`_split`).  A child costs some milliseconds: the fork, the copy of its
# result through a file, its exit and the parse's merge.  Two processes
# beat one from here on in timed pairs on a 2-core machine, and the write
# from a little less (CHANGES.md).  Two, this process and one child, is
# the only count timed to win there; more ranges than the CPUs that run
# them lose, and a CPU quota does not shrink the affinity mask `_split`
# counts.
_MIN_RANGE_BYTES = 1 << 18

# Text that `str.split` would not tokenize as csv.reader does: a quote, or
# a NUL (rejected by csv on some Python versions).  A carriage return ends
# a line for csv too; it is split as one only where it starts a CRLF.
_CSV_ONLY = ('"', "\0")


class _Part(NamedTuple):
    """The records kept from the second range of a forecasts file: ids
    numbered by first appearance in the range, lines counted from its
    start (`_part`)."""

    question_ids: tuple[str, ...]
    forecaster_ids: tuple[str, ...]  # empty when the caller gave them
    rows: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    lines: np.ndarray
    error: tuple[int, str] | None


class _Columns:
    """A forecasts file's records as row, column and probability arrays,
    fed a block at a time and checked as they come.

    Feeding stops at the first record that fails a check of its own: field
    count, empty id, not a number, out of range or unknown forecaster, in
    that order within a record.  A reader that stops on an error of its
    own, after the records fed so far, sets `error` to its line and
    message.  `validated` then looks for a duplicate cell among the records
    kept and raises what comes first in the file.
    """

    def __init__(self, path: Path, forecaster_ids) -> None:
        self.path = path
        self.fixed = forecaster_ids is not None
        self.forecaster_index = ({f: i for i, f in enumerate(forecaster_ids)} if self.fixed
                                 else _numbering())
        self.question_index = _numbering()
        # one entry per block, from an empty one, so that there is always
        # something to concatenate
        self.rows = [np.empty(0, np.intp)]
        self.columns = [np.empty(0, np.intp)]
        self.values = [np.empty(0)]
        self.lines = [np.empty(0, np.intp)]  # physical line numbers of the records
        self.error: tuple[int, str] | None = None

    def add(self, question_ids, forecaster_ids, fields, lines) -> bool:
        """Check and keep one block of records; False once one fails."""
        failures = []  # (position, rank within a record, message)
        for ids in (question_ids, forecaster_ids):
            if "" in ids:
                failures.append((ids.index(""), 0,
                                 "question_id and forecaster_id must be non-empty"))
        columns = _renumbered(self.question_index, question_ids)
        if self.fixed:
            rows = np.fromiter(map(self.forecaster_index.get, forecaster_ids, repeat(-1)),
                               np.intp, len(forecaster_ids))
            unknown = np.flatnonzero(rows < 0)
            if unknown.size:
                position = int(unknown[0])
                failures.append((position, 3, f"forecaster {forecaster_ids[position]!r} "
                                              "is not part of the model"))
        else:
            rows = _renumbered(self.forecaster_index, forecaster_ids)
        values, present, parsed = _probabilities(fields)
        if parsed < len(fields):
            failures.append((parsed, 1, f"probability {fields[parsed]!r} is not a number"))
        outside = ~((values >= 0.0) & (values <= 1.0))  # NaN too
        if present is not None:
            outside &= present
        outside = np.flatnonzero(outside)
        if outside.size:
            position = int(outside[0])
            failures.append((position, 2, f"probability {fields[position]!r} outside [0, 1]"))

        kept = min(failures)[0] if failures else len(fields)
        self.rows.append(rows[:kept])
        self.columns.append(columns[:kept])
        self.values.append(values[:kept])
        self.lines.append(np.asarray(lines[:kept], np.intp))
        if failures:
            position, _, message = min(failures)
            self.error = (int(lines[position]), message)
        return not failures

    def merge(self, part: _Part, offset: int) -> None:
        """Keep the records of a later range of the file, ``offset``
        physical lines in, as if fed here: its ids take this file's
        numbers, new ones next in the range's order of first appearance."""
        self.columns.append(_renumbered(self.question_index, part.question_ids)[part.columns])
        self.rows.append(part.rows if self.fixed else
                         _renumbered(self.forecaster_index, part.forecaster_ids)[part.rows])
        self.values.append(part.values)
        self.lines.append(part.lines + offset)
        if part.error is not None:
            line, message = part.error
            self.error = (line + offset, message)

    def validated(self):
        """``(question_ids, forecaster_ids, rows, columns, values)`` of the
        whole file, or the first error in it."""
        rows, columns, values = (np.concatenate(parts)
                                 for parts in (self.rows, self.columns, self.values))
        width = len(self.question_index)
        cells = rows * width + columns
        seen = np.zeros(len(self.forecaster_index) * width, bool)
        seen[cells] = True
        if np.count_nonzero(seen) < cells.size:
            _, first = np.unique(cells, return_index=True)
            repeated = np.ones(cells.size, bool)
            repeated[first] = False
            position = int(np.flatnonzero(repeated)[0])
            question_id = tuple(self.question_index)[columns[position]]
            forecaster_id = tuple(self.forecaster_index)[rows[position]]
            _fail(self.path, np.concatenate(self.lines)[position],
                  f"duplicate forecast for ({question_id}, {forecaster_id})")
        if self.error is not None:
            _fail(self.path, *self.error)
        return (tuple(self.question_index), tuple(self.forecaster_index),
                rows, columns, values)


def _numbering() -> defaultdict[str, int]:
    """An id -> number dict that numbers an id it is indexed with on from
    its size, so that looking ids up numbers them in order of first
    appearance.  Only ids that are to be numbered may index it."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__
    return index


def _renumbered(index, ids) -> np.ndarray:
    """``index[id]`` of each id, as an array."""
    return np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))


def _probabilities(fields):
    """Parse ``fields`` with `float`, NaN for an empty one, up to the first
    that `float` rejects.  Returns (values, present mask or None if no field
    is empty, number of fields parsed)."""
    try:
        return (*_floats(fields), len(fields))
    except ValueError:
        for parsed, field in enumerate(fields):
            try:
                float(field or "0")
            except ValueError:
                return (*_floats(fields[:parsed]), parsed)
        raise


def _floats(fields):
    if "" not in fields:
        return np.fromiter(map(float, fields), float, len(fields)), None
    present = np.fromiter(map(bool, fields), bool, len(fields))
    values = np.full(len(fields), np.nan)
    values[present] = np.fromiter(map(float, filter(None, fields)), float)
    return values, present


class _NotPlain(Exception):
    """The text holds what only csv.reader tokenizes as it should."""


def _plain_blocks(chunks):
    """The lines of the text ``chunks`` make up, a list of whole lines per
    chunk, each CRLF read as LF.  Raises `_NotPlain` at text that
    `str.split` would not tokenize as csv.reader does: one of `_CSV_ONLY`,
    a carriage return that does not start a CRLF, or a line over
    ``csv.field_size_limit()``, whose fields csv may reject."""
    limit = csv.field_size_limit()
    tail = ""  # the unfinished last line of the text read so far
    for chunk in chunks:
        if any(c in chunk for c in _CSV_ONLY):
            raise _NotPlain
        text = tail + chunk
        if "\r" in text:
            # a last CR may start a CRLF that the next block ends, so it
            # stays in the tail
            held = "\r" if text.endswith("\r") else ""
            text = text[:len(text) - len(held)]
            if text.count("\r") != text.count("\r\n"):
                raise _NotPlain
            text = text.replace("\r\n", "\n") + held
        lines = text.split("\n")
        tail = lines.pop()
        # no line of text within the limit can exceed it
        if len(text) > limit and (len(tail) > limit
                                  or max(map(len, lines), default=0) > limit):
            raise _NotPlain
        if lines:
            yield lines
    if tail.endswith("\r"):
        raise _NotPlain
    if tail:
        yield [tail]


def _decoded(handle, start: int, end: int):
    """Bytes ``start`` to ``end`` of the binary file ``handle``, decoded as
    UTF-8 a block at a time; a range that ends inside a character raises
    UnicodeDecodeError."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    handle.seek(start)
    left = end - start
    while left > 0 and (data := handle.read(min(_BLOCK_BYTES, left))):
        left -= len(data)
        if text := decoder.decode(data):
            yield text
    decoder.decode(b"", final=True)


def _read_range(path: Path, columns: _Columns, start: int, end: int) -> int:
    """Feed ``columns`` from the lines of bytes ``start`` to ``end`` of the
    file, split by `str.split` and numbered from the range's start; the
    range at 0 starts with the header.  Returns the physical lines read."""
    width = len(FORECASTS_HEADER)
    counted = 0  # physical lines before the block
    with path.open("rb") as handle:
        blocks = _plain_blocks(_decoded(handle, start, end))
        if start == 0:
            lines = next(blocks, None)
            _check_header(path, None if lines is None else lines.pop(0).split(","),
                          FORECASTS_HEADER)
            counted += 1
            blocks = chain([lines], blocks)
        for lines in blocks:
            numbers = np.arange(counted + 1, counted + 1 + len(lines))
            counted += len(lines)
            if "" in lines:  # blank lines hold no record
                numbers = numbers[np.fromiter(map(bool, lines), bool, len(lines))]
                lines = list(filter(None, lines))
            commas = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines))
            wrong = np.flatnonzero(commas != width - 1)
            if wrong.size:
                lines = lines[:wrong[0]]
            fields = ",".join(lines).split(",") if lines else []
            if not columns.add(fields[0::3], fields[1::3], fields[2::3], numbers):
                break
            if wrong.size:
                columns.error = (int(numbers[wrong[0]]),
                                 f"expected {width} fields, got {commas[wrong[0]] + 1}")
                break
    return counted


def _split(size: int) -> bool:
    """Whether a child shares the work on ``size`` bytes of a forecasts
    file: ``size`` is at least twice `_MIN_RANGE_BYTES`, `_forking.allowed`
    holds, and the platform tells of two CPUs or more this process may run
    on."""
    return (size >= 2 * _MIN_RANGE_BYTES and _forking.allowed()
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def _second_range(path: Path) -> tuple[int, int]:
    """Where the file's second range starts, just after the first line feed
    at or after its middle, and the file's size.  The start is the size,
    and there is no second range, if `_split` does not hold for the size,
    or if that line feed ends the file or there is none."""
    with path.open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        start = size
        if _split(size):
            handle.seek(size // 2)
            while block := handle.read(_BLOCK_BYTES):
                if (found := block.find(b"\n")) >= 0:
                    start = handle.tell() - len(block) + found + 1
                    break
    return start, size


def _part(path: Path, forecaster_ids, start: int, end: int) -> _Part:
    """The records of bytes ``start`` to ``end`` of the file."""
    columns = _Columns(path, forecaster_ids)
    _read_range(path, columns, start, end)
    return _Part(tuple(columns.question_index),
                 () if columns.fixed else tuple(columns.forecaster_index),
                 *map(np.concatenate, (columns.rows, columns.columns, columns.values,
                                       columns.lines)),
                 columns.error)


def _read_plain(path: Path, forecaster_ids) -> _Columns:
    """The file's records split by `str.split`: the first range read in
    this process and the second (`_second_range`) by a child, merged after
    it unless the first holds an error."""
    start, size = _second_range(path)
    columns = _Columns(path, forecaster_ids)
    later = _forking.Child(partial(_part, path, forecaster_ids, start, size))
    try:
        if start < size:
            later.start()
        offset = _read_range(path, columns, 0, start)
        if start < size and columns.error is None:
            columns.merge(later.wait(), offset)
    finally:
        later.stop()
    return columns


def _read_quoted(path: Path, columns: _Columns) -> None:
    """Feed ``columns`` from csv.reader's records, for text that
    `_plain_blocks` declines."""
    size = max(1, _BLOCK_BYTES // 32)
    block = []
    try:
        for record in _read_rows(path, FORECASTS_HEADER):
            block.append(record)
            if len(block) == size:
                if not _add_records(columns, block):
                    return
                block = []
    except DataFormatError:
        if _add_records(columns, block):
            columns.validated()  # a duplicate before the record comes first
            raise
        return
    _add_records(columns, block)


def _add_records(columns: _Columns, block) -> bool:
    if not block:
        return True
    lines, rows = zip(*block)
    return columns.add(*zip(*rows), lines)


def _read_forecasts(path, forecaster_ids):
    """A forecasts file as `_Columns.validated` gives it."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    try:
        columns = _read_plain(path, forecaster_ids)
    except (_NotPlain, UnicodeDecodeError):
        # csv.reader tokenizes the file instead, and meets a byte that is
        # not UTF-8 after the records before it, as a bad record would be
        columns = _Columns(path, forecaster_ids)
        _read_quoted(path, columns)
    return columns.validated()


def load_forecast_matrix(path, forecaster_ids=None
                         ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Parse a forecasts CSV into ``(question_ids, forecaster_ids, matrix)``.

    ``matrix[i, j]`` is forecaster i's probability on question j, NaN where
    no forecast was given.  Questions follow first appearance in the file.
    Rows follow ``forecaster_ids`` when it is given, and a forecaster not in
    it is an error; otherwise they follow first appearance.
    """
    question_ids, forecaster_ids, rows, columns, values = _read_forecasts(path, forecaster_ids)
    matrix = np.full((len(forecaster_ids), len(question_ids)), np.nan)
    matrix[rows, columns] = values
    return question_ids, forecaster_ids, matrix


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
    question_ids, forecaster_ids, rows, columns, values = _read_forecasts(forecasts_path, None)
    outcomes = load_outcomes(outcomes_path, forecasts_path, question_ids)
    position = {question_id: j for j, question_id in enumerate(outcomes)}
    order = np.fromiter(map(position.__getitem__, question_ids), np.intp, len(question_ids))
    forecasts = np.full((len(forecaster_ids), len(outcomes)), np.nan)
    forecasts[rows, order[columns]] = values
    return ForecastTable(tuple(outcomes), forecaster_ids, forecasts, list(outcomes.values()))


def write_table(table: ForecastTable, forecasts_path, outcomes_path) -> None:
    """Write a table as the forecasts/outcomes CSV pair.

    Only present cells are written, forecaster-major so that first
    appearance preserves forecaster order; a forecaster with no forecast
    gets one empty-probability row on the first question, so that it is
    not lost.  Probabilities carry 17 significant digits.  Each id is
    quoted once by csv.writer, as it would quote it in any row, and each
    forecaster's rows are one ``%`` template applied to its probabilities.
    A child may format the rows from `_Rows.half` on; the bytes are the same.
    """
    rows = _Rows(table)
    with Path(forecasts_path).open("wb") as handle:
        count, half = len(rows.cells), rows.half()
        later = _forking.Child(lambda: b"".join(rows.text(half, count)))
        try:
            if half < count:
                later.start()
            handle.write((",".join(FORECASTS_HEADER) + "\n").encode())
            handle.writelines(rows.text(0, half))
            handle.write(later.wait())
        finally:
            later.stop()
    with Path(outcomes_path).open("w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(OUTCOMES_HEADER)
        for q, question_id in enumerate(table.question_ids):
            writer.writerow([question_id, "+1" if table.outcomes[q] > 0 else "-1"])


class _Rows:
    """A table's forecaster rows as the lines of a forecasts file."""

    def __init__(self, table: ForecastTable) -> None:
        self.forecasts, self.answered = table.forecasts, table.answered
        self.cells = np.count_nonzero(self.answered, axis=1)  # probabilities per row
        # escaped, as the ids stand in each row's % template
        self.question_ids, self.forecaster_ids = (
            [text.replace("%", "%%") for text in _csv_fields(ids)]
            for ids in (table.question_ids, table.forecaster_ids))

    def half(self) -> int:
        """The row from which a child formats the rest, about half of the
        probabilities, or the number of rows if `_split` does not hold for
        the file's estimated size.  A probability counts as 19 bytes ("0."
        and 17 digits) there."""
        question_bytes, forecaster_bytes = (
            np.fromiter(map(len, map(str.encode, ids)), np.intp, len(ids))
            for ids in (self.question_ids, self.forecaster_ids))
        # each row's ids (their escapes too), commas and line feeds; a
        # forecaster with no forecast takes one line on the first question
        widths = (self.answered @ question_bytes + (self.cells == 0) * question_bytes[:1].sum()
                  + np.maximum(self.cells, 1) * (forecaster_bytes + 3))
        count = len(self.cells)
        estimate = len(",".join(FORECASTS_HEADER)) + int((widths + 19 * self.cells).sum())
        if count < 2 or not _split(estimate):
            return count
        cells = np.cumsum(self.cells)
        return int(np.searchsorted(cells, cells[-1] / 2)) + 1

    def text(self, start: int, stop: int):
        """The UTF-8 lines of rows ``start`` to ``stop``, a bytes object
        per row, each one % operation on its row's template."""
        question_ids = self.question_ids
        if not question_ids:  # no question, no line
            return
        for i in range(start, stop):
            columns = np.flatnonzero(self.answered[i]).tolist()
            separator = f",{self.forecaster_ids[i]},%.17g\n"
            template = (separator.join(map(question_ids.__getitem__, columns)) + separator
                        if columns else f"{question_ids[0]},{self.forecaster_ids[i]},\n")
            yield (template % tuple(self.forecasts[i, columns].tolist())).encode()


def _csv_fields(texts) -> list[str]:
    """Each text as csv.writer writes it as a field of a row: quoted when
    it holds a comma, a quote or a line break."""
    buffer = io.StringIO()
    # the line terminator is part of the dialect: csv quotes a field that
    # holds one of its characters
    writer = csv.writer(buffer, lineterminator="\n")
    fields = []
    for text in texts:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([text, ""])  # two fields, so that "" is written bare
        fields.append(buffer.getvalue()[:-2])
    return fields


def _read_record(path: Path, schema: str) -> dict:
    """A JSON file's top-level object, which must carry ``schema``."""
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
    found = record.get("schema") if isinstance(record, dict) else None
    if found != schema:
        raise DataFormatError(f"{path}: expected schema {schema!r}, got {found!r}")
    return record


def _write_record(record: dict, path) -> None:
    """Write ``record`` as one line of compact JSON; a NaN or an infinity
    raises ValueError before the file is opened."""
    Path(path).write_text(json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n",
                          encoding="utf-8")


def save_model(model: EnsembleModel, path) -> None:
    """Serialize a trained model as schema ``ensemble_model.v3`` JSON."""
    record = {
        "schema": MODEL_SCHEMA,
        "method": model.method,
        "imputation": {"seed": model.seed},
        "forecaster_ids": list(model.forecaster_ids),
        "rounds": [[index, weight] for index, weight in model.rounds],
    }
    _write_record(record, path)


def load_model(path) -> EnsembleModel:
    path = Path(path)
    record = _read_record(path, MODEL_SCHEMA)
    try:
        imputation = record.get("imputation")
        if record.keys() != _MODEL_FIELDS or type(imputation) is not dict \
                or imputation.keys() != {"seed"}:
            raise ValueError("a model holds exactly schema, method, imputation (its "
                             "seed alone), forecaster_ids and rounds")
        pairs, ids = _typed(record["rounds"], list), _typed(record["forecaster_ids"], list)
        return EnsembleModel(record["method"],
                             tuple((_typed(i, int), _typed(w, float)) for i, w in pairs),
                             tuple(_typed(f, str) for f in ids), _typed(imputation["seed"], int))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    _write_record(record, path)


def load_eval_report(path) -> EvalReport:
    path = Path(path)
    record = _read_record(path, REPORT_SCHEMA)
    try:
        baseline = record["baseline"]
        rows = _typed(record["per_question"], list)
        per_question = tuple(
            QuestionResult(_typed(r["question_id"], str), _typed(r["predicted"], int),
                           _typed(r["actual"], int), _typed(r["probability"], float))
            for r in rows)
        return EvalReport(
            method=_typed(record["method"], str),
            questions=_typed(record["questions"], int),
            prediction_errors=_typed(record["prediction_errors"], int),
            avg_unique_forecasters=_typed(record["avg_unique_forecasters"], float),
            per_question=per_question,
            best_individual_errors=_typed(baseline["best_individual_errors"], int),
            mean_individual_errors=_typed(baseline["mean_individual_errors"], float),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed report record ({exc})") from exc


def _typed(value, kind: type):
    """``value`` if JSON gave it as ``kind``: str, list, int (not a
    boolean, so that true is not read as 1), or float (any JSON number,
    returned as a float)."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise TypeError(f"expected a JSON {'number' if kind is float else kind.__name__}, "
                    f"got {value!r}")
