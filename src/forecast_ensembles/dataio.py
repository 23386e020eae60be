"""CSV ingestion and JSON serialization.

File formats (all UTF-8, written with LF line endings; the CSV readers also
take CRLF and quoted fields, and skip blank lines):

forecasts CSV   header exactly ``question_id,forecaster_id,probability``;
                one row per (question, forecaster) pair, pairs unique; an
                empty probability field means the forecaster gave no
                forecast.
outcomes CSV    header exactly ``question_id,outcome``; one row per
                question; outcome is the literal string ``+1`` or ``-1``.
model JSON      schema ``ensemble_model.v4``: exactly the fields of its
                method (`_MODEL_FIELDS`), what training chose.  Nothing
                of the training table is kept, so a model fills absent
                forecasts by one rule on every question.  A ``v1``,
                ``v2`` or ``v3`` file, and a record with a field missing
                or added, are rejected.
report JSON     schema ``eval_report.v1`` mirroring EvalReport.

Every forecasts CSV is read by `_read_forecasts`, which orders ids by
first appearance, forecasters after the caller's (a model's) when it
gives them.  The one lookup that maps a block's ids to row and column
numbers also numbers each id it meets for the first time (`_numbering`);
csv.reader names a forecaster the caller did not give.
`load_forecast_matrix` lays its cells out in that order; `load_table`
adds the outcomes file and puts the questions in its order.
Probabilities are written with 17 significant digits and JSON floats use
shortest-round-trip repr, so every file round-trips bit-exactly.  Each
JSON file, the CLI's prediction report too, is one line of compact,
strict JSON (no NaN or infinity) written by `_write_record`; ``python -m
json.tool FILE`` pretty-prints one, and the readers take any layout.

The forecasts file is read as bytes, in blocks of whole lines, each
ending in LF, as `write_table` writes them.  One numpy pass over a
block's bytes finds its commas and line feeds; when they run comma,
comma, line feed, every line holds three fields, and the block is read
by a fixed set of numpy passes over its bytes (`_Columns.add_plain`).
An id of one to eight bytes is a uint64 key, its bytes zero-padded,
looked up in a sorted table of the keys met so far (`_Keys`); only a key
met for the first time is numbered, by the dict.  A probability of one
digit, a point and 1 to 19 digits, all that `write_table` writes for a
value of 0.001 or more, is read without `float` (`_decimals`): its
digits are an integer M, a float64 estimate of M / 10**19 is corrected
by a residue that 64-bit integers hold exactly, and the result is the
double nearest the decimal, as `float` gives it.  Any other form goes to
`float`.

Any other file is read by csv.reader, whole, in one process and one
record at a time (`_read_quoted`): a file with a header other than the
exact line, a quote, a NUL, a carriage return (so every CRLF file), a
byte that is not ASCII or a line of more bytes than
``csv.field_size_limit()``, and a file in which the plain reader finds a
fault: a line of other than three fields, a blank one too, an id that is
empty or longer than 8 bytes, a probability that `float` rejects or that
lies outside [0, 1], a forecaster the caller did not give, or a
duplicate forecast.  So the plain reader keeps no line numbers, and
every error is named by csv.reader's records, as the first offending
record, ``file:line`` counting physical lines; a field over the csv
limit (131,072 characters unless changed) is an error too, not a crash.
So is a byte that is not UTF-8: the records that end before its line are
checked first, and then its physical line is named (`_batches`).  One
check, `_first_duplicate`, finds a duplicate forecast in either reader's
arrays.  The plain reader numbers ids as UTF-8 bytes and decodes each
once; UTF-8 is one to one, so the numbering is that of the text.

A large forecasts file is read, or written, by two processes where
`_forking.allowed`, the one gate for both, holds for its size (its
estimated size, for the write): this one and a `_forking.Child` whose work
returns the later half, and whose `wait` does that work here if the child
failed.  The parse cuts the file after the first line feed at or after
its middle (`_second_range`).  The child's `_Part` of the second range is
merged after the first: its ids take the numbers a single pass gives
them, so ids and arrays are those of one pass.  A range that the plain
reader declines, in either process, sends the whole file to csv.reader;
the child returns no part for it, and it is not read again here.
`write_table` has the child format the later forecaster rows, and writes
the bytes one process writes.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from array import array
from collections import defaultdict
from functools import partial
from itertools import chain
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

MODEL_SCHEMA = "ensemble_model.v4"
REPORT_SCHEMA = "eval_report.v1"
# The fields of a model file of each method, in the order written.  The
# method fixes the link, its clip and the fill rule; bagging learns no
# rounds, and only adaboost's fill has a seed.
_MODEL_FIELDS = {"bagging": ("schema", "method", "forecaster_ids"),
                 "realboost": ("schema", "method", "forecaster_ids", "rounds"),
                 "adaboost": ("schema", "method", "imputation", "forecaster_ids", "rounds")}

# a JSON string, or a non-standard constant (group 1) outside one
_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(NaN|-?Infinity)')


class DataFormatError(ValueError):
    """Malformed input data; the message carries file and line context."""


def _fail(path, line, message) -> None:
    raise DataFormatError(f"{path}:{line}: {message}")


def _batches(path, handle):
    """Lists of the lines of ``handle``, a text file opened with
    ``errors="surrogateescape"``, of some `_BLOCK_BYTES` characters each.
    At a lone surrogate, which stands for a byte that is not UTF-8, the
    lines before the byte's line, then a DataFormatError naming it."""
    number = 0  # lines before the batch
    while batch := handle.readlines(_BLOCK_BYTES):
        try:
            "".join(batch).encode("utf-8")
        except UnicodeEncodeError:
            for k, line in enumerate(batch):
                data = line.encode("utf-8", "surrogateescape")
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    yield batch[:k]
                    _fail(path, number + k + 1,
                          f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})")
        yield batch
        number += len(batch)


def _read_rows(path, header: list[str]):
    """The records after the header, each with the physical line it ends on;
    a `csv.Error` (a field over the csv limit, say) names its line."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as handle:
        reader = csv.reader(chain.from_iterable(_batches(path, handle)))
        try:
            first = next(reader, None)
            if first is None:
                _fail(path, 1, f"missing header; expected {','.join(header)}")
            if first != header:
                _fail(path, 1, f"bad header {','.join(first)!r}; expected {','.join(header)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    _fail(path, reader.line_num, f"expected {len(header)} fields, got {len(row)}")
                yield reader.line_num, row
        except csv.Error as exc:
            _fail(path, reader.line_num, exc)


# Bytes read per block of a forecasts file (and characters per batch of
# csv.reader's lines, `_batches`).  A block's index and uint64 arrays take
# several times its size in memory while it is parsed, and each block adds a
# fixed cost of some tens of numpy calls.  In timed pairs 256 KiB blocks read
# the 12.8 MB panel table faster than 64 KiB ones, but the 475 KB paper table
# and the 309 KB side table slower (CHANGES.md), so 64 KiB stays.  The
# unfinished last line goes on to the next block.
_BLOCK_BYTES = 1 << 16

# Bytes that only csv.reader tokenizes as it should: a quote, a NUL
# (rejected by csv on some Python versions), or a carriage return, which
# ends a line for csv too.
_CSV_ONLY = (b'"', b"\0", b"\r")
_HEADER_LINE = ",".join(FORECASTS_HEADER).encode()


class _Part(NamedTuple):
    """The records kept from the second range of a forecasts file, ids
    numbered by first appearance in the range, after the caller's
    forecasters (`_part`)."""

    question_ids: tuple[bytes, ...]
    forecaster_ids: tuple[bytes, ...]
    rows: np.ndarray
    columns: np.ndarray
    values: np.ndarray


class _Columns:
    """A forecasts file's records as row, column and probability arrays,
    fed a block of plain lines at a time by `add_plain`, which keeps all of
    it or none, and a later range of the file by `merge`.  Ids are numbered
    as bytes, a caller's forecasters first, and decoded once, by
    `validated`; UTF-8 is one to one, so the numbers are those of the
    text.  Every fault found here raises `_NotPlain`, a duplicate forecast
    too, and csv.reader's records then name it (`_read_quoted`), so no
    line is counted here.
    """

    def __init__(self, forecaster_ids) -> None:
        # a lone surrogate, which a model's JSON may hold, encodes to bytes
        # that no UTF-8 field holds
        self.forecaster_index = _numbering(f.encode("utf-8", "surrogatepass")
                                           for f in forecaster_ids or ())
        self.question_index = _numbering()
        self.question_keys = _Keys(self.question_index)
        self.forecaster_keys = _Keys(self.forecaster_index)
        # one entry per block, from an empty one, so that there is always
        # something to concatenate
        self.rows = [np.empty(0, np.intp)]
        self.columns = [np.empty(0, np.intp)]
        self.values = [np.empty(0)]

    def add_plain(self, block: bytes, ends) -> None:
        """Keep a block of ASCII lines of three fields each, ``ends`` the
        positions of its commas and line feeds, by numpy passes alone.
        Raises `_NotPlain`, with nothing kept and no id numbered, if an id
        is empty or longer than 8 bytes, or a probability is one that
        `float` rejects or outside [0, 1]."""
        octets, words = _views(block)
        bounds = ends.reshape(-1, 3).T  # each line's two commas and line feed
        starts = np.empty(bounds.shape, np.intp)
        starts[0, 0] = 0
        starts[0, 1:] = bounds[2, :-1] + 1
        starts[1:] = bounds[:2] + 1
        lengths = bounds - starts
        if lengths[:2].min() < 1 or lengths[:2].max() > 8:
            raise _NotPlain
        question_keys, forecaster_keys = words[starts[:2]] & _BYTE_MASKS.take(lengths[:2])
        try:
            values, slow = _decimals(block, octets, words, starts[2], lengths[2])
        except ValueError:
            raise _NotPlain from None
        if slow.size and not ((values[slow] >= 0.0) & (values[slow] <= 1.0)).all():
            raise _NotPlain
        self.columns.append(self.question_keys.numbered(question_keys))
        self.rows.append(self.forecaster_keys.numbered(forecaster_keys))
        self.values.append(values)

    def merge(self, part: _Part) -> None:
        """Keep the records of a later range of the file as if fed here:
        its ids take this file's numbers, new ones next in the range's
        order of first appearance."""
        self.columns.append(_renumbered(self.question_index, part.question_ids)[part.columns])
        self.rows.append(_renumbered(self.forecaster_index, part.forecaster_ids)[part.rows])
        self.values.append(part.values)

    def validated(self):
        """``(question_ids, forecaster_ids, rows, columns, values)`` of the
        whole file; raises `_NotPlain` if a cell is given twice."""
        rows, columns, values = (np.concatenate(parts)
                                 for parts in (self.rows, self.columns, self.values))
        shape = len(self.forecaster_index), len(self.question_index)
        if _first_duplicate(rows, columns, shape) is not None:
            raise _NotPlain
        question_ids, forecaster_ids = (
            tuple(map(_text, index)) for index in (self.question_index, self.forecaster_index))
        return question_ids, forecaster_ids, rows, columns, values


def _first_duplicate(rows, columns, shape) -> int | None:
    """The position of the first record whose (row, column) cell of a
    matrix of ``shape`` an earlier record holds, or None."""
    cells = rows * shape[1] + columns
    seen = np.zeros(shape[0] * shape[1], bool)
    seen[cells] = True
    if np.count_nonzero(seen) == cells.size:
        return None
    _, first = np.unique(cells, return_index=True)
    repeated = np.ones(cells.size, bool)
    repeated[first] = False
    return int(np.flatnonzero(repeated)[0])


class _Keys:
    """The numbers an id -> number dict holds for ids of one to eight
    ASCII bytes, looked up by key: the id's bytes, zero-padded, read as a
    little-endian uint64.  No such id of a plain block holds a NUL, so the
    key is one to one.  The keys are kept sorted, after them one above
    every id's."""

    def __init__(self, index) -> None:
        self.index = index
        known = sorted((int.from_bytes(i, "little"), n) for i, n in index.items()
                       if 0 < len(i) <= 8 and i.isascii() and b"\0" not in i)
        self.keys = np.array([k for k, _ in known] + [_NO_KEY], np.uint64)
        self.numbers = np.array([n for _, n in known] + [-1], np.intp)

    def numbered(self, keys) -> np.ndarray:
        """The number of each key's id.  Ids not in the table are looked up
        in the dict, which numbers the ones it lacks in order of first
        appearance, and join the table."""
        at = np.searchsorted(self.keys, keys)
        found = self.keys[at] == keys
        if not found.all():
            new, first = np.unique(keys[~found], return_index=True)
            numbers = np.empty(len(new), np.intp)
            for j in np.argsort(first).tolist():
                numbers[j] = self.index[int(new[j]).to_bytes(8, "little").rstrip(b"\0")]
            order = np.argsort(np.concatenate((self.keys, new)))
            self.keys = np.concatenate((self.keys, new))[order]
            self.numbers = np.concatenate((self.numbers, numbers))[order]
            at = np.searchsorted(self.keys, keys)
        return self.numbers[at]


def _numbering(ids=()) -> defaultdict:
    """An id -> number dict that numbers ``ids``, then each id it is
    indexed with, on from its size, so that looking ids up numbers them in
    order of first appearance.  Only ids that are to be numbered may index
    it."""
    index: defaultdict = defaultdict()
    index.default_factory = index.__len__
    for i in ids:
        index[i]  # numbers it
    return index


def _renumbered(index, ids) -> np.ndarray:
    """``index[id]`` of each id, as an array."""
    return np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))


def _text(field: bytes) -> str:
    """The text an id encodes, a caller's lone surrogate too."""
    return field.decode("utf-8", "surrogatepass")


# 8-byte masks that keep the first 0 to 8 bytes of a little-endian uint64
_BYTE_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)
_NO_KEY = np.uint64(2**64 - 1)  # above the key of every ASCII id
# the fraction digits of a probability are read as three words: digits 1-8,
# 9-16 and 12-19, of which the last three count
_CHUNKS = np.array([[0], [8], [11]])
_FIVE_19 = 5**19
_EIGHT_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
# eight digits, the first in the low byte, to a number: each step joins
# neighbouring numbers of 1, 2 and then 4 digits, the earlier times 10**k
_JOINS = tuple(tuple(map(np.uint64, step)) for step in (
    (0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8),
    (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
    (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32)))


def _views(block: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``block`` and 24 NUL bytes after it, as bytes and as the
    little-endian uint64 that starts at each of its bytes."""
    padded = block + bytes(24)
    return (np.frombuffer(padded, np.uint8),
            np.ndarray((len(padded) - 7,), np.dtype("<u8"), padded, 0, (1,)))


def _decimals(block: bytes, octets, words, starts, lengths) -> tuple[np.ndarray, np.ndarray]:
    """The probability fields of ``block`` at ``starts`` of ``lengths``
    bytes (`_views` gives ``octets`` and ``words``), each as `float` reads
    it, NaN when empty.  Returns the values and the positions of those that
    `float` read; raises ValueError at a field that `float` rejects.

    A field of one digit, a point and 1 to 19 digits, the first digit 0 or
    the value 1, is read without `float`.  Its fraction digits, padded with
    zeros to 19, are an integer M < 10**19, read eight digits at a time,
    and the value is M / 10**19.  A float64 estimate gives the shift s and
    a 53-bit integer m near M * 2**s / 10**19 = M * 2**(s-19) / 5**19.  The
    residue D = M * 2**(s-19) - m * 5**19 is off by under 5**19 times the
    few units the estimate may miss by, so under 2**63, and wrapping uint64
    arithmetic gives it exactly.  Then m + D // 5**19 is the quotient
    rounded down, and the remainder of D rounds it to nearest: 5**19 is
    odd, so no remainder is half of it.  That rounded m times 2**-s is the
    exact value when the quotient lies in [2**52, 2**53); any other
    field goes to `float`."""
    lead = octets[starts] - np.uint8(ord("0"))  # wraps below "0"
    digits = lengths - 2
    chunks = words[starts + 2 + _CHUNKS]
    # the bytes past the field's last digit read as "0"
    chunks = _EIGHT_ZEROS ^ ((chunks ^ _EIGHT_ZEROS)
                             & _BYTE_MASKS.take(digits - _CHUNKS, mode="clip"))
    # every byte an ASCII digit (Lemire 2021)
    high = np.uint64(0xF0F0F0F0F0F0F0F0)
    numeric = ((chunks & high) | (((chunks + np.uint64(0x0606060606060606)) & high) >> 4)
               == np.uint64(0x3333333333333333)).all(axis=0)
    for keep, scale, width in _JOINS:
        chunks = ((chunks & keep) * scale) >> width
    whole = (chunks[0] * np.uint64(10**11) + chunks[1] * np.uint64(1000)
             + chunks[2] % np.uint64(1000))

    fraction, exponent = np.frexp(whole.astype(np.float64) * 1e-19)
    shift = 53 - exponent
    rounded = (fraction * 2.0**53).astype(np.int64)
    residue = ((whole << (shift - 19).astype(np.uint64))
               - rounded.view(np.uint64) * np.uint64(_FIVE_19)).view(np.int64)
    carry, remainder = np.divmod(residue, _FIVE_19)
    rounded += carry
    fast = (((lead == 0) & ((rounded >= 2**52) & (rounded < 2**53) | (whole == 0)))
            | ((lead == 1) & (whole == 0)))
    fast &= numeric & (octets[starts + 1] == ord(".")) & (digits >= 1) & (digits <= 19)
    rounded += 2 * remainder > _FIVE_19
    values = np.ldexp(rounded.astype(np.float64), -shift) + lead
    values[~fast] = np.nan
    slow = np.flatnonzero(~fast & (lengths > 0))
    if slow.size:
        values[slow] = [float(block[a:a + n])
                        for a, n in zip(starts[slow].tolist(), lengths[slow].tolist())]
    return values, slow


class _NotPlain(Exception):
    """The text holds what only csv.reader reads as it should."""


def _plain_blocks(handle, start: int, end: int):
    """Bytes ``start`` to ``end`` of the binary file ``handle`` as blocks of
    whole lines, each ending in LF.  Raises `_NotPlain` at a byte that is
    not ASCII, one of `_CSV_ONLY`, or a line of more bytes than
    ``csv.field_size_limit()``, whose fields csv may reject."""
    limit = csv.field_size_limit()
    tail = b""  # the unfinished last line of the bytes read so far
    handle.seek(start)
    left = end - start
    while left > 0 and (chunk := handle.read(min(_BLOCK_BYTES, left))):
        left -= len(chunk)
        if not chunk.isascii() or any(c in chunk for c in _CSV_ONLY):
            raise _NotPlain
        data = tail + chunk
        # no line of a block within the limit can exceed it, so only a
        # longer block is measured; an ASCII line's bytes are its characters
        if len(data) > limit:
            feeds = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
            if np.diff(feeds, prepend=-1, append=len(data)).max() > limit + 1:
                raise _NotPlain
        cut = data.rfind(b"\n") + 1
        block, tail = data[:cut], data[cut:]
        if block:
            yield block
    if tail:
        yield tail + b"\n"


def _read_range(path: Path, columns: _Columns, start: int, end: int) -> None:
    """Feed ``columns`` from the lines of bytes ``start`` to ``end`` of the
    file, each block by `add_plain`.  The range at 0 starts with the
    header.  Raises `_NotPlain` at the first block that the plain reader
    declines."""
    with path.open("rb") as handle:
        blocks = _plain_blocks(handle, start, end)
        if start == 0:
            # csv.reader names what is wrong with any other header
            header, _, block = next(blocks, b"").partition(b"\n")
            if header != _HEADER_LINE:
                raise _NotPlain
            blocks = chain([block] if block else [], blocks)
        for block in blocks:
            data = np.frombuffer(block, np.uint8)
            ends = np.flatnonzero((data == ord("\n")) | (data == ord(",")))
            if data[ends].tobytes() != b",,\n" * (len(ends) // 3):  # three fields a line
                raise _NotPlain
            columns.add_plain(block, ends)


def _second_range(path: Path) -> tuple[int, int]:
    """Where the file's second range starts, just after the first line feed
    at or after its middle, and the file's size.  The start is the size,
    and there is no second range, if `_forking.allowed` does not hold for
    the size, or if that line feed ends the file or there is none."""
    with path.open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        start = size
        if _forking.allowed(size):
            handle.seek(size // 2)
            while block := handle.read(_BLOCK_BYTES):
                if (found := block.find(b"\n")) >= 0:
                    start = handle.tell() - len(block) + found + 1
                    break
    return start, size


def _part(path: Path, forecaster_ids, start: int, end: int) -> _Part | None:
    """The records of bytes ``start`` to ``end`` of the file, or None if the
    plain reader declines them."""
    columns = _Columns(forecaster_ids)
    try:
        _read_range(path, columns, start, end)
    except _NotPlain:
        return None
    return _Part(tuple(columns.question_index), tuple(columns.forecaster_index),
                 *map(np.concatenate, (columns.rows, columns.columns, columns.values)))


def _read_plain(path: Path, forecaster_ids) -> _Columns:
    """The file's records read by `_read_range`: the first range read in
    this process and the second (`_second_range`) by a child, merged after
    it.  Raises `_NotPlain` if the plain reader declines either range; a
    range the child declines is not read again here."""
    start, size = _second_range(path)
    columns = _Columns(forecaster_ids)
    later = _forking.Child(partial(_part, path, forecaster_ids, start, size))
    try:
        if start < size:
            later.start()
        _read_range(path, columns, 0, start)
        if start < size:
            part = later.wait()
            if part is None:
                raise _NotPlain
            columns.merge(part)
    finally:
        later.stop()
    return columns


def _read_quoted(path: Path, forecaster_ids):
    """``(question_ids, forecaster_ids, rows, columns, values)`` of a file
    that `_read_plain` declines, from csv.reader's records one at a time,
    or the first error in the file.  A record is checked for an empty id,
    a probability that is not a number, one outside [0, 1] and a
    forecaster not in the caller's list, in that order, and the first that
    fails, or csv.reader's own error, stops the read; a duplicate forecast
    among the records before it comes first."""
    forecaster_index = _numbering(forecaster_ids or ())
    known = len(forecaster_index) if forecaster_ids is not None else None
    question_index = _numbering()
    rows, columns, lines, values = array("q"), array("q"), array("q"), array("d")
    failure = None
    try:
        for line, (question_id, forecaster_id, field) in _read_rows(path, FORECASTS_HEADER):
            if not question_id or not forecaster_id:
                _fail(path, line, "question_id and forecaster_id must be non-empty")
            value = np.nan
            if field:
                try:
                    value = float(field)
                except ValueError:
                    _fail(path, line, f"probability {field!r} is not a number")
                if not 0.0 <= value <= 1.0:
                    _fail(path, line, f"probability {field!r} outside [0, 1]")
            row = forecaster_index[forecaster_id]
            if row == known:  # the first forecaster the caller did not give
                _fail(path, line, f"forecaster {forecaster_id!r} is not part of the model")
            rows.append(row)
            columns.append(question_index[question_id])
            lines.append(line)
            values.append(value)
    except DataFormatError as error:
        failure = error
    question_ids, forecaster_ids = tuple(question_index), tuple(forecaster_index)
    rows, columns = (np.frombuffer(numbers, np.int64) for numbers in (rows, columns))
    position = _first_duplicate(rows, columns, (len(forecaster_ids), len(question_ids)))
    if position is not None:
        _fail(path, lines[position], f"duplicate forecast for "
                                     f"({question_ids[columns[position]]}, "
                                     f"{forecaster_ids[rows[position]]})")
    if failure is not None:
        raise failure
    return question_ids, forecaster_ids, rows, columns, np.frombuffer(values)


def _read_forecasts(path, forecaster_ids):
    """A forecasts file as `_Columns.validated` gives it: read by
    `_read_plain`, or else, and when it names a forecaster the caller did
    not give, by `_read_quoted`, from the start."""
    path = Path(path)
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    try:
        read = _read_plain(path, forecaster_ids).validated()
        if forecaster_ids is None or len(read[1]) == len(forecaster_ids):
            return read
    except _NotPlain:
        pass
    return _read_quoted(path, forecaster_ids)


def load_forecast_matrix(path, forecaster_ids=None
                         ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Parse a forecasts CSV into ``(question_ids, forecaster_ids, matrix)``.

    ``matrix[i, j]`` is forecaster i's probability on question j, NaN where
    no forecast was given.  Questions follow first appearance in the file.
    Rows follow ``forecaster_ids`` when it is given, and a forecaster not in
    it is an error; otherwise they follow first appearance.  A repeated id
    in ``forecaster_ids`` raises ValueError before the file is read.
    """
    if forecaster_ids is not None and len(set(forecaster_ids)) != len(forecaster_ids):
        raise ValueError("forecaster ids must be duplicate-free")
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
    not lost.  A table with no question writes no forecasts line, so it
    loads back with no forecaster either.  Probabilities carry 17
    significant digits.  Each id of both files is quoted once by
    `_csv_fields`, and each forecaster's rows are one ``%`` template
    applied to its probabilities.  A child may format the rows from
    `_Rows.half` on; the bytes are the same.
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
        handle.write(",".join(OUTCOMES_HEADER) + "\n")
        handle.writelines(f"{question_id},{'+1' if outcome > 0 else '-1'}\n"
                          for question_id, outcome
                          in zip(_csv_fields(table.question_ids), table.outcomes.tolist()))


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
        probabilities, or the number of rows if `_forking.allowed` does not
        hold for the file's estimated size.  A probability counts as 19
        bytes ("0." and 17 digits) there."""
        question_bytes, forecaster_bytes = (
            np.fromiter(map(len, map(str.encode, ids)), np.intp, len(ids))
            for ids in (self.question_ids, self.forecaster_ids))
        # each row's ids (their escapes too), commas and line feeds; a
        # forecaster with no forecast takes one line on the first question
        widths = (self.answered @ question_bytes + (self.cells == 0) * question_bytes[:1].sum()
                  + np.maximum(self.cells, 1) * (forecaster_bytes + 3))
        count = len(self.cells)
        estimate = len(",".join(FORECASTS_HEADER)) + int((widths + 19 * self.cells).sum())
        if count < 2 or not _forking.allowed(estimate):
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
    it holds a comma, a quote, a CR or an LF, on every Python version."""
    buffer = io.StringIO()
    # the line terminator is part of the dialect: csv quotes a field that
    # holds one of its characters (before Python 3.13, a CR only then)
    writer = csv.writer(buffer, lineterminator="\r\n")
    fields = []
    for text in texts:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([text, ""])  # two fields, so that "" is written bare
        fields.append(buffer.getvalue()[:-3])
    return fields


def _read_record(path: Path, schema: str) -> dict:
    """A JSON file's top-level object, which must carry ``schema``.  Like
    `_write_record`, it takes strict JSON only: NaN, Infinity and
    -Infinity are not valid."""
    if not path.is_file():
        raise DataFormatError(f"{path}: file not found")
    try:
        text = path.read_text(encoding="utf-8")
        record = json.loads(text, parse_constant=partial(_no_constant, text))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
    found = record.get("schema") if isinstance(record, dict) else None
    if found != schema:
        raise DataFormatError(f"{path}: expected schema {schema!r}, got {found!r}")
    return record


def _no_constant(text: str, token: str):
    """Refuse ``token``, a constant the decoder met in ``text``, with its
    line and column as the decoder's own errors give them.  The decoder
    has parsed all of ``text`` before it, so it is the first NaN,
    Infinity or -Infinity outside a string."""
    found = (match.start() for match in _STRING_OR_CONSTANT.finditer(text) if match[1])
    raise json.JSONDecodeError(f"non-standard constant {token}", text, next(found))


def _write_record(record: dict, path) -> None:
    """Write ``record`` as one line of compact JSON; a NaN or an infinity
    raises ValueError before the file is opened."""
    Path(path).write_text(json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n",
                          encoding="utf-8")


def save_model(model: EnsembleModel, path) -> None:
    """Serialize a trained model as ``ensemble_model.v4`` JSON, its method's fields alone."""
    values = {"schema": MODEL_SCHEMA, "method": model.method, "imputation": {"seed": model.seed},
              "forecaster_ids": list(model.forecaster_ids),
              "rounds": [[index, weight] for index, weight in model.rounds]}
    _write_record({field: values[field] for field in _MODEL_FIELDS[model.method]}, path)


def load_model(path) -> EnsembleModel:
    path = Path(path)
    record = _read_record(path, MODEL_SCHEMA)
    try:
        method = _typed(record.get("method"), str)
        fields = _MODEL_FIELDS.get(method)
        if fields is None or record.keys() != set(fields):
            raise ValueError(f"a {method} model holds exactly {', '.join(fields)}" if fields
                             else f"unknown method {method!r}")
        imputation = record.get("imputation", {"seed": 0})
        if type(imputation) is not dict or imputation.keys() != {"seed"}:
            raise ValueError("imputation holds the seed alone")
        pairs = _typed(record.get("rounds", []), list)
        return EnsembleModel(method,
                             tuple((_typed(i, int), _typed(w, float)) for i, w in pairs),
                             tuple(_typed(f, str) for f in _typed(record["forecaster_ids"], list)),
                             _typed(imputation["seed"], int))
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
        "per_question": [r._asdict() for r in report.per_question],
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
        report = EvalReport(
            method=_typed(record["method"], str),
            avg_unique_forecasters=_typed(record["avg_unique_forecasters"], float),
            per_question=per_question,
            best_individual_errors=_typed(baseline["best_individual_errors"], int),
            mean_individual_errors=_typed(baseline["mean_individual_errors"], float),
        )
        # the file keeps the counts the report derives from its rows
        if (_typed(record["questions"], int), _typed(record["prediction_errors"], int)) \
                != (report.questions, report.prediction_errors):
            raise ValueError("the question and error counts must be those of the rows")
        return report
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
