import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import csv_reference
from conftest import random_table
from forecast_ensembles import (
    DataFormatError,
    ForecastTable,
    SyntheticSpec,
    adaboost_train,
    bag,
    generate_synthetic,
    load_eval_report,
    load_model,
    load_table,
    loo_evaluate,
    realboost_train,
    save_eval_report,
    save_model,
    write_table,
)
from forecast_ensembles import dataio
from forecast_ensembles.dataio import FORECASTS_HEADER, OUTCOMES_HEADER, load_forecast_matrix


def write_files(tmp_path, forecasts_text, outcomes_text):
    fpath = tmp_path / "forecasts.csv"
    opath = tmp_path / "outcomes.csv"
    fpath.write_text(forecasts_text, encoding="utf-8")
    opath.write_text(outcomes_text, encoding="utf-8")
    return fpath, opath


GOOD_FORECASTS = (
    "question_id,forecaster_id,probability\n"
    "q1,alice,0.7\n"
    "q2,alice,\n"
    "q1,bob,0.2\n"
    "q3,bob,0.9\n"
)
GOOD_OUTCOMES = "question_id,outcome\nq1,+1\nq2,-1\nq3,+1\n"


class TestLoadTable:
    def test_well_formed_pair(self, tmp_path):
        table = load_table(*write_files(tmp_path, GOOD_FORECASTS, GOOD_OUTCOMES))
        assert table.question_ids == ("q1", "q2", "q3")
        assert table.forecaster_ids == ("alice", "bob")
        assert table.forecasts[0, 0] == 0.7
        assert np.isnan(table.forecasts[0, 1])  # explicit empty field
        assert np.isnan(table.forecasts[0, 2])  # missing row
        assert table.forecasts[1, 2] == 0.9
        assert list(table.outcomes) == [1, -1, 1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            load_table(tmp_path / "nope.csv", tmp_path / "nope2.csv")

    def test_bad_header(self, tmp_path):
        files = write_files(tmp_path, "question,forecaster,p\n", GOOD_OUTCOMES)
        with pytest.raises(DataFormatError, match=r":1: bad header"):
            load_table(*files)

    def test_out_of_range_probability_names_line(self, tmp_path):
        text = "question_id,forecaster_id,probability\nq1,alice,1.3\n"
        files = write_files(tmp_path, text, GOOD_OUTCOMES)
        with pytest.raises(DataFormatError, match=r":2: probability '1.3'"):
            load_table(*files)

    def test_non_numeric_probability_names_line(self, tmp_path):
        text = "question_id,forecaster_id,probability\nq1,alice,0.5\nq2,bob,maybe\n"
        files = write_files(tmp_path, text, GOOD_OUTCOMES)
        with pytest.raises(DataFormatError, match=r":3: probability 'maybe'"):
            load_table(*files)

    def test_error_names_physical_line_after_multiline_record(self, tmp_path):
        text = ('question_id,forecaster_id,probability\n'
                '"q\n1",a,0.5\n'
                'q2,a,7\n')
        files = write_files(tmp_path, text, GOOD_OUTCOMES)
        with pytest.raises(DataFormatError, match=r":4: probability '7'"):
            load_table(*files)

    def test_duplicate_pair_rejected(self, tmp_path):
        text = ("question_id,forecaster_id,probability\n"
                "q1,alice,0.5\nq1,alice,0.6\n")
        files = write_files(tmp_path, text, GOOD_OUTCOMES)
        with pytest.raises(DataFormatError, match=r"duplicate forecast .*q1.*alice"):
            load_table(*files)

    def test_unresolved_question_rejected(self, tmp_path):
        text = "question_id,forecaster_id,probability\nq9,alice,0.5\n"
        files = write_files(tmp_path, text, GOOD_OUTCOMES)
        with pytest.raises(DataFormatError, match="'q9' has no outcome row"):
            load_table(*files)

    def test_bad_outcome_value(self, tmp_path):
        files = write_files(tmp_path, GOOD_FORECASTS,
                            "question_id,outcome\nq1,+1\nq2,0\nq3,+1\n")
        with pytest.raises(DataFormatError, match=r":3: outcome"):
            load_table(*files)

    def test_duplicate_outcome_row(self, tmp_path):
        files = write_files(tmp_path, GOOD_FORECASTS,
                            "question_id,outcome\nq1,+1\nq1,-1\nq2,+1\nq3,+1\n")
        with pytest.raises(DataFormatError, match="duplicate outcome"):
            load_table(*files)


class TestLoadForecastMatrix:
    def test_first_appearance_order(self, tmp_path):
        fpath, _ = write_files(tmp_path, "question_id,forecaster_id,probability\n"
                               "q3,bob,0.9\nq1,alice,0.7\nq2,alice,\nq1,bob,0.2\n",
                               GOOD_OUTCOMES)
        question_ids, forecaster_ids, matrix = load_forecast_matrix(fpath)
        assert question_ids == ("q3", "q1", "q2")
        assert forecaster_ids == ("bob", "alice")
        np.testing.assert_array_equal(matrix, [[0.9, 0.2, np.nan], [np.nan, 0.7, np.nan]])

    def test_rows_follow_given_forecaster_ids(self, tmp_path):
        fpath, _ = write_files(tmp_path, GOOD_FORECASTS, GOOD_OUTCOMES)
        question_ids, forecaster_ids, matrix = load_forecast_matrix(
            fpath, ("bob", "carol", "alice"))
        assert question_ids == ("q1", "q2", "q3")
        assert forecaster_ids == ("bob", "carol", "alice")
        np.testing.assert_array_equal(
            matrix, [[0.2, np.nan, 0.9], [np.nan] * 3, [0.7, np.nan, np.nan]])

    def test_forecaster_outside_given_ids_names_line(self, tmp_path):
        fpath, _ = write_files(tmp_path, GOOD_FORECASTS, GOOD_OUTCOMES)
        with pytest.raises(DataFormatError, match=r"forecasts\.csv:4: forecaster 'bob'"):
            load_forecast_matrix(fpath, ("alice",))

    def test_field_over_csv_limit_names_line(self, tmp_path):
        text = "question_id,forecaster_id,probability\nq1,a,0.5\nq2," + "b" * 200_000 + ",0.5\n"
        fpath, opath = write_files(tmp_path, text, "question_id,outcome\nq1,+1\n" + "q2" * 70_000)
        with pytest.raises(DataFormatError,
                           match=r"forecasts\.csv:3: field larger than field limit \(131072\)"):
            load_forecast_matrix(fpath)
        fpath.write_text(GOOD_FORECASTS, encoding="utf-8")
        with pytest.raises(DataFormatError,
                           match=r"outcomes\.csv:3: field larger than field limit \(131072\)"):
            load_table(fpath, opath)

    def test_lowered_csv_limit_applies_to_fields_not_lines(self, tmp_path):
        fpath, _ = write_files(tmp_path, GOOD_FORECASTS.replace("alice", "a" * 13), GOOD_OUTCOMES)
        longer = tmp_path / "longer.csv"
        longer.write_text(GOOD_FORECASTS.replace("bob", "b" * 14), encoding="utf-8")
        limit = csv.field_size_limit(13)  # len("forecaster_id")
        try:
            question_ids, forecaster_ids, matrix = load_forecast_matrix(fpath)
            expected = csv_reference.load_forecast_matrix(fpath)
            with pytest.raises(DataFormatError,
                               match=r"longer\.csv:4: field larger than field limit \(13\)"):
                load_forecast_matrix(longer)
        finally:
            csv.field_size_limit(limit)
        assert (question_ids, forecaster_ids) == expected[:2] == (("q1", "q2", "q3"),
                                                                  ("a" * 13, "bob"))
        assert matrix.tobytes() == expected[2].tobytes()


class TestTableRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        table = generate_synthetic(SyntheticSpec(forecasters=7, questions=30,
                                                 coverage=0.8, seed=6))
        fpath = tmp_path / "f.csv"
        opath = tmp_path / "o.csv"
        write_table(table, fpath, opath)
        assert load_table(fpath, opath) == table

    def test_forecaster_without_forecasts_survives(self, tmp_path):
        table = ForecastTable(("q1", "q2"), ("mute", "bull"),
                              [[np.nan, np.nan], [0.9, 0.2]], [1, -1])
        write_table(table, tmp_path / "f.csv", tmp_path / "o.csv")
        assert load_table(tmp_path / "f.csv", tmp_path / "o.csv") == table

    def test_awkward_floats_survive(self, tmp_path):
        value = 0.1 + 0.2  # not exactly representable as a short decimal
        table = random_table(np.random.default_rng(0), 2, 2)
        forecasts = table.forecasts.copy()
        forecasts[0, 0] = value
        table = type(table)(table.question_ids, table.forecaster_ids,
                            forecasts, table.outcomes)
        write_table(table, tmp_path / "f.csv", tmp_path / "o.csv")
        loaded = load_table(tmp_path / "f.csv", tmp_path / "o.csv")
        assert loaded.forecasts[0, 0] == value

    def test_line_endings_are_lf(self, tmp_path):
        table = generate_synthetic(SyntheticSpec(forecasters=2, questions=3, seed=1))
        write_table(table, tmp_path / "f.csv", tmp_path / "o.csv")
        raw = (tmp_path / "f.csv").read_bytes()
        assert b"\r" not in raw


class TestModelRoundTrip:
    @pytest.mark.parametrize("train", [
        lambda t: bag(t),
        lambda t: adaboost_train(t, 4, seed=3),
        lambda t: realboost_train(t, 4),
    ])
    def test_save_load_identity(self, tmp_path, toy_table, train):
        model = train(toy_table)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_retrained_model_serializes_byte_identically(self, tmp_path, toy_table):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(adaboost_train(toy_table, 4, seed=8), first)
        save_model(adaboost_train(toy_table, 4, seed=8), second)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            load_model(tmp_path / "absent.json")

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        for schema in ("something_else", "ensemble_model.v1"):
            path.write_text(f'{{"schema": "{schema}"}}', encoding="utf-8")
            with pytest.raises(DataFormatError, match="expected schema"):
                load_model(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(DataFormatError, match="not valid JSON"):
            load_model(path)


class TestReportRoundTrip:
    def test_save_load_identity(self, tmp_path, toy_table):
        report = loo_evaluate(toy_table, "realboost", 3)
        path = tmp_path / "report.json"
        save_eval_report(report, path)
        assert load_eval_report(path) == report

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"schema": "nope"}', encoding="utf-8")
        with pytest.raises(DataFormatError, match="expected schema"):
            load_eval_report(path)


# Small ids, with the characters that make the CSV writer quote a field.
IDS = st.text(alphabet='aqz7 ,"é', min_size=1, max_size=3)
FIELDS = st.none() | st.just("") | st.floats(0.0, 1.0).map(repr)


@st.composite
def csv_pairs(draw):
    """An accepted (forecast rows, outcome rows) pair in any row order:
    each cell absent (no row), empty or a probability, and possibly
    questions that no forecaster answered."""
    question_ids = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    forecaster_ids = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    cells = [(q, f) for f in forecaster_ids for q in question_ids]
    fields = draw(st.lists(FIELDS, min_size=len(cells), max_size=len(cells)))
    rows = [[q, f, field] for (q, f), field in zip(cells, fields) if field is not None]
    outcomes = draw(st.lists(st.sampled_from(["+1", "-1"]),
                             min_size=len(question_ids), max_size=len(question_ids)))
    return (draw(st.permutations(rows)),
            draw(st.permutations([[q, o] for q, o in zip(question_ids, outcomes)])))


def write_csv(path, header, rows):
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


MUTATIONS = ["forecasts header", "outcomes header", "forecasts field count",
             "outcomes field count", "probability", "duplicate pair", "outcome literal",
             "no outcome row"]


class TestLoaderProperties:
    @given(pair=csv_pairs())
    @settings(max_examples=150, deadline=None)
    def test_accepted_pairs_round_trip(self, pair):
        rows, outcome_rows = pair
        with tempfile.TemporaryDirectory() as directory:
            fpath = write_csv(f"{directory}/f.csv", FORECASTS_HEADER, rows)
            opath = write_csv(f"{directory}/o.csv", OUTCOMES_HEADER, outcome_rows)
            table = load_table(fpath, opath)
            question_ids, forecaster_ids, matrix = load_forecast_matrix(fpath)
            write_table(table, f"{directory}/f2.csv", f"{directory}/o2.csv")
            assert load_table(f"{directory}/f2.csv", f"{directory}/o2.csv") == table
            reordered = load_forecast_matrix(fpath, forecaster_ids[::-1])

        assert question_ids == tuple(dict.fromkeys(row[0] for row in rows))
        assert forecaster_ids == tuple(dict.fromkeys(row[1] for row in rows))
        assert table.question_ids == tuple(q for q, _ in outcome_rows)
        assert table.forecaster_ids == forecaster_ids
        columns = [table.question_ids.index(q) for q in question_ids]
        np.testing.assert_array_equal(table.forecasts[:, columns], matrix)
        assert reordered[:2] == (question_ids, forecaster_ids[::-1])
        np.testing.assert_array_equal(reordered[2], matrix[::-1])

    @given(pair=csv_pairs(), mutation=st.sampled_from(MUTATIONS), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_pairs_name_the_offending_file(self, pair, mutation, data):
        rows, outcome_rows = pair
        forecasts_header, outcomes_header = list(FORECASTS_HEADER), list(OUTCOMES_HEADER)
        offending = "f.csv"
        if mutation == "forecasts header":
            forecasts_header = data.draw(st.sampled_from(
                [FORECASTS_HEADER[::-1], ["question", "forecaster", "p"],
                 FORECASTS_HEADER[:2], FORECASTS_HEADER + ["note"]]))
        elif mutation == "outcomes header":
            offending = "o.csv"
            outcomes_header = data.draw(st.sampled_from(
                [OUTCOMES_HEADER[::-1], ["question_id", "resolution"], OUTCOMES_HEADER[:1]]))
        elif mutation.endswith("field count"):
            target = rows if mutation.startswith("forecasts") else outcome_rows
            offending = "f.csv" if target is rows else "o.csv"
            width = len(FORECASTS_HEADER if target is rows else OUTCOMES_HEADER)
            extra = data.draw(st.sampled_from([width - 1, width + 1]))
            target.insert(data.draw(st.integers(0, len(target))), ["x"] * extra)
        elif mutation == "probability":
            assume(rows)
            row = data.draw(st.sampled_from(rows))
            row[2] = data.draw(st.sampled_from(
                ["maybe", "1.5", "-0.25", "1.0000001", "nan", "inf", "0x1p-1"]))
        elif mutation == "duplicate pair":
            assume(rows)
            question_id, forecaster_id, _ = data.draw(st.sampled_from(rows))
            rows.insert(data.draw(st.integers(0, len(rows))),
                        [question_id, forecaster_id, data.draw(FIELDS.filter(bool))])
        elif mutation == "outcome literal":
            offending = "o.csv"
            row = data.draw(st.sampled_from(outcome_rows))
            row[1] = data.draw(st.sampled_from(["0", "1", "+1.0", "yes", "", " +1", "−1"]))
        else:  # no outcome row
            assume(rows)
            question_id = data.draw(st.sampled_from(rows))[0]
            outcome_rows = [row for row in outcome_rows if row[0] != question_id]

        with tempfile.TemporaryDirectory() as directory:
            fpath = write_csv(f"{directory}/f.csv", forecasts_header, rows)
            opath = write_csv(f"{directory}/o.csv", outcomes_header, outcome_rows)
            with pytest.raises(DataFormatError) as caught:
                load_table(fpath, opath)
        assert str(caught.value).startswith(f"{directory}/{offending}:")


# Ids and probability fields with what csv quotes or splits on, padding,
# empties and the numbers `float` reads unusually; plain ones repeated so
# that many texts load.
TEXT_IDS = st.sampled_from(["q1", "q2", "q3", "a", "b", "c"] * 3 + [
    " a", "b ", "", "x,y", 'say "hi"', "two\nlines", "é"])
TEXT_FIELDS = st.sampled_from(["0.5", "0.75", "1", "0", "", " 0.25", "0.2_5", "1e-3",
                               "-0.0"] * 3 + ["nan", "inf", "1.5", "maybe", " "])
HEADERS = st.sampled_from([",".join(FORECASTS_HEADER)] * 12 + [
    '"question_id",forecaster_id,probability', "question_id,forecaster,probability", ""])


def sometimes(draw, one_in):
    return draw(st.sampled_from([False] * (one_in - 1) + [True]))


@st.composite
def forecast_texts(draw):
    """A forecasts file's text, often malformed, and the forecaster ids to
    load it with (None, or the file's in some order, perhaps one short and
    one extra)."""
    pairs = draw(st.lists(st.tuples(TEXT_IDS, TEXT_IDS), max_size=8, unique=True))
    records = [[q, f, draw(TEXT_FIELDS)] for q, f in pairs]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if records else 0):
        q, f, _ = draw(st.sampled_from(records))
        records.insert(draw(st.integers(0, len(records))), [q, f, draw(TEXT_FIELDS)])
    if sometimes(draw, 4):
        width = draw(st.sampled_from([1, 2, 4]))
        records.insert(draw(st.integers(0, len(records))), ["q9", "z", "0.5", "x"][:width])
    quoted = draw(st.booleans())
    lines = []
    for record in records:
        if quoted:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="").writerow(record)
            lines.append(buffer.getvalue())
        else:
            lines.append(",".join(record))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    lines.insert(0, draw(HEADERS))
    if sometimes(draw, 10):
        lines.insert(0, "")
    ending = "\r\n" if sometimes(draw, 4) else "\n"
    text = ending.join(lines) + draw(st.sampled_from(["", ending, ending * 2]))

    forecaster_ids = None
    if draw(st.booleans()):
        forecaster_ids = list(draw(st.permutations(list(dict.fromkeys(f for _, f in pairs)))))
        if forecaster_ids and draw(st.booleans()):
            forecaster_ids.pop()
        if draw(st.booleans()):
            forecaster_ids.append("extra")
    return text, forecaster_ids


def loaded(load, path, forecaster_ids=None):
    try:
        question_ids, forecaster_ids, matrix = load(path, forecaster_ids)
    except (DataFormatError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return question_ids, forecaster_ids, matrix.shape, matrix.tobytes()


class TestBlockLoaderMatchesReference:
    @given(case=forecast_texts(),
           block=st.integers(1, 48) | st.just(dataio._BLOCK_CHARS))
    @settings(max_examples=500, deadline=None)
    def test_same_ids_matrix_bytes_or_message(self, case, block):
        text, forecaster_ids = case
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_BLOCK_CHARS", block)
            path = Path(directory) / "f.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = loaded(csv_reference.load_forecast_matrix, path, forecaster_ids)
            assert loaded(load_forecast_matrix, path, forecaster_ids) == expected

    @pytest.mark.parametrize("body", [
        b"q1,a,0.5\nq2,a,0.\xff\n",
        b"q1,a,7\n" + b"".join(b"q%d,b,0.5\n" % k for k in range(40_000)) + b"\xff\n",
        b"q1,a,0.5\nq1,a,0.5\n" + b"q2,b,0.5\n" * 40_000 + b"\xff\n",
        b"".join(b"q%d,b,0.5\n" % k for k in range(40_000)) + b"q,\xff,\n",
    ], ids=["early", "after-bad-row", "after-duplicate", "late"])
    def test_undecodable_byte_meets_the_same_error(self, tmp_path, body):
        path = tmp_path / "f.csv"
        path.write_bytes(",".join(FORECASTS_HEADER).encode() + b"\n" + body)
        assert loaded(load_forecast_matrix, path) == loaded(csv_reference.load_forecast_matrix,
                                                            path)
