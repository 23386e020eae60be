import contextlib
import csv
import decimal
import io
import json
import math
import os
import re
import signal
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import csv_reference
from conftest import no_child_left, random_table
from forecast_ensembles import (
    DataFormatError,
    EnsembleModel,
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
    train,
    write_table,
)
from forecast_ensembles import _forking, dataio
from forecast_ensembles.cli import main
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

    @pytest.mark.parametrize("body,message", [
        (b"q1,+1\nq2,0\nq3,+1\n\xff\n", ":3: outcome must be '+1' or '-1', got '0'"),
        (b"q1,+1\nq1,-1\n\xff\n", ":3: duplicate outcome for question q1"),
        (b"q1,+1\nq2,-1\nq3,\xff\n", ":4: byte 0xff is not UTF-8 (invalid start byte)"),
        (b"q1,+1\n,-1\n\xff\n", ":3: question_id must be non-empty"),
        (b"question_id,result\nq1,+1\n\xff\n",
         ":1: bad header 'question_id,result'; expected question_id,outcome"),
    ], ids=["bad-value", "duplicate", "the-byte", "empty-id", "header"])
    def test_bad_outcome_row_before_an_undecodable_byte(self, tmp_path, body, message):
        """A body that starts with a header is the whole file."""
        fpath, opath = write_files(tmp_path, GOOD_FORECASTS, "")
        opath.write_bytes(body if body.startswith(b"question_id")
                          else b"question_id,outcome\n" + body)
        with pytest.raises(DataFormatError, match=re.escape(f"{opath}{message}")):
            load_table(fpath, opath)


class TestLoadForecastMatrix:
    def test_first_appearance_order(self, tmp_path):
        fpath, _ = write_files(tmp_path, "question_id,forecaster_id,probability\n"
                               "q3,bob,0.9\nq1,alice,0.7\nq2,alice,\nq1,bob,0.2\n",
                               GOOD_OUTCOMES)
        question_ids, forecaster_ids, matrix = load_forecast_matrix(fpath)
        assert question_ids == ("q3", "q1", "q2")
        assert forecaster_ids == ("bob", "alice")
        np.testing.assert_array_equal(matrix, [[0.9, 0.2, np.nan], [np.nan, 0.7, np.nan]])

    def test_late_block_numbers_new_ids_next(self, tmp_path, monkeypatch):
        # 16-character blocks: carol and q4 first appear blocks after the
        # ids numbered before them
        fpath, _ = write_files(tmp_path, "question_id,forecaster_id,probability\n"
                               "q1,alice,0.5\nq2,bob,0.25\nq1,bob,\nq3,alice,1\n"
                               "q4,carol,0.75\nq2,alice,0\n", GOOD_OUTCOMES)
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 16)
        question_ids, forecaster_ids, matrix = load_forecast_matrix(fpath)
        assert question_ids == ("q1", "q2", "q3", "q4")
        assert forecaster_ids == ("alice", "bob", "carol")
        np.testing.assert_array_equal(matrix, [[0.5, 0.0, 1.0, np.nan],
                                               [np.nan, 0.25, np.nan, np.nan],
                                               [np.nan, np.nan, np.nan, 0.75]])

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

    def test_repeated_given_id_rejected_before_the_file_is_read(self, tmp_path):
        fpath, _ = write_files(tmp_path, GOOD_FORECASTS, GOOD_OUTCOMES)
        for path in (fpath, tmp_path / "absent.csv"):  # neither file is opened
            with pytest.raises(ValueError, match="ids must be duplicate-free") as caught:
                load_forecast_matrix(path, ["alice", "alice", "bob"])
            assert type(caught.value) is ValueError

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
        # the limit counts characters: 13 of two bytes each fit, 14 do not
        wide = tmp_path / "wide.csv"
        wide.write_text(GOOD_FORECASTS.replace("alice", "é" * 13), encoding="utf-8")
        wider = tmp_path / "wider.csv"
        wider.write_text(GOOD_FORECASTS.replace("bob", "é" * 14), encoding="utf-8")
        limit = csv.field_size_limit(13)  # len("forecaster_id")
        try:
            question_ids, forecaster_ids, matrix = load_forecast_matrix(fpath)
            expected = csv_reference.load_forecast_matrix(fpath)
            with pytest.raises(DataFormatError,
                               match=r"longer\.csv:4: field larger than field limit \(13\)"):
                load_forecast_matrix(longer)
            wide_loaded = loaded(load_forecast_matrix, wide)
            wide_expected = loaded(csv_reference.load_forecast_matrix, wide)
            with pytest.raises(DataFormatError,
                               match=r"wider\.csv:4: field larger than field limit \(13\)"):
                load_forecast_matrix(wider)
        finally:
            csv.field_size_limit(limit)
        assert (question_ids, forecaster_ids) == expected[:2] == (("q1", "q2", "q3"),
                                                                  ("a" * 13, "bob"))
        assert matrix.tobytes() == expected[2].tobytes()
        assert wide_loaded == wide_expected
        assert wide_expected[:2] == (("q1", "q2", "q3"), ("é" * 13, "bob"))


# Ids with every character csv.writer quotes for, and some it does not,
# among them those a % template or a str.format one would read; an id is
# never empty.
WRITER_IDS = st.text(alphabet=' ,"\n\rqé€x%{}', min_size=1, max_size=4)
WRITER_VALUES = (st.just(np.nan) | st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 0.1 + 0.2])
                 | st.floats(0.0, 1.0))


@st.composite
def awkward_tables(draw):
    """A table with awkward ids, often with a forecaster that gave no
    forecast, and sometimes with no question at all."""
    question_ids = draw(st.lists(WRITER_IDS, max_size=5, unique=True))
    forecaster_ids = draw(st.lists(WRITER_IDS, min_size=1, max_size=5, unique=True))
    shape = (len(forecaster_ids), len(question_ids))
    values = draw(st.lists(WRITER_VALUES, min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]))
    forecasts = np.array(values, dtype=float).reshape(shape)
    if draw(st.booleans()):
        forecasts[draw(st.integers(0, shape[0] - 1))] = np.nan
    outcomes = draw(st.lists(st.sampled_from([1, -1]), min_size=shape[1],
                             max_size=shape[1]))
    return ForecastTable(question_ids, forecaster_ids, forecasts, outcomes)


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

    @given(table=awkward_tables())
    @settings(max_examples=300, deadline=None)
    def test_every_table_with_a_question_loads_back(self, table):
        """A table with no question would write no forecasts line, and its
        forecasters could not come back, so it is refused before either
        file is opened."""
        with tempfile.TemporaryDirectory() as directory:
            files = [Path(directory) / name for name in ("f.csv", "o.csv")]
            if not table.n_questions:
                with pytest.raises(ValueError, match="forecasters but no question"):
                    write_table(table, *files)
                assert not any(path.exists() for path in files)
            else:
                write_table(table, *files)
                assert load_table(*files) == table

    def test_an_id_utf8_cannot_encode_is_refused_before_a_file_is_opened(self, tmp_path):
        table = ForecastTable(("q1",), ("a", "\ud800"), [[0.5], [0.25]], [1])
        files = [tmp_path / "f.csv", tmp_path / "o.csv"]
        with pytest.raises(UnicodeEncodeError):
            write_table(table, *files)
        assert not any(path.exists() for path in files)

    def test_line_endings_are_lf(self, tmp_path):
        table = generate_synthetic(SyntheticSpec(forecasters=2, questions=3, seed=1))
        write_table(table, tmp_path / "f.csv", tmp_path / "o.csv")
        raw = (tmp_path / "f.csv").read_bytes()
        assert b"\r" not in raw

    @given(table=awkward_tables())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_the_row_by_row_writer(self, table):
        assume(table.n_questions)
        with tempfile.TemporaryDirectory() as directory:
            files = [Path(directory) / name for name in ("f.csv", "o.csv", "rf.csv", "ro.csv")]
            write_table(table, *files[:2])
            csv_reference.write_table(table, *files[2:])
            assert files[0].read_bytes() == files[2].read_bytes()
            assert files[1].read_bytes() == files[3].read_bytes()

    def test_synth_into_a_missing_directory_forks_nothing(self, tmp_path, monkeypatch, capsys):
        split_into(monkeypatch, 2)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        prefix = tmp_path / "missing" / "syn"
        assert main(["synth", "--forecasters", "9", "--questions", "30", "--mode", "type2",
                     "--out-prefix", str(prefix)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert forks == []
        assert no_child_left()


@st.composite
def saved_models(draw):
    """A model of any method, forecaster ids of any text, rounds its method
    allows, and for adaboost a seed of up to 64 bits."""
    method = draw(st.sampled_from(["bagging", "adaboost", "realboost"]))
    ids = draw(st.lists(st.text(), min_size=1, max_size=6, unique=True))
    n = len(ids)
    rounds = ()
    if method != "bagging":
        low = 0.0 if method == "adaboost" else None
        weight = st.floats(min_value=low, allow_nan=False, allow_infinity=False)
        rounds = tuple(draw(st.lists(st.tuples(st.integers(0, n - 1), weight),
                                     min_size=1, max_size=8)))
    seed = draw(st.integers(0, 2**64 - 1)) if method == "adaboost" else 0
    return EnsembleModel(method, rounds, tuple(ids), seed)


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
        for schema in ("something_else", "ensemble_model.v1", "ensemble_model.v2",
                       "ensemble_model.v3"):
            path.write_text(f'{{"schema": "{schema}"}}', encoding="utf-8")
            with pytest.raises(DataFormatError, match="expected schema"):
                load_model(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(DataFormatError, match="not valid JSON"):
            load_model(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("kind", ["model", "report"])
    def test_non_standard_constants_rejected(self, tmp_path, toy_table, kind, token):
        path = tmp_path / f"{kind}.json"
        if kind == "model":
            save_model(adaboost_train(toy_table, 4, seed=3), path)
            record = json.loads(path.read_text())
            record["rounds"][0][1] = float(token)
        else:
            save_eval_report(loo_evaluate(toy_table, "realboost", 3), path)
            record = json.loads(path.read_text())
            record["per_question"][0]["probability"] = float(token)
        path.write_text(json.dumps(record))
        load = load_model if kind == "model" else load_eval_report
        with pytest.raises(DataFormatError, match=f"not valid JSON .non-standard constant {token}"):
            load(path)

    def test_non_standard_constant_is_placed(self, tmp_path):
        # the decoder's own line, column and character; the NaN inside
        # the strings of line 1 is not the token that failed
        path = tmp_path / "model.json"
        path.write_text('{"schema": "ensemble_model.v4", "forecaster_ids": ["NaN", "a\\"NaN"],\n'
                        ' "rounds": [[0, -Infinity]]}', encoding="utf-8")
        message = ("not valid JSON (non-standard constant -Infinity: "
                   "line 2 column 17 (char 85))")
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_model(path)

    def test_constant_names_as_forecaster_ids_load(self, tmp_path):
        model = EnsembleModel("adaboost", ((0, 0.5), (2, 0.25)), ("NaN", "Infinity", "-Infinity"))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    @pytest.mark.parametrize("text", ["[1, 2]", '"ensemble_model.v2"', "null"])
    def test_json_other_than_an_object_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError, match="expected schema"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda record, link, mode: record.update(link={"name": link, "clip": 1e-06}),
        lambda record, link, mode: record.update(clip=1e-06),
        lambda record, link, mode: record.update(imputation={"mode": mode, "seed": 0}),
    ], ids=["link", "clip", "mode"])
    @pytest.mark.parametrize("train", [
        lambda t: bag(t),
        lambda t: adaboost_train(t, 4, seed=3),
        lambda t: realboost_train(t, 4),
    ], ids=["bagging", "adaboost", "realboost"])
    def test_link_clip_and_mode_must_be_the_methods_own(self, tmp_path, toy_table,
                                                        train, edit):
        # the method owns them, so a file that names them is rejected, even
        # with the method's own values, as the ensemble_model.v2 writer did
        path = tmp_path / "model.json"
        save_model(train(toy_table), path)
        record = json.loads(path.read_text())
        link, mode = {"bagging": ("linear", "half"), "adaboost": ("exponential", "random"),
                      "realboost": ("exponential", "half")}[record["method"]]
        edit(record, link, mode)
        path.write_text(json.dumps(record))
        with pytest.raises(DataFormatError, match="malformed model record"):
            load_model(path)

    @pytest.mark.parametrize("method,edit", [
        ("adaboost", lambda record: record.update(frozen_imputations=[])),
        ("adaboost", lambda record: record.pop("imputation")),
        ("adaboost", lambda record: record.pop("rounds")),
        ("adaboost", lambda record: record.update(imputation=3)),
        ("adaboost", lambda record: record["imputation"].pop("seed")),
        ("realboost", lambda record: record.pop("rounds")),
        ("realboost", lambda record: record.update(imputation={"seed": 0})),
        ("bagging", lambda record: record.pop("forecaster_ids")),
        ("bagging", lambda record: record.update(rounds=[])),
        ("bagging", lambda record: record.update(imputation={"seed": 0})),
    ], ids=["frozen_imputations", "no-imputation", "no-rounds", "imputation-not-an-object",
            "no-seed", "realboost-no-rounds", "realboost-imputation", "bagging-no-ids",
            "bagging-empty-rounds", "bagging-imputation"])
    def test_fields_missing_or_added_rejected(self, tmp_path, toy_table, method, edit):
        path = tmp_path / "model.json"
        save_model(train(toy_table, method, 4, seed=3 if method == "adaboost" else 0), path)
        record = json.loads(path.read_text())
        edit(record)
        path.write_text(json.dumps(record))
        with pytest.raises(DataFormatError, match="malformed model record"):
            load_model(path)

    @given(model=saved_models())
    @example(model=EnsembleModel("adaboost", ((1, 0.5),), ("é", "预测者 🙂"), 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_record_holds_exactly_its_methods_fields(self, model):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "model.json"
            save_model(model, path)
            record = json.loads(path.read_text(encoding="utf-8"))
            loaded = load_model(path)
        assert list(record) == {
            "bagging": ["schema", "method", "forecaster_ids"],
            "realboost": ["schema", "method", "forecaster_ids", "rounds"],
            "adaboost": ["schema", "method", "imputation", "forecaster_ids", "rounds"],
        }[model.method]
        assert record["schema"] == "ensemble_model.v4"
        assert record.get("imputation", {"seed": 0}) == {"seed": model.seed}
        assert record.get("rounds", []) == [list(pair) for pair in model.rounds]
        assert loaded == model

    @pytest.mark.parametrize("train", [lambda t: bag(t), lambda t: realboost_train(t, 4)],
                             ids=["bagging", "realboost"])
    def test_a_seed_only_adaboost_reads_is_rejected(self, tmp_path, toy_table, train):
        # such a model would predict as the trained one but compare unequal;
        # its method has no seed, so its file has no field for one
        path = tmp_path / "model.json"
        save_model(train(toy_table), path)
        record = json.loads(path.read_text())
        assert "imputation" not in record
        record["imputation"] = {"seed": 5}
        path.write_text(json.dumps(record))
        with pytest.raises(DataFormatError, match="malformed model record.*model holds exactly"):
            load_model(path)

    @pytest.mark.parametrize("rounds", [[[0, 5.0]], [[0, 0.5], [1, 0.5]],
                                        [[1, 1 / 3], [0, 1 / 3], [2, 1 / 3]],
                                        [[0, 1 / 3], [1, 1 / 3], [2, 1 / 3], [0, 1 / 3]],
                                        [[0, 1 / 3], [1, 1 / 3], [2, 1 / 3]]])
    def test_bagging_rounds_other_than_the_average_rejected(self, tmp_path, toy_table, rounds):
        # the average is no rounds at all, so the rounds the ensemble_model.v3
        # writer spelled it with (the last case) are rejected too
        path = tmp_path / "model.json"
        save_model(bag(toy_table), path)
        record = json.loads(path.read_text())
        assert record == {"schema": "ensemble_model.v4", "method": "bagging",
                          "forecaster_ids": list(toy_table.forecaster_ids)}
        record["rounds"] = rounds
        path.write_text(json.dumps(record))
        with pytest.raises(DataFormatError,
                           match="malformed model record.*bagging model holds exactly"):
            load_model(path)

    @pytest.mark.parametrize("field,value", [
        ("rounds", [[1.7, 1.0]]),
        ("rounds", [["2", 1.0]]),
        ("rounds", [[True, 1.0]]),
        ("rounds", [[0, "1e0"]]),
        ("rounds", [[0, None]]),
        ("rounds", [[0, 1e400]]),
        ("rounds", [[0, 10**400]]),
        ("forecaster_ids", "xyz"),
        ("forecaster_ids", ["x", "y", 3]),
        ("seed", "3"),
    ])
    def test_json_types_are_not_coerced(self, tmp_path, toy_table, field, value):
        path = tmp_path / "model.json"
        save_model(adaboost_train(toy_table, 4, seed=3), path)
        record = json.loads(path.read_text())
        if field == "seed":
            record["imputation"]["seed"] = value
        else:
            record[field] = value
        # json.dumps writes the float 1e400 as Infinity, which is not JSON;
        # the file holds the number literal, which overflows when read
        path.write_text(json.dumps(record).replace("Infinity", "1e400"))
        with pytest.raises(DataFormatError, match="malformed model record"):
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

    @pytest.mark.parametrize("edit", [
        (("questions",), 10.9),
        (("questions",), True),
        (("questions",), "3"),
        (("prediction_errors",), 1.0),
        (("avg_unique_forecasters",), "2.5"),
        (("avg_unique_forecasters",), None),
        (("avg_unique_forecasters",), 10**400),
        (("method",), 7),
        (("baseline", "best_individual_errors"), False),
        (("baseline", "mean_individual_errors"), [1.5]),
        (("per_question", 0, "predicted"), True),
        (("per_question", 0, "actual"), "-1"),
        (("per_question", 0, "actual"), -1.0),
        (("per_question", 0, "probability"), "0.5"),
        (("per_question", 0, "question_id"), 3),
        (("per_question",), {"q": 1}),
    ], ids=lambda edit: "-".join(map(str, edit[0])) + f"={edit[1]!r}"[:12])
    def test_json_types_are_not_coerced(self, tmp_path, toy_table, edit):
        path = tmp_path / "report.json"
        save_eval_report(loo_evaluate(toy_table, "realboost", 3), path)
        record = json.loads(path.read_text())
        keys, value = edit
        owner = record
        for key in keys[:-1]:
            owner = owner[key]
        owner[keys[-1]] = value
        path.write_text(json.dumps(record))
        with pytest.raises(DataFormatError, match="malformed report record"):
            load_eval_report(path)

    @pytest.mark.parametrize("edit", [
        lambda record: record["per_question"][0].update(predicted=7),
        lambda record: record["per_question"][0].update(actual=0),
        lambda record: record["per_question"][0].update(probability=1.5),
        lambda record: record["per_question"][0].update(probability=-0.25),
        lambda record: record.update(method="nonsense"),
        lambda record: record["per_question"][0].update(
            predicted=-record["per_question"][0]["predicted"]),
        lambda record: record["baseline"].update(best_individual_errors=99),
        lambda record: record["baseline"].update(best_individual_errors=-1),
        lambda record: record["baseline"].update(mean_individual_errors=4.5),
        lambda record: record["baseline"].update(mean_individual_errors=-0.5),
        lambda record: record.update(avg_unique_forecasters=-5.0),
        lambda record: record.update(avg_unique_forecasters=0.0),
    ], ids=["predicted=7", "actual=0", "probability=1.5", "probability=-0.25",
            "method=nonsense", "a-row-flipped", "best=99", "best=-1", "mean=4.5", "mean=-0.5",
            "unique=-5.0", "unique=0.0"])
    def test_values_no_run_could_write_are_rejected(self, tmp_path, toy_table, edit):
        path = tmp_path / "report.json"
        save_eval_report(loo_evaluate(toy_table, "realboost", 3), path)
        record = json.loads(path.read_text())
        edit(record)
        path.write_text(json.dumps(record))
        with pytest.raises(DataFormatError, match="malformed report record"):
            load_eval_report(path)

    @pytest.mark.parametrize("field,change", [("questions", 1), ("questions", -1),
                                              ("prediction_errors", 1),
                                              ("prediction_errors", -1)])
    def test_counts_other_than_the_rows_are_rejected(self, tmp_path, toy_table, field, change):
        # a report derives both counts from its rows; the file keeps them
        path = tmp_path / "report.json"
        report = loo_evaluate(toy_table, "bagging")
        save_eval_report(report, path)
        record = json.loads(path.read_text())
        assert record["questions"] == toy_table.n_questions
        record[field] += change
        path.write_text(json.dumps(record))
        with pytest.raises(DataFormatError, match="malformed report record .the question and "
                                                  "error counts must be those of the rows"):
            load_eval_report(path)

    def test_an_overflowing_unique_count_is_rejected(self, tmp_path, toy_table):
        # the number literal 1e400 is strict JSON and reads as inf, which no
        # report could be saved with
        path = tmp_path / "report.json"
        save_eval_report(loo_evaluate(toy_table, "realboost", 3), path)
        record = json.loads(path.read_text())
        record["avg_unique_forecasters"] = "overflow"
        path.write_text(json.dumps(record).replace('"overflow"', "1e400"))
        with pytest.raises(DataFormatError, match="malformed report record"):
            load_eval_report(path)

    def test_integral_numbers_load_as_floats(self, tmp_path, toy_table):
        path = tmp_path / "report.json"
        report = loo_evaluate(toy_table, "realboost", 3)
        save_eval_report(report, path)
        record = json.loads(path.read_text())
        record["per_question"][0]["probability"] = 1
        record["baseline"]["mean_individual_errors"] = 2
        path.write_text(json.dumps(record))
        loaded = load_eval_report(path)
        assert type(loaded.per_question[0].probability) is float
        assert loaded.per_question[0].probability == 1.0
        assert type(loaded.mean_individual_errors) is float


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
    " a", "b ", "", "x,y", 'say "hi"', "two\nlines", "é", "q2345678", "q23456789"])
TEXT_FIELDS = st.sampled_from(["0.5", "0.75", "1", "0", "", " 0.25", "0.2_5", "1e-3",
                               "-0.0", "0.1000000000000000055"] * 3
                              + ["nan", "inf", "1.5", "maybe", " ", "٠.٥", "\xa00.25",
                                 "0.5\u3000", "€", "0.9999999999999999999",
                                 "1.0000000000000000000", "1.9999999999999999999",
                                 "0.00012345678901234567", "0.0012345678901234567"])
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
            # a lone surrogate, which a model's JSON may hold, matches no field
            forecaster_ids.append(draw(st.sampled_from(["extra", "\ud800"])))
    return text, forecaster_ids


def loaded(load, path, forecaster_ids=None):
    try:
        question_ids, forecaster_ids, matrix = load(path, forecaster_ids)
    except (DataFormatError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return question_ids, forecaster_ids, matrix.shape, matrix.tobytes()


def split_into(patch, cpus):
    """Make the loader see ``cpus`` CPUs, whatever the machine has, and a
    file of two bytes or more worth two ranges."""
    patch.setattr(_forking, "_MIN_RANGE_BYTES", 1)
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def kernel_values(fields: list[str]) -> np.ndarray:
    """``fields`` as the probability kernel reads them, one to a line."""
    block = "".join(field + "\n" for field in fields).encode()
    lengths = np.array([len(field) for field in fields])
    starts = np.cumsum(lengths + 1) - lengths - 1
    values, _ = dataio._decimals(block, *dataio._views(block), starts, lengths)
    return values


def next_to_midpoint(x: float, above: bool) -> str:
    """The decimal of 19 fraction digits just below or just above the
    midpoint between ``x`` and the next double up."""
    with decimal.localcontext() as context:
        context.prec = 200
        middle = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, 2.0))) / 2
        near = middle.quantize(decimal.Decimal("1e-19"),
                               decimal.ROUND_CEILING if above else decimal.ROUND_FLOOR)
    return f"{near:.19f}"


# a double in [0.001, 1]: any, or a power of two or the double just below one
DOUBLES = st.floats(0.001, 1.0) | st.builds(
    lambda e, below: math.nextafter(2.0**-e, 0.0) if below else 2.0**-e,
    st.integers(0, 9), st.booleans())
KERNEL_FIELDS = (DOUBLES.map("%.17g".__mod__)
                 | st.text("0123456789", min_size=1, max_size=19).map("0.".__add__)
                 | st.builds(next_to_midpoint, DOUBLES, st.booleans())
                 | st.sampled_from(["0.0", "1.0", "0.5", "1.0000000000000000000",
                                    "0.9999999999999999999", "1.9999999999999999999"]))


class TestDecimalKernel:
    @given(fields=st.lists(KERNEL_FIELDS, min_size=1, max_size=40))
    @example(fields=["1.9999999999999999999", "0.9999999999999999999", "1.0000000000000000000"])
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_float(self, fields):
        expected = np.array([float(field) for field in fields])
        assert kernel_values(fields).view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_other_forms_and_empty_fields(self):
        fields = ["", "1", "0.", ".5", "-0.0", " 0.25", "0.2_5", "1e-3", "0.00012345678901234567",
                  "2.5", "0.5 ", "0:5", "0.5/"]
        expected = [math.nan] + [float(field) for field in fields[1:11]]
        values = kernel_values(fields[:11])
        assert values.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()
        for field in fields[11:]:
            with pytest.raises(ValueError):
                kernel_values(["0.5", field])

    @pytest.mark.parametrize("line,kernel", [
        ("q1,a,0.25", True), ("q12345678,a,0.25", False), ("q1,a12345678,0.25", False),
        ("q1,,0.25", False), ("q1,a,maybe", False), ("q1,a,1.5", False), ("q1,a,nan", False),
        ("q1,a,", True), ("q1,a,1e-3", True), ("\nq1,a,0.25", False),
        ("q2345678,a,0.25", True), ("qé,a,0.25", False)])
    def test_a_block_the_kernel_declines_is_split(self, tmp_path, monkeypatch, line, kernel):
        """Only a block with an id of more than 8 bytes or none, a byte that
        is not ASCII, a blank line, or a probability that is no number in
        [0, 1], sends the file to csv.reader.  Its ids, matrix and message
        are the reference's either way."""
        path = tmp_path / "f.csv"
        path.write_text(",".join(FORECASTS_HEADER) + "\nq2,b,0.5\n" + line + "\nq1,b,0\n",
                        encoding="utf-8")
        quoted = []
        read_quoted = dataio._read_quoted
        monkeypatch.setattr(dataio, "_read_quoted",
                            lambda *args: quoted.append(1) or read_quoted(*args))
        assert loaded(load_forecast_matrix, path) == loaded(csv_reference.load_forecast_matrix,
                                                            path)
        assert quoted == ([] if kernel else [1])
        for forecaster_ids in (["b", "a"], ["b"]):
            quoted.clear()
            assert (loaded(load_forecast_matrix, path, forecaster_ids)
                    == loaded(csv_reference.load_forecast_matrix, path, forecaster_ids))
            assert quoted == ([] if kernel and "a" in forecaster_ids else [1])


def written(values) -> list[str]:
    """The text `dataio._texts` makes of each value, its padding dropped."""
    rows = dataio._texts(np.array(values, dtype=float)).view(np.uint8)
    return [bytes(row[row != dataio._PAD]).decode() for row in rows]


def formatted(values) -> list[str]:
    return [format(value, ".17g") if value == value else "" for value in values]


# any probability, subnormals and both zeros too, and an absent one
PROBABILITIES = (st.floats(0.0, 1.0) | st.floats(0.0, 1e-300)
                 | st.sampled_from([-0.0, 0.0, 1.0, 5e-324, 2.2250738585072009e-308,
                                    2.2250738585072014e-308, 0.001, 0.01, 0.1, 0.5, math.nan]))


class TestProbabilityText:
    @given(values=st.lists(PROBABILITIES, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_same_text_as_format(self, values):
        assert written(values) == formatted(values)

    @pytest.mark.parametrize("bits,low", [(18, 0.1), (19, 0.01), (20, 0.001)])
    def test_exact_ties_round_half_to_even(self, bits, low):
        """An odd multiple of 2**-bits in [low, 10 * low) has 18
        significant digits, the last a 5, so its 17 digits are a tie."""
        odd = np.arange(math.ceil(low * 2**bits) | 1, 10 * low * 2**bits, 2)
        sample = np.random.default_rng(bits).choice(odd, 3000)
        values = np.concatenate((odd[:50], sample, odd[-50:])) / 2.0**bits
        digits = [decimal.Decimal(value).as_tuple().digits for value in values.tolist()]
        assert all(len(exact) == 18 and exact[-1] == 5 for exact in digits)
        assert written(values) == formatted(values)
        assert written([26215 / 2**18]) == ["0.10000228881835938"]

    def test_neighbours_of_each_decade(self):
        values = []
        for edge in (0.001, 0.01, 0.1, 1.0):
            below = above = edge
            for _ in range(25):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, 2.0)
                values += [below, above]
            values.append(edge)
        values = [value for value in values if value <= 1.0]
        assert written(values) == formatted(values)

    def test_noise_free_synth_table(self, tmp_path):
        """Every value of such a table is 0 or 1."""
        prefix = tmp_path / "syn"
        assert main(["synth", "--forecasters", "40", "--questions", "30", "--mode", "type2",
                     "--noise", "0", "--seed", "3", "--out-prefix", str(prefix)]) == 0
        table = generate_synthetic(SyntheticSpec(forecasters=40, questions=30, mode="type2",
                                                 noise=0.0, seed=3))
        present = table.forecasts[table.answered]
        assert ((present == 0.0) | (present == 1.0)).all() and 0 < present.sum() < present.size
        csv_reference.write_table(table, tmp_path / "rf.csv", tmp_path / "ro.csv")
        assert (tmp_path / "syn.forecasts.csv").read_bytes() == (tmp_path / "rf.csv").read_bytes()
        assert (tmp_path / "syn.outcomes.csv").read_bytes() == (tmp_path / "ro.csv").read_bytes()


def with_awkward_rows(table, long: int, absent: int) -> ForecastTable:
    """``table`` with a long id that csv quotes for forecaster ``long`` and
    no forecast from forecaster ``absent``."""
    forecaster_ids = list(table.forecaster_ids)
    forecaster_ids[long] = 'a "long", quoted\nid ' * 8
    forecasts = table.forecasts.copy()
    forecasts[absent] = np.nan
    return ForecastTable(table.question_ids, forecaster_ids, forecasts, table.outcomes)


class TestChunkedWrite:
    def test_chunks_may_end_at_any_row(self, tmp_path, monkeypatch):
        """Chunks of one row to the whole table give the reference's bytes,
        among them chunks that start with the long id's row and that start
        and end with the absent forecaster's one line."""
        table = with_awkward_rows(generate_synthetic(SyntheticSpec(
            forecasters=30, questions=20, mode="type2", coverage=0.6, seed=4)), 10, 11)
        csv_reference.write_table(table, tmp_path / "rf.csv", tmp_path / "ro.csv")
        expected = (tmp_path / "rf.csv").read_bytes()
        fields = [dataio._padded_items(dataio._csv_fields(ids))
                  for ids in (table.question_ids, table.forecaster_ids)]
        long = dataio._csv_fields(table.forecaster_ids[10:11])[0].encode()
        absent = f"{table.question_ids[0]},{table.forecaster_ids[11]},\n".encode()
        seen = set()
        for budget in range(0, fields[1].itemsize * 400, 97):
            monkeypatch.setattr(dataio, "_WRITE_BYTES", budget)
            chunks = [bytes(chunk) for chunk in dataio._forecast_lines(table.forecasts, *fields)]
            assert HEADER_LINE + b"\n" + b"".join(chunks) == expected
            for chunk in chunks:
                seen |= {("long", chunk.split(b",", 1)[1].startswith(long)),
                         ("starts absent", chunk.startswith(absent)),
                         ("ends absent", chunk.endswith(b"\n" + absent))}
        assert {("long", True), ("starts absent", True), ("ends absent", True)} <= seen

    def test_a_table_of_several_chunks(self, tmp_path):
        table = with_awkward_rows(generate_synthetic(SyntheticSpec(
            forecasters=1000, questions=12, mode="type2", coverage=0.8, seed=5)), 500, 501)
        fields = [dataio._padded_items(dataio._csv_fields(ids))
                  for ids in (table.question_ids, table.forecaster_ids)]
        assert len(list(dataio._forecast_lines(table.forecasts, *fields))) > 1
        write_table(table, tmp_path / "f.csv", tmp_path / "o.csv")
        csv_reference.write_table(table, tmp_path / "rf.csv", tmp_path / "ro.csv")
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "rf.csv").read_bytes()
        assert (tmp_path / "o.csv").read_bytes() == (tmp_path / "ro.csv").read_bytes()
        assert load_table(tmp_path / "f.csv", tmp_path / "o.csv") == table


HEADER_LINE = ",".join(FORECASTS_HEADER).encode()
# The header's 38 characters and 5,459 lines of 12 first pass the 65,536
# characters of `dataio._BLOCK_BYTES` at the last line, so the lines after
# them start csv.reader's second batch.
FIRST_BATCH = HEADER_LINE + b"\n" + b"".join(b"q%05d,b,0.5\n" % k for k in range(5459))

# Ids with a CR or a LF for csv to quote, or with an é.
QUOTED_IDS = st.sampled_from(["q1", "q2", "a", "b", "é", "qé", "x\ny", "x\rz", "c\r\nd"])
BAD_BYTES = st.sampled_from([b"\xff", b"\x80", b"\xed\xb2\x80", b"\xe2\x82", b"\xc0\xaf"])


@st.composite
def undecodable_texts(draw):
    """A forecasts file's bytes, its records written by csv.writer with
    lines ending in CR, LF or CRLF, often with a bad record and often a
    byte that is not UTF-8 put anywhere."""
    pairs = draw(st.lists(st.tuples(QUOTED_IDS, QUOTED_IDS), max_size=6, unique=True))
    records = [[q, f, draw(st.sampled_from(["0.5", "1", ""]))] for q, f in pairs]
    if draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), draw(st.sampled_from(
            [["q1", "a", "7"], ["q1", "a", "maybe"], ["", "a", "0.5"], ["q9", "z"]]
            + [list(record) for record in records])))  # a duplicate
    buffer = io.StringIO(newline="")
    # csv quotes a field that holds a character of its line terminator
    writer = csv.writer(buffer, lineterminator="\r\n")
    lines = [",".join(FORECASTS_HEADER)]
    for record in records:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(record)
        lines.append(buffer.getvalue()[:-2])
    endings = st.sampled_from(["\n", "\r", "\r\n"])
    data = ("".join(line + draw(endings) for line in lines[:-1]) + lines[-1]
            + draw(endings | st.just(""))).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(BAD_BYTES) + data[at:]
    return data


class TestBlockLoaderMatchesReference:
    @given(case=forecast_texts(),
           block=st.integers(1, 48) | st.just(dataio._BLOCK_BYTES),
           cpus=st.sampled_from([None, 2]))
    @settings(max_examples=500, deadline=None)
    def test_same_ids_matrix_bytes_or_message(self, case, block, cpus):
        """Read in one pass, or in two ranges by two processes."""
        text, forecaster_ids = case
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_BLOCK_BYTES", block)
            if cpus is not None:
                split_into(patch, cpus)
            path = Path(directory) / "f.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = loaded(csv_reference.load_forecast_matrix, path, forecaster_ids)
            assert loaded(load_forecast_matrix, path, forecaster_ids) == expected

    @pytest.mark.parametrize("text", [
        "question_id,forecaster_id,probability\r\nq1,a,0.5\r\nq2,a,\r\n\r\n"
        "q1,b,0.25\r\nq2,b,1\r\n",
        "question_id,forecaster_id,probability\r\nq1,a,0.5\nq2,a,0.125\r\nq1,b,0",
        "question_id,forecaster_id,probability\r\nq1,a,0.5\r\nq2,a,7\r\nq1,b,0\r\n",
        "question_id,forecaster_id,probability\r\nq1,a,0.5\r\nq1,a,0.5\r\n",
        "question_id,forecaster_id,probability\r\nq1,a,0.5\rq2,a,0.25\r\n",
        "question_id,forecaster_id,probability\r\nq1,a\r,0.5\r\n",
        "question_id,forecaster_id,probability\r\nq1,a,0.5\r\r\nq2,a,0.25\r\n",
        "question_id,forecaster_id,probability\r\nq1,a,0.5\r\nq2,a,0.25\r",
        "question_id,forecaster_id,probability\nqé,€,0.5\nq𝟘,é,1\nq1,€𝟘,٠.٥\n"
        "q2,a,0.25\n",
        "question_id,forecaster_id,probability\r\nqé,€,٠.٥\r\nq𝟘,a,1\r\nq1,𝟘é\r\n"
        "q2,a,0.25\r\n",
        "question_id,forecaster_id,probability\nq1,é,0.5\r\nq𝟘,€,€\nq2,a,1\n",
    ], ids=["crlf", "mixed-no-final-newline", "crlf-bad-value", "crlf-duplicate",
            "lone-cr", "cr-in-field", "cr-before-crlf", "cr-at-end", "multibyte",
            "multibyte-crlf-field-count", "multibyte-not-a-number"])
    def test_crlf_split_at_every_block_boundary(self, tmp_path, monkeypatch, text):
        """A carriage return, in a CRLF or not, and a byte that is not ASCII
        send the file to csv.reader, whichever block they fall in, and
        every block size gives the reference's ids, matrix and error line.
        A block may end inside a CRLF or a character of two, three or four
        bytes."""
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = loaded(csv_reference.load_forecast_matrix, path)
        quoted = []
        read_quoted = dataio._read_quoted
        monkeypatch.setattr(dataio, "_read_quoted",
                            lambda *args: quoted.append(1) or read_quoted(*args))
        for block in range(1, path.stat().st_size + 2):
            monkeypatch.setattr(dataio, "_BLOCK_BYTES", block)
            quoted.clear()
            assert loaded(load_forecast_matrix, path) == expected, block
            assert quoted == [1], block

    @pytest.mark.parametrize("records,forecaster_ids,message", [
        ([["q1", "a", "0.5"], ["q2", "a", "0.5"], ["q1", "a", "0.25"], ["q2", "b", "7"]],
         None, ":4: duplicate forecast for (q1, a)"),
        ([["q1", "a", "0.5"], ["q2", "b", "7"], ["q1", "a", "0.25"]],
         None, ":3: probability '7' outside [0, 1]"),
        ([["q1", "b", "0.5"], ["q1", "c", "0.25"]],
         ["a", "b"], ":3: forecaster 'c' is not part of the model"),
        ([["q1", "a", "0.5"], ["q1", "a", "0.5"], ["q2", "a"]],
         None, ":3: duplicate forecast for (q1, a)"),
    ], ids=["duplicate-then-probability", "probability-then-duplicate",
            "unknown-forecaster-on-a-taken-cell", "duplicate-then-field-count"])
    def test_first_error_of_a_quoted_file(self, tmp_path, monkeypatch, records,
                                          forecaster_ids, message):
        """csv.reader's records meet a duplicate forecast and every other
        error in the order the reference does.  The unknown forecaster
        would take row -1, which indexes the cell (q1, b) that the record
        before holds."""
        path = write_csv(tmp_path / "f.csv", FORECASTS_HEADER, [])
        with path.open("a", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(records)
        quoted = []
        read_quoted = dataio._read_quoted
        monkeypatch.setattr(dataio, "_read_quoted",
                            lambda *args: quoted.append(1) or read_quoted(*args))
        expected = loaded(csv_reference.load_forecast_matrix, path, forecaster_ids)
        assert expected == ("DataFormatError", f"{path}{message}")
        assert loaded(load_forecast_matrix, path, forecaster_ids) == expected
        assert quoted == [1]

    @pytest.mark.parametrize("body,message", [
        (b"q1,a,0.5\nq2,a,0.\xff\n", None),
        (b"q1,a,7\n" + b"".join(b"q%d,b,0.5\n" % k for k in range(40_000)) + b"\xff\n",
         ":2: probability '7' outside [0, 1]"),
        (b"q1,a,0.5\nq1,a,0.5\n" + b"q2,b,0.5\n" * 40_000 + b"\xff\n",
         ":3: duplicate forecast for (q1, a)"),
        (b"".join(b"q%d,b,0.5\n" % k for k in range(40_000)) + b"q,\xff,\n", None),
        (b"q1,a,7\nq2,a,0.5\n\xff\n", ":2: probability '7' outside [0, 1]"),
        (b"q1,a,0.5\nq1,a,0.5\n\xff\n", ":3: duplicate forecast for (q1, a)"),
        (b"q1,a,0.5,x\n\xff\n", ":2: expected 3 fields, got 4"),
        (b'q1,a,0.5\n"q2\n\xff",a,0.5\n', None),
        (b'q1,a,0.5\n"q2\n",a,\xff\nq3,a,7\n', None),
        (b"q1,a,0.5\nq2,a,0.5\r\xff\n", None),
        (b"q1,a,0.5\nq\xc3\xa9,a,0.5\n\xff\n", ":4: byte 0xff is not UTF-8 (invalid start byte)"),
        (b"q1,a,0.5\nq2,\xed\xb2\x80,0.5\n",
         ":3: byte 0xed is not UTF-8 (invalid continuation byte)"),
        (b"q1,a,0.5\nq2,a,\xe2\x82", ":3: byte 0xe2 is not UTF-8 (unexpected end of data)"),
        (b"q1,a,0.5\nq2,\xe2\x82\nq3,a,0.5\n",
         ":3: byte 0xe2 is not UTF-8 (invalid continuation byte)"),
        (b"q1,a,0.5\nq2,\xc0\xaf,0.5\n", ":3: byte 0xc0 is not UTF-8 (invalid start byte)"),
        (HEADER_LINE + b"\rq1,a,0.5\rq2,a,0.5\r\xff\r",
         ":4: byte 0xff is not UTF-8 (invalid start byte)"),
        (HEADER_LINE + b"\rq1,a,0.5\rq2,a,7\rq3,\xff,0.5\r", ":3: probability '7' outside [0, 1]"),
        (HEADER_LINE + b"\xff\nq1,a,0.5\n", ":1: byte 0xff is not UTF-8 (invalid start byte)"),
        (FIRST_BATCH + b"q,\xff,0.5\n", ":5461: byte 0xff is not UTF-8 (invalid start byte)"),
    ], ids=["early", "after-bad-row", "after-duplicate", "late", "near-bad-row",
            "near-duplicate", "near-field-count", "in-a-quoted-record",
            "ends-a-quoted-record", "after-a-lone-cr", "after-a-valid-e-acute",
            "encoded-surrogate", "cut-by-the-end", "cut-by-its-lf", "overlong",
            "cr-only", "cr-only-bad-row", "in-the-header", "second-batch"])
    def test_undecodable_byte_meets_the_same_error(self, tmp_path, body, message):
        """An earlier bad record wins; otherwise the error names the line of
        the byte, and why the decoder rejects it.  A body that starts with
        the header is the whole file."""
        path = tmp_path / "f.csv"
        path.write_bytes(body if body.startswith(HEADER_LINE) else HEADER_LINE + b"\n" + body)
        if message is None:
            data = path.read_bytes()
            line = len(data[:data.index(b"\xff") + 1].splitlines())
            message = f":{line}: byte 0xff is not UTF-8 (invalid start byte)"
        expected = ("DataFormatError", f"{path}{message}")
        assert loaded(csv_reference.load_forecast_matrix, path) == expected
        assert loaded(load_forecast_matrix, path) == expected

    @given(data=undecodable_texts(), block=st.integers(1, 48) | st.just(dataio._BLOCK_BYTES))
    @settings(max_examples=400, deadline=None)
    def test_undecodable_bytes_meet_the_reference(self, data, block):
        """Ids that csv quotes for a CR or a LF, or that hold an é, lines
        ending in CR, LF or CRLF, perhaps a bad record and perhaps a byte
        that is not UTF-8, with csv.reader's lines in batches of 1 to 48
        characters or of `_BLOCK_BYTES`: the reference's ids and matrix, or
        its first error."""
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_BLOCK_BYTES", block)
            path = Path(directory) / "f.csv"
            path.write_bytes(data)
            assert loaded(load_forecast_matrix, path) == loaded(
                csv_reference.load_forecast_matrix, path)


# Ids of one to eight bytes that csv.writer writes bare, as `synth`'s are.
KERNEL_IDS = st.text("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_-",
                     min_size=1, max_size=8)


@st.composite
def kernel_tables(draw):
    """A table with such ids, each cell a double in [0, 1] or NaN."""
    question_ids = draw(st.lists(KERNEL_IDS, min_size=1, max_size=6, unique=True))
    forecaster_ids = draw(st.lists(KERNEL_IDS, min_size=1, max_size=6, unique=True))
    cells = len(forecaster_ids) * len(question_ids)
    values = draw(st.lists(st.just(np.nan) | st.floats(0.0, 1.0), min_size=cells,
                           max_size=cells))
    outcomes = draw(st.lists(st.sampled_from([1, -1]), min_size=len(question_ids),
                             max_size=len(question_ids)))
    forecasts = np.array(values, dtype=float).reshape(len(forecaster_ids), -1)
    return ForecastTable(question_ids, forecaster_ids, forecasts, outcomes)


class TestKernelTraffic:
    @given(table=kernel_tables(), crlf=st.booleans(),
           blanks=st.lists(st.integers(0, 100), max_size=3),
           block=st.integers(1, 48) | st.just(dataio._BLOCK_BYTES))
    @settings(max_examples=200, deadline=None)
    def test_written_tables_never_reach_csv_reader(self, table, crlf, blanks, block):
        """What `write_table` writes of such a table is read by the kernel
        alone, in one range and in two; a copy in CRLF or with blank lines
        is read by csv.reader, once a load.  Each round-trips bit for
        bit."""
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            fpath, opath = Path(directory) / "f.csv", Path(directory) / "o.csv"
            write_table(table, fpath, opath)
            lines = fpath.read_bytes().split(b"\n")  # the last one empty
            for at in blanks:  # after the header, and maybe after the last line
                lines.insert(1 + at % (len(lines) - 1), b"")
            text = b"\n".join(lines)
            fpath.write_bytes(text.replace(b"\n", b"\r\n") if crlf else text)
            quoted = []
            read_quoted = dataio._read_quoted
            patch.setattr(dataio, "_read_quoted",
                          lambda *args: quoted.append(1) or read_quoted(*args))
            patch.setattr(dataio, "_BLOCK_BYTES", block)
            tables = [load_table(fpath, opath)]
            split_into(patch, 2)
            tables.append(load_table(fpath, opath))
        assert quoted == ([1, 1] if crlf or blanks else [])
        for loaded_table in tables:
            assert loaded_table.question_ids == table.question_ids
            assert loaded_table.forecaster_ids == table.forecaster_ids
            assert loaded_table.forecasts.tobytes() == table.forecasts.tobytes()
            assert loaded_table.outcomes.tolist() == table.outcomes.tolist()


@contextlib.contextmanager
def sigint_unblocked():
    """Run with SIGINT unblocked in this thread, then restore its mask."""
    mask = signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGINT])
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


class TestRanges:
    """A file read in two ranges, the second by a child process, gives the
    reference's ids, matrix bytes or message."""

    @pytest.fixture
    def split_file(self, tmp_path, monkeypatch):
        """Make a file of the header, ``first`` and ``second``, read in two
        ranges that part between them.  ``taken`` counts the parts of the
        second range merged, and ``here`` lists the start of each range
        this process reads."""
        taken, here, pid = [], [], os.getpid()
        merge, read_range = dataio._Columns.merge, dataio._read_range
        monkeypatch.setattr(dataio._Columns, "merge",
                            lambda columns, *args: taken.append(1) or merge(columns, *args))

        def recorded(path, columns, start, end):
            if os.getpid() == pid:
                here.append(start)
            return read_range(path, columns, start, end)

        monkeypatch.setattr(dataio, "_read_range", recorded)

        def make(first: bytes, second: bytes):
            path = tmp_path / "f.csv"
            path.write_bytes(",".join(FORECASTS_HEADER).encode() + b"\n" + first + second)
            size = path.stat().st_size
            monkeypatch.setattr(dataio, "_second_range", lambda path: (size - len(second), size))
            return path, taken, here

        return make

    @pytest.mark.parametrize("first,second,forecaster_ids,message,merged", [
        (b"q1,a,0.5\nq2,b,0.25\n", b"q3,a,1\nq1,a,0.75\n", None,
         ":5: duplicate forecast for (q1, a)", True),
        (b"q1,a,0.5\nq2,b,0.25\n", b"q3,a,1\nq1,b,7\nq3,b,maybe\n", None,
         ":5: probability '7' outside [0, 1]", False),
        (b"q1,a,0.5\nq2,b,0.25\n", b"q3,a,1\nq1,c,0.5\n", ["b", "a"],
         ":5: forecaster 'c' is not part of the model", True),
        (b"q1,a,0.5\n\nq2,b,0.25\n", b"q3,a,1\n\nq1,b,0.5,x\n", None,
         ":7: expected 3 fields, got 4", False),
        (b"q1,a,0.5\nq2,b,0.25\n", b"q3,c,1\nq4,b,0\nq1,d,\nq3,a,0.5\n", None, None, True),
        (b"q1,a,0.5\nq2,b,0.25\n", b"q3,c,1\nq4,b,0\nq1,d,\n", ["d", "c", "b", "a"], None,
         True),
        (b"q1,a,0.5\r\nq2,b,0.25\r\n\r\n", b"q3,c,1\r\nq1,b,\r\nq2,a,0.125", None, None,
         False),
    ], ids=["duplicate-across", "bad-probability", "unknown-forecaster", "field-count",
            "new-ids", "new-ids-fixed", "crlf"])
    def test_second_range_read_by_a_child(self, split_file, first, second, forecaster_ids,
                                          message, merged):
        """A second range that the kernel declines comes back from the child
        as declined, is not read again here, and sends the file to
        csv.reader; a duplicate across the ranges, or a forecaster the
        caller did not give, is met once the child's range is merged, and
        sends it there too."""
        path, taken, here = split_file(first, second)
        expected = loaded(csv_reference.load_forecast_matrix, path, forecaster_ids)
        if message is not None:
            assert expected == ("DataFormatError", f"{path}{message}")
        assert loaded(load_forecast_matrix, path, forecaster_ids) == expected
        assert (taken, here) == ([1] if merged else [], [0])
        assert no_child_left()

    def test_first_error_in_the_file_wins(self, split_file):
        path, taken, here = split_file(b"q1,a,0.5\nq2,b,7\n", b"q3,a,1\nq1,b,maybe\n")
        expected = ("DataFormatError", f"{path}:3: probability '7' outside [0, 1]")
        assert loaded(csv_reference.load_forecast_matrix, path) == expected
        assert loaded(load_forecast_matrix, path) == expected
        assert (taken, here) == ([], [0])  # the child's range was not needed
        assert no_child_left()

    @pytest.mark.parametrize("second", [b'q3,"a",1\n', b"q3,a,1\rq1,b,0.5\n", b"q3,a\r,1\n"],
                             ids=["quote", "lone-cr", "cr-in-field"])
    def test_text_for_csv_in_the_second_range_sends_the_file_to_csv(
            self, split_file, monkeypatch, second):
        path, taken, here = split_file(b"q1,a,0.5\nq2,b,0.25\n", second)
        quoted = []
        read_quoted = dataio._read_quoted
        monkeypatch.setattr(dataio, "_read_quoted",
                            lambda *args: quoted.append(1) or read_quoted(*args))
        assert loaded(load_forecast_matrix, path) == \
            loaded(csv_reference.load_forecast_matrix, path)
        # the child declines the text, and this process does not read it again
        assert (taken, quoted, here) == ([], [1], [0])
        assert no_child_left()

    def test_undecodable_byte_in_the_second_range(self, split_file):
        path, _, _ = split_file(b"q1,a,0.5\nq2,b,0.25\n", b"q3,a,1\nq1,\xff,0.5\n")
        assert loaded(load_forecast_matrix, path) == (
            "DataFormatError", f"{path}:5: byte 0xff is not UTF-8 (invalid start byte)")
        assert no_child_left()

    @pytest.mark.parametrize("second,plain", [(b"q3,c,1\nq1,b,\n", True),
                                              (b"q3,c,1\nq1,b,7\n", False)],
                             ids=["records", "error"])
    @pytest.mark.parametrize("failure", ["raise", "exit", "no-fork"])
    def test_a_failing_child_leaves_its_range_here(self, split_file, monkeypatch, failure,
                                                   second, plain):
        path, taken, here = split_file(b"q1,a,0.5\nq2,b,0.25\n", second)
        expected = loaded(csv_reference.load_forecast_matrix, path)
        assert loaded(load_forecast_matrix, path) == expected
        pid = os.getpid()
        read_range = dataio._read_range

        def failing(*args):
            if os.getpid() != pid:
                if failure == "exit":
                    os._exit(1)
                raise RuntimeError("the child fails")
            return read_range(*args)

        def failing_fork():
            raise OSError("no process to spare")

        monkeypatch.setattr(dataio, "_read_range", failing)
        if failure == "no-fork":
            monkeypatch.setattr(os, "fork", failing_fork)
        taken.clear()
        here.clear()
        with sigint_unblocked():
            assert loaded(load_forecast_matrix, path) == expected
            assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
        # the child's work, done here by its wait, and merged, unless the
        # kernel declines the range and csv.reader reads the file
        assert (taken, here) == ([1] if plain else [], [0, path.stat().st_size - len(second)])
        assert no_child_left()

    def test_interrupt_ends_the_children(self, monkeypatch, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(GOOD_FORECASTS, encoding="utf-8")
        split_into(monkeypatch, 2)
        here = os.getpid()

        def interrupted(*args):
            if os.getpid() == here:
                raise KeyboardInterrupt
            time.sleep(60)  # a child still at work

        monkeypatch.setattr(dataio, "_read_range", interrupted)
        assert dataio._second_range(path)[0] < len(GOOD_FORECASTS)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            load_forecast_matrix(path)
        assert time.monotonic() - started < 30
        assert no_child_left()

    def test_interrupt_while_waiting_ends_the_child(self, split_file, monkeypatch):
        path, _, _ = split_file(b"q1,a,0.5\nq2,b,0.25\n", b"q3,c,1\nq1,b,\n")
        waitpid = os.waitpid
        waited = []

        def interrupted(pid, options):
            if not waited:
                waited.append(pid)
                raise KeyboardInterrupt
            return waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_forecast_matrix(path)
        assert len(waited) == 1
        assert no_child_left()

    def test_fork_warning_neither_raises_nor_stays(self, monkeypatch, tmp_path):
        """Python 3.12 warns of a fork in a process with threads, after the
        fork; an error there would lose the child's pid."""
        path = tmp_path / "f.csv"
        path.write_text(GOOD_FORECASTS, encoding="utf-8")
        split_into(monkeypatch, 2)
        fork = os.fork
        forks = []

        def warning_fork():
            pid = fork()
            if pid:
                forks.append(pid)
                warnings.warn("multi-threaded fork", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filters = list(warnings.filters)
            assert load_forecast_matrix(path)[:2] == (("q1", "q2", "q3"), ("alice", "bob"))
            assert warnings.filters == filters
        assert len(forks) == 1
        assert no_child_left()

    def test_one_range_while_another_thread_runs(self, monkeypatch, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(GOOD_FORECASTS, encoding="utf-8")
        split_into(monkeypatch, 2)
        assert dataio._second_range(path)[0] < len(GOOD_FORECASTS)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert dataio._second_range(path) == (len(GOOD_FORECASTS),) * 2
        finally:
            release.set()
            thread.join()

    def test_child_blocks_sigint_and_the_mask_is_restored(self, split_file, monkeypatch):
        """A Ctrl-C reaches the child too; it must not unwind into the
        caller's code, so only this process takes it."""
        path, taken, here = split_file(b"q1,a,0.5\nq2,b,0.25\n", b"q3,c,1\nq1,b,\n")
        pid = os.getpid()
        read_range = dataio._read_range

        def checked(*args):
            if os.getpid() != pid and signal.SIGINT not in signal.pthread_sigmask(
                    signal.SIG_BLOCK, []):
                os._exit(1)  # this process would read the range too
            return read_range(*args)

        monkeypatch.setattr(dataio, "_read_range", checked)
        with sigint_unblocked():
            assert loaded(load_forecast_matrix, path) == \
                loaded(csv_reference.load_forecast_matrix, path)
            assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
        assert (taken, here) == ([1], [0])
        assert no_child_left()

    @pytest.mark.parametrize("cpus, maximum, minimum, ranges", [
        (1, 8, 1, 1), (2, 8, 1, 2), (3, 8, 1, 3), (4, 8, 50, 3), (4, 8, 100, 1),
        (8, 8, 25, 7), (8, 8, 30, 6), (8, 2, 1, 2), (8, 3, 30, 3), (1, 2, 1, 1)])
    def test_one_range_per_cpu_maximum_and_minimum(self, monkeypatch, tmp_path, cpus,
                                                   maximum, minimum, ranges):
        """``ranges`` is the fewest of ``cpus``, ``maximum`` and the file's
        size over ``minimum``.  The file splits in two at most, and every
        ``maximum`` here allows two, so two ranges are made where ``ranges``
        is two or more and one where it is one."""
        # a 191-byte file of lines of 7 to 38 bytes
        path = tmp_path / "f.csv"
        path.write_text(GOOD_FORECASTS + "q9," + "z" * 30 + ",0.5\n" + "q8,a,1\n" * 10,
                        encoding="utf-8")
        data = path.read_bytes()
        assert ranges == min(cpus, maximum, len(data) // minimum) and maximum >= 2
        split_into(monkeypatch, cpus)
        monkeypatch.setattr(_forking, "_MIN_RANGE_BYTES", minimum)
        start, end = dataio._second_range(path)
        assert end == len(data)
        if ranges == 1:
            assert start == end
        else:
            # the second starts just after the first line feed at or after the middle
            assert b"\n" not in data[end // 2:start - 1] and data[start - 1:start] == b"\n"
            assert start < end

    @pytest.mark.parametrize("size", ["below", "at"])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_two_ranges_from_two_cpus_and_twice_the_minimum(self, monkeypatch, tmp_path,
                                                            cpus, size):
        # a file of 191 or 192 bytes, of lines of 7 to 39 bytes
        path = tmp_path / "f.csv"
        path.write_text(GOOD_FORECASTS + "q9," + "z" * (30 + (size == "at")) + ",0.5\n"
                        + "q8,a,1\n" * 10, encoding="utf-8")
        data = path.read_bytes()
        split_into(monkeypatch, cpus)
        monkeypatch.setattr(_forking, "_MIN_RANGE_BYTES", 96)
        start, end = dataio._second_range(path)
        assert end == len(data) == 191 + (size == "at")
        if cpus == 1 or size == "below":
            assert start == end
        else:
            # just after the first line feed at or after the middle
            assert b"\n" not in data[end // 2:start - 1] and data[start - 1:start] == b"\n"
            assert start < end

    @pytest.mark.parametrize("ending", ["\n", ""], ids=["line-feed", "none"])
    def test_one_range_when_no_line_feed_ends_a_line_before_the_last(self, monkeypatch,
                                                                     tmp_path, ending):
        path = tmp_path / "f.csv"
        path.write_text(GOOD_FORECASTS + "q9," + "z" * 200 + ",0.5" + ending, encoding="utf-8")
        split_into(monkeypatch, 2)
        assert dataio._second_range(path) == (path.stat().st_size,) * 2
        assert load_forecast_matrix(path)[:2] == (("q1", "q2", "q3", "q9"),
                                                  ("alice", "bob", "z" * 200))

    def test_one_range_without_fork(self, monkeypatch, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(GOOD_FORECASTS, encoding="utf-8")
        split_into(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert dataio._second_range(path) == (len(GOOD_FORECASTS),) * 2
