import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import predict_column
from forecast_ensembles import (
    SyntheticSpec,
    generate_synthetic,
    load_eval_report,
    load_model,
    load_table,
    write_table,
)
from forecast_ensembles import cli, combiners, dataio
from forecast_ensembles.cli import main
from forecast_ensembles.scoring import MAX_BINS

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def table_files(tmp_path):
    table = generate_synthetic(SyntheticSpec(forecasters=6, questions=12,
                                             coverage=0.8, seed=30))
    fpath = tmp_path / "forecasts.csv"
    opath = tmp_path / "outcomes.csv"
    write_table(table, fpath, opath)
    return table, str(fpath), str(opath)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["loo", "--methodd", "bagging"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_zero_iterations_is_usage_error(self, table_files, tmp_path, capsys):
        _, fpath, opath = table_files
        code = main(["loo", "--method", "realboost", "--forecasts", fpath,
                     "--outcomes", opath, "--iterations", "0",
                     "--report-out", str(tmp_path / "r.json")])
        assert code == 1
        assert "--iterations" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["loo", "--method", "bagging",
                     "--forecasts", str(tmp_path / "none.csv"),
                     "--outcomes", str(tmp_path / "none2.csv"),
                     "--report-out", str(tmp_path / "r.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command,out_flag", [("combine", "--model-out"),
                                                  ("loo", "--report-out")])
    @pytest.mark.parametrize("flag,value", [
        *(pytest.param("--seed", seed, id=seed) for seed in ["-1", str(2**64), "seven"]),
        pytest.param("--iterations", "0", id="iterations-0"),
        pytest.param("--iterations", "-3", id="iterations--3"),
    ])
    def test_bad_seed_is_usage_error_before_any_file_is_read(self, tmp_path, capsys,
                                                             command, out_flag, flag, value):
        out = tmp_path / "out.json"
        code = main([command, "--method", "adaboost",
                     "--forecasts", str(tmp_path / "none.csv"),
                     "--outcomes", str(tmp_path / "none2.csv"),
                     flag, value, out_flag, str(out)])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_is_accepted(self, table_files, tmp_path, capsys):
        _, fpath, opath = table_files
        assert main(["combine", "--method", "adaboost", "--forecasts", fpath,
                     "--outcomes", opath, "--iterations", "2", "--seed", str(2**64 - 1),
                     "--model-out", str(tmp_path / "m.json")]) == 0
        assert load_model(tmp_path / "m.json").seed == 2**64 - 1

    def test_malformed_probability_is_data_error(self, tmp_path, capsys):
        fpath = tmp_path / "f.csv"
        opath = tmp_path / "o.csv"
        fpath.write_text("question_id,forecaster_id,probability\nq1,a,2.5\n")
        opath.write_text("question_id,outcome\nq1,+1\n")
        code = main(["score", "--forecasts", str(fpath), "--outcomes", str(opath)])
        assert code == 2
        assert "2.5" in capsys.readouterr().err

    def test_field_over_csv_limit_is_data_error(self, tmp_path, capsys):
        fpath = tmp_path / "f.csv"
        opath = tmp_path / "o.csv"
        fpath.write_text("question_id,forecaster_id,probability\nq1,a,0.5\n"
                         "q1," + "b" * 200_000 + ",0.5\n")
        opath.write_text("question_id,outcome\nq1,+1\n")
        code = main(["score", "--forecasts", str(fpath), "--outcomes", str(opath)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {fpath}:3: field larger than field limit (131072)\n"


class TestSynth:
    def test_byte_identical_across_runs(self, tmp_path, capsys):
        args = ["synth", "--forecasters", "3", "--questions", "4", "--mode", "type2",
                "--seed", "1"]
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert main(args + ["--out-prefix", str(first)]) == 0
        assert main(args + ["--out-prefix", str(second)]) == 0
        capsys.readouterr()
        for suffix in (".forecasts.csv", ".outcomes.csv"):
            assert Path(str(first) + suffix).read_bytes() == \
                Path(str(second) + suffix).read_bytes()

    def test_output_loads_back(self, tmp_path, capsys):
        prefix = tmp_path / "syn"
        assert main(["synth", "--forecasters", "5", "--questions", "9",
                     "--mode", "type1", "--coverage", "0.6", "--seed", "7",
                     "--out-prefix", str(prefix)]) == 0
        capsys.readouterr()
        table = load_table(str(prefix) + ".forecasts.csv",
                           str(prefix) + ".outcomes.csv")
        assert table.n_questions == 9
        assert table.n_forecasters == 5

    def test_bad_coverage_is_usage_error(self, tmp_path, capsys):
        # a noise whose square overflows is as bad as an infinite one, and
        # a positive one whose square underflows to 0 as bad as a negative one
        for flag, value in [("--coverage", "0"), ("--noise", "inf"), ("--noise", "nan"),
                            ("--noise", "1e160"), ("--noise", "1e308"),
                            ("--noise", "1e-200")]:
            assert main(["synth", "--forecasters", "2", "--questions", "2",
                         "--mode", "type2", flag, value,
                         "--out-prefix", str(tmp_path / "x")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_mode_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--forecasters", "2", "--questions", "2",
                     "--out-prefix", str(tmp_path / "x")]) == 1
        assert "--mode" in capsys.readouterr().err


class TestCombinePredict:
    @pytest.mark.parametrize("method,iterations", [
        ("bagging", []),
        ("adaboost", ["--iterations", "10"]),
        ("realboost", ["--iterations", "10"]),
    ])
    def test_round_trip_matches_in_process_prediction(self, table_files, tmp_path,
                                                      capsys, method, iterations):
        table, fpath, opath = table_files
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "pred.json"
        assert main(["combine", "--method", method, "--forecasts", fpath,
                     "--outcomes", opath, "--seed", "3",
                     "--model-out", str(model_path)] + iterations) == 0
        assert main(["predict", "--model", str(model_path), "--forecasts", fpath,
                     "--outcomes", opath, "--report-out", str(report_path)]) == 0
        capsys.readouterr()

        model = load_model(model_path)
        record = json.loads(report_path.read_text())
        assert record["schema"] == "prediction_report.v1"
        assert record["questions"] == table.n_questions
        reloaded = load_table(fpath, opath)
        by_id = {entry["question_id"]: entry for entry in record["per_question"]}
        for q, question_id in enumerate(reloaded.question_ids):
            margin, probability = predict_column(model, reloaded.forecasts[:, q])
            assert by_id[question_id]["margin"] == margin
            assert by_id[question_id]["probability"] == probability

    def test_zero_weight_model_reports_positive_zero_margin(self, tmp_path, capsys):
        # nobody beats chance: one round of weight 0.0, whose term on a
        # forecast below 0.5 is 0.0 * -1.0 = -0.0
        fpath, opath = tmp_path / "f.csv", tmp_path / "o.csv"
        fpath.write_text("question_id,forecaster_id,probability\na,x,0.9\nb,x,0.9\n")
        opath.write_text("question_id,outcome\na,-1\nb,-1\n")
        other = tmp_path / "g.csv"
        other.write_text("question_id,forecaster_id,probability\nc,x,0.1\n")
        model_path, report_path = tmp_path / "model.json", tmp_path / "pred.json"
        assert main(["combine", "--method", "adaboost", "--forecasts", str(fpath),
                     "--outcomes", str(opath), "--model-out", str(model_path)]) == 0
        assert main(["predict", "--model", str(model_path), "--forecasts", str(other),
                     "--report-out", str(report_path)]) == 0
        capsys.readouterr()
        [entry] = json.loads(report_path.read_text())["per_question"]
        assert entry["margin"] == 0.0 and math.copysign(1.0, entry["margin"]) == 1.0

    def test_reports_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # OpenBLAS picks its dot-product kernel by CPU; Prescott runs on
        # every x86-64 CPU, and other builds ignore the variable
        def run(*args, coretype=None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            subprocess.run([sys.executable, "-m", "forecast_ensembles.cli", *args],
                           env=env, check=True, capture_output=True)

        prefix = tmp_path / "paper"
        run("synth", "--forecasters", "338", "--questions", "88", "--mode", "type2",
            "--coverage", "0.5", "--seed", "0", "--out-prefix", str(prefix))
        data = ["--forecasts", f"{prefix}.forecasts.csv", "--outcomes", f"{prefix}.outcomes.csv"]
        run("combine", "--method", "adaboost", *data, "--iterations", "20",
            "--model-out", str(tmp_path / "model.json"))
        reports = {}
        for coretype in (None, "Prescott"):
            predict, loo = tmp_path / f"predict-{coretype}.json", tmp_path / f"loo-{coretype}.json"
            run("predict", "--model", str(tmp_path / "model.json"), *data,
                "--report-out", str(predict), coretype=coretype)
            run("loo", "--method", "adaboost", "--iterations", "20", *data,
                "--report-out", str(loo), coretype=coretype)
            reports[coretype] = predict.read_bytes(), loo.read_bytes()
        assert reports[None] == reports["Prescott"]

    def test_predict_without_outcomes(self, table_files, tmp_path, capsys):
        _, fpath, opath = table_files
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "pred.json"
        assert main(["combine", "--method", "bagging", "--forecasts", fpath,
                     "--outcomes", opath, "--model-out", str(model_path)]) == 0
        assert main(["predict", "--model", str(model_path), "--forecasts", fpath,
                     "--report-out", str(report_path)]) == 0
        capsys.readouterr()
        record = json.loads(report_path.read_text())
        assert "prediction_errors" not in record
        assert all("actual" not in entry for entry in record["per_question"])

    def test_predict_rejects_unknown_forecaster(self, table_files, tmp_path, capsys):
        _, fpath, opath = table_files
        model_path = tmp_path / "model.json"
        assert main(["combine", "--method", "bagging", "--forecasts", fpath,
                     "--outcomes", opath, "--model-out", str(model_path)]) == 0
        stranger = tmp_path / "other.csv"
        stranger.write_text("question_id,forecaster_id,probability\nq1,zzz,0.5\n")
        code = main(["predict", "--model", str(model_path),
                     "--forecasts", str(stranger),
                     "--report-out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"{stranger}:2: forecaster 'zzz'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"link": {"name": "linear", "clip": 1e-6}},
        {"imputation": {"mode": "random", "seed": 0}},
        {"link": {"name": "linear", "clip": 1e-6}, "imputation": {"mode": "random", "seed": 0}},
        {"link": {"name": "exponential", "clip": 0.4}},
    ], ids=["link", "imputation", "both", "clip"])
    def test_predict_rejects_model_with_foreign_link_or_imputation(self, table_files, tmp_path,
                                                                   capsys, edit):
        _, fpath, opath = table_files
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "pred.json"
        assert main(["combine", "--method", "realboost", "--forecasts", fpath,
                     "--outcomes", opath, "--iterations", "5",
                     "--model-out", str(model_path)]) == 0
        capsys.readouterr()
        record = json.loads(model_path.read_text())
        record.update(edit)
        model_path.write_text(json.dumps(record))
        code = main(["predict", "--model", str(model_path), "--forecasts", fpath,
                     "--report-out", str(report_path)])
        assert code == 2
        assert f"{model_path}: malformed model record" in capsys.readouterr().err
        assert not report_path.exists()

    def test_predict_rejects_a_v2_model(self, table_files, tmp_path, capsys):
        _, fpath, opath = table_files
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "pred.json"
        assert main(["combine", "--method", "adaboost", "--forecasts", fpath,
                     "--outcomes", opath, "--iterations", "5", "--seed", "7",
                     "--model-out", str(model_path)]) == 0
        capsys.readouterr()
        record = json.loads(model_path.read_text())
        # the record the ensemble_model.v2 writer made of the same model
        v2 = {"schema": "ensemble_model.v2", "method": "adaboost",
              "link": {"name": "exponential", "clip": 1e-06},
              "imputation": {"mode": "random", "seed": 7},
              "forecaster_ids": record["forecaster_ids"], "rounds": record["rounds"]}
        model_path.write_text(json.dumps(v2, separators=(",", ":")) + "\n")
        code = main(["predict", "--model", str(model_path), "--forecasts", fpath,
                     "--report-out", str(report_path)])
        assert code == 2
        assert "expected schema 'ensemble_model.v4'" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("method", ["bagging", "adaboost", "realboost"])
    def test_predict_rejects_a_v3_model(self, table_files, tmp_path, capsys, method):
        _, fpath, opath = table_files
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "pred.json"
        assert main(["combine", "--method", method, "--forecasts", fpath, "--outcomes", opath,
                     "--iterations", "5", "--model-out", str(model_path)]) == 0
        capsys.readouterr()
        record = json.loads(model_path.read_text())
        # the record the ensemble_model.v3 writer made of the same model:
        # every field for every method, bagging's rounds each forecaster at 1/N
        n = len(record["forecaster_ids"])
        v3 = {"schema": "ensemble_model.v3", "method": method,
              "imputation": record.get("imputation", {"seed": 0}),
              "forecaster_ids": record["forecaster_ids"],
              "rounds": record.get("rounds", [[j, 1.0 / n] for j in range(n)])}
        model_path.write_text(json.dumps(v3, separators=(",", ":")) + "\n")
        code = main(["predict", "--model", str(model_path), "--forecasts", fpath,
                     "--report-out", str(report_path)])
        assert code == 2
        assert "expected schema 'ensemble_model.v4', got 'ensemble_model.v3'" in \
            capsys.readouterr().err
        assert not report_path.exists()

    def test_predict_rejects_model_with_duplicate_forecaster_ids(self, table_files, tmp_path,
                                                                 capsys):
        _, fpath, opath = table_files
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "pred.json"
        assert main(["combine", "--method", "realboost", "--forecasts", fpath,
                     "--outcomes", opath, "--iterations", "5",
                     "--model-out", str(model_path)]) == 0
        capsys.readouterr()
        record = json.loads(model_path.read_text())
        record["forecaster_ids"] = [record["forecaster_ids"][0]] * len(record["forecaster_ids"])
        model_path.write_text(json.dumps(record))
        code = main(["predict", "--model", str(model_path), "--forecasts", fpath,
                     "--report-out", str(report_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{model_path}: malformed model record" in err
        assert "duplicate-free" in err
        assert not report_path.exists()

    def _bagging_model(self, tmp_path):
        fpath = tmp_path / "f.csv"
        opath = tmp_path / "o.csv"
        fpath.write_text("question_id,forecaster_id,probability\n"
                         "q3,a,0.8\nq1,a,0.3\nq1,b,0.4\nq2,b,0.9\n")
        opath.write_text("question_id,outcome\nq1,-1\nq2,+1\nq3,+1\n")
        model_path = tmp_path / "model.json"
        assert main(["combine", "--method", "bagging", "--forecasts", str(fpath),
                     "--outcomes", str(opath), "--model-out", str(model_path)]) == 0
        return fpath, opath, model_path

    def test_report_follows_forecasts_file_order(self, tmp_path, capsys):
        fpath, opath, model_path = self._bagging_model(tmp_path)
        report_path = tmp_path / "pred.json"
        assert main(["predict", "--model", str(model_path), "--forecasts", str(fpath),
                     "--outcomes", str(opath), "--report-out", str(report_path)]) == 0
        record = json.loads(report_path.read_text())
        assert [(e["question_id"], e["actual"]) for e in record["per_question"]] == \
            [("q3", 1), ("q1", -1), ("q2", 1)]

    def test_question_without_outcome_row_is_data_error(self, tmp_path, capsys):
        fpath, _, model_path = self._bagging_model(tmp_path)
        partial = tmp_path / "partial.csv"
        partial.write_text("question_id,outcome\nq1,-1\nq3,+1\n")
        code = main(["predict", "--model", str(model_path), "--forecasts", str(fpath),
                     "--outcomes", str(partial), "--report-out", str(tmp_path / "r.json")])
        assert code == 2
        assert "question 'q2' has no outcome row" in capsys.readouterr().err

    def test_forecasts_are_parsed_once(self, tmp_path, capsys, monkeypatch):
        fpath, opath, model_path = self._bagging_model(tmp_path)
        calls = []
        original = dataio.load_forecast_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "load_forecast_matrix", counted)
        monkeypatch.setattr(dataio, "load_forecast_matrix", counted)
        assert main(["predict", "--model", str(model_path), "--forecasts", str(fpath),
                     "--outcomes", str(opath),
                     "--report-out", str(tmp_path / "pred.json")]) == 0
        assert len(calls) == 1


class TestLoo:
    def test_golden_realboost_report(self, tmp_path, capsys):
        table = generate_synthetic(SyntheticSpec(forecasters=12, questions=25,
                                                 noise=1.0, coverage=0.7, seed=123))
        fpath = tmp_path / "f.csv"
        opath = tmp_path / "o.csv"
        write_table(table, fpath, opath)
        report_path = tmp_path / "loo.json"
        assert main(["loo", "--method", "realboost", "--forecasts", str(fpath),
                     "--outcomes", str(opath), "--iterations", "15",
                     "--report-out", str(report_path)]) == 0
        out = capsys.readouterr().out
        golden = load_eval_report(DATA_DIR / "golden_loo_realboost.json")
        produced = load_eval_report(report_path)
        assert produced == golden
        assert "realboost" in out
        assert str(golden.prediction_errors) in out

    def test_golden_adaboost_report(self, tmp_path, capsys):
        # the realboost test's table; 40 rounds over 12 forecasters make
        # every fold pick some forecaster again, so a repeated pick's
        # reweighting is pinned too
        table = generate_synthetic(SyntheticSpec(forecasters=12, questions=25,
                                                 noise=1.0, coverage=0.7, seed=123))
        fpath = tmp_path / "f.csv"
        opath = tmp_path / "o.csv"
        write_table(table, fpath, opath)
        report_path = tmp_path / "loo.json"
        assert main(["loo", "--method", "adaboost", "--forecasts", str(fpath),
                     "--outcomes", str(opath), "--iterations", "40",
                     "--report-out", str(report_path)]) == 0
        out = capsys.readouterr().out
        golden = load_eval_report(DATA_DIR / "golden_loo_adaboost.json")
        assert load_eval_report(report_path) == golden
        assert "adaboost" in out
        assert str(golden.prediction_errors) in out

    def test_summary_includes_baseline_row(self, table_files, tmp_path, capsys):
        _, fpath, opath = table_files
        assert main(["loo", "--method", "bagging", "--forecasts", fpath,
                     "--outcomes", opath,
                     "--report-out", str(tmp_path / "r.json")]) == 0
        out = capsys.readouterr().out
        assert "best_individual" in out
        assert "bagging" in out


def _exact(value):
    """``value`` with dict key order kept and every leaf tagged by its type,
    floats by their hex digits, so equal results mean the same JSON."""
    if isinstance(value, dict):
        return [(key, _exact(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, value


class TestJsonArtifacts:
    def test_one_compact_line_that_parses_back(self, table_files, tmp_path, capsys,
                                               monkeypatch):
        written = []
        write = dataio._write_record

        def recorded(record, path):
            written.append(record)
            write(record, path)

        monkeypatch.setattr(dataio, "_write_record", recorded)
        monkeypatch.setattr(cli, "_write_record", recorded)
        _, fpath, opath = table_files
        data = ["--forecasts", fpath, "--outcomes", opath]
        model, loo, predictions = (tmp_path / name for name in ("m.json", "l.json", "p.json"))
        assert main(["combine", "--method", "adaboost", "--iterations", "10", *data,
                     "--model-out", str(model)]) == 0
        assert main(["loo", "--method", "realboost", "--iterations", "5", *data,
                     "--report-out", str(loo)]) == 0
        assert main(["predict", "--model", str(model), *data,
                     "--report-out", str(predictions)]) == 0
        capsys.readouterr()
        assert len(written) == 3
        for path, record in zip((model, loo, predictions), written):
            text = path.read_text(encoding="utf-8")
            assert text.endswith("\n") and text.count("\n") == 1
            assert _exact(json.loads(text)) == _exact(record)

        # files written with indent=2 by earlier versions still load
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(model.read_text()), indent=2) + "\n")
        assert load_model(indented) == load_model(model)

        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                dataio._write_record({"schema": "x", "value": [1.0, bad]}, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        # only synth needs scipy, and generate_synthetic imports it
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", "import sys, forecast_ensembles.cli; "
                               "print('scipy' in sys.modules)"],
                              env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"


class TestMemoryCap:
    """The CLI in a process whose address space is capped at 600 MiB, on
    one BLAS thread so that the space it reserves does not grow with the
    core count."""

    CAP = 600 << 20

    def run(self, tmp_path, *args):
        resource = pytest.importorskip("resource")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "forecast_ensembles.cli", *args], cwd=tmp_path, env=env,
            capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (self.CAP, self.CAP)))

    def test_out_of_memory_is_a_one_line_error(self, tmp_path):
        done = self.run(tmp_path, "synth", "--forecasters", "1000000", "--questions", "1000000",
                        "--mode", "type2", "--out-prefix", "huge")
        assert done.returncode == 2
        assert done.stderr.startswith("error: out of memory") and "Traceback" not in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_score_at_the_most_bins_keeps_only_per_forecaster_numbers(self, tmp_path):
        # per-bin arrays of all 24 forecasters at 2^20 bins would take
        # about 700 MiB on top of the interpreter
        table = generate_synthetic(SyntheticSpec(forecasters=24, questions=20, seed=0))
        write_table(table, tmp_path / "f.csv", tmp_path / "o.csv")
        done = self.run(tmp_path, "score", "--forecasts", "f.csv", "--outcomes", "o.csv",
                        "--bins", str(MAX_BINS))
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == 1 + table.n_forecasters


class TestTrainerBindings:
    """`combine` and `loo` reach the boosting trainers through the
    `combiners` module's bindings at call time, so rebinding
    ``combiners.adaboost_train`` or ``combiners.realboost_train`` sees every
    model trained, one per leave-one-out fold."""

    @pytest.mark.parametrize("method", ["adaboost", "realboost"])
    def test_one_call_per_model(self, table_files, tmp_path, capsys, monkeypatch, method):
        table, fpath, opath = table_files
        calls = []
        original = getattr(combiners, f"{method}_train")

        def counted(*args, **kwargs):
            calls.append(args[0].n_questions)
            return original(*args, **kwargs)

        monkeypatch.setattr(combiners, f"{method}_train", counted)
        common = ["--method", method, "--forecasts", fpath, "--outcomes", opath,
                  "--iterations", "3"]
        assert main(["combine", *common, "--model-out", str(tmp_path / "m.json")]) == 0
        assert calls == [table.n_questions]
        calls.clear()
        assert main(["loo", *common, "--report-out", str(tmp_path / "r.json")]) == 0
        assert calls == [table.n_questions - 1] * table.n_questions


class TestScore:
    def test_prints_one_row_per_forecaster(self, table_files, capsys):
        table, fpath, opath = table_files
        assert main(["score", "--forecasts", fpath, "--outcomes", opath]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 + table.n_forecasters
        assert out[0].startswith("Forecaster")

    @pytest.mark.parametrize("bins", [10, 3])
    def test_golden_report(self, tmp_path, capsys, bins):
        # a seeded synth table whose forecaster f0026 gave no forecast
        prefix = str(tmp_path / "t")
        assert main(["synth", "--forecasters", "40", "--questions", "8", "--mode", "type2",
                     "--coverage", "0.4", "--seed", "3", "--out-prefix", prefix]) == 0
        capsys.readouterr()
        assert main(["score", "--forecasts", f"{prefix}.forecasts.csv",
                     "--outcomes", f"{prefix}.outcomes.csv", "--bins", str(bins)]) == 0
        golden = (DATA_DIR / f"golden_score_bins{bins}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_bad_bins_is_usage_error(self, tmp_path, capsys):
        # non-existent files: the count is rejected before any file is read;
        # 2**20 is one more than scoring.MAX_BINS
        for bins in ("0", "1000000000000", str(2**20)):
            assert main(["score", "--forecasts", str(tmp_path / "none.csv"),
                         "--outcomes", str(tmp_path / "none2.csv"), "--bins", bins]) == 1
            captured = capsys.readouterr()
            assert "--bins" in captured.err
            assert captured.out == ""

    def test_silent_forecaster_gets_placeholder_row(self, tmp_path, capsys):
        fpath = tmp_path / "f.csv"
        opath = tmp_path / "o.csv"
        fpath.write_text("question_id,forecaster_id,probability\n"
                         "q1,mute,\nq1,bull,0.9\nq2,bull,0.2\n")
        opath.write_text("question_id,outcome\nq1,+1\nq2,-1\n")
        assert main(["score", "--forecasts", str(fpath),
                     "--outcomes", str(opath)]) == 0
        out = capsys.readouterr().out
        mute_row = next(line for line in out.splitlines() if line.startswith("mute"))
        assert "-" in mute_row


class TestLogging:
    def test_unknown_log_level_warns_but_runs(self, table_files, tmp_path,
                                              capsys, monkeypatch):
        _, fpath, opath = table_files
        monkeypatch.setenv("LOG_LEVEL", "chatty")
        assert main(["loo", "--method", "bagging", "--forecasts", fpath,
                     "--outcomes", opath,
                     "--report-out", str(tmp_path / "r.json")]) == 0
        assert "unknown LOG_LEVEL" in capsys.readouterr().err
