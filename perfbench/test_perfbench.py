"""Self-tests of the benchmark: every output check accepts a true output
and rejects a corrupted one, and a tiny run of each workload completes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import boost_reference  # noqa: E402
from forecast_ensembles.cli import main as cli_main  # noqa: E402

SEED = 3


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small synthetic table and every output the checks read."""
    d = tmp_path_factory.mktemp("outputs")
    prefix = str(d / "t")
    _cli("synth", "--forecasters", "40", "--questions", "16", "--mode", "type2",
         "--coverage", "0.7", "--seed", str(SEED), "--out-prefix", prefix)
    data = ["--forecasts", f"{prefix}.forecasts.csv", "--outcomes", f"{prefix}.outcomes.csv"]
    found = {"table": checks.Table(prefix)}
    recorder = worker.PickRecorder()
    recorder.install()
    for method in ("bagging", "realboost", "adaboost"):
        recorder.op = f"loo-{method}"
        _cli("loo", "--method", method, *data, "--seed", str(SEED),
             "--report-out", str(d / f"loo-{method}.json"))
        recorder.op = None
        found[f"loo-{method}"] = json.loads((d / f"loo-{method}.json").read_text())
    found["folds"] = recorder.as_json()
    for method in ("realboost", "adaboost"):
        _cli("combine", "--method", method, *data, "--seed", str(SEED),
             "--model-out", str(d / f"model-{method}.json"))
        _cli("predict", "--model", str(d / f"model-{method}.json"), *data,
             "--report-out", str(d / f"predict-{method}.json"))
        found[f"model-{method}"] = json.loads((d / f"model-{method}.json").read_text())
        found[f"predict-{method}"] = json.loads((d / f"predict-{method}.json").read_text())
    found["score"] = _cli("score", *data)
    return found


def _decisive(rows, key):
    """Index of the row farthest from the decision boundary."""
    return max(range(len(rows)), key=lambda j: abs(rows[j][key] - (0.5 if key == "probability"
                                                                    else 0.0)))


@pytest.mark.parametrize("method", ["bagging", "realboost", "adaboost"])
def test_loo_check_rejects_a_flipped_label(outputs, method):
    table, report = outputs["table"], outputs[f"loo-{method}"]
    assert checks.check_loo(report, table, method) == []
    if method != "bagging":
        assert checks.check_loo_reference(report, table, method, SEED, [0, 7],
                                          outputs["folds"][f"loo-{method}"],
                                          boost_reference) == []
    bad = json.loads(json.dumps(report))
    row = bad["per_question"][_decisive(bad["per_question"], "probability")]
    row["predicted"] = -row["predicted"]
    assert checks.check_loo(bad, table, method)


@pytest.mark.parametrize("method", ["realboost", "adaboost"])
def test_loo_reference_rejects_a_shifted_probability(outputs, method):
    table, report = outputs["table"], outputs[f"loo-{method}"]
    bad = json.loads(json.dumps(report))
    bad["per_question"][7]["probability"] += 1e-6
    models = outputs["folds"][f"loo-{method}"]
    assert checks.check_loo_reference(bad, table, method, SEED, [7], models, boost_reference)


@pytest.mark.parametrize("method", ["realboost", "adaboost"])
def test_loo_reference_rejects_a_swapped_pick_in_a_fold(outputs, method):
    table, report = outputs["table"], outputs[f"loo-{method}"]
    models = json.loads(json.dumps(outputs["folds"][f"loo-{method}"]))
    indices = models[7][0]
    k = next(r for r in range(1, len(indices)) if indices[r] != indices[0])
    indices[0], indices[k] = indices[k], indices[0]
    problems = checks.check_loo_reference(report, table, method, SEED, [7], models,
                                          boost_reference)
    assert problems and all("fold 7 round 1 " in p for p in problems)


@pytest.mark.parametrize("method", ["realboost", "adaboost"])
def test_predict_check_rejects_a_flipped_label_and_a_shifted_margin(outputs, method):
    table, model, report = outputs["table"], outputs[f"model-{method}"], \
        outputs[f"predict-{method}"]
    assert checks.check_predict(report, model, table) == []
    j = _decisive(report["per_question"], "margin")
    flipped = json.loads(json.dumps(report))
    flipped["per_question"][j]["predicted"] *= -1
    assert checks.check_predict(flipped, model, table)
    shifted = json.loads(json.dumps(report))
    shifted["per_question"][j]["margin"] += 1e-6
    assert checks.check_predict(shifted, model, table)


@pytest.mark.parametrize("method", ["realboost", "adaboost"])
def test_model_check_rejects_a_swapped_pick(outputs, method):
    table, model = outputs["table"], outputs[f"model-{method}"]
    assert checks.check_model(model, table, method, SEED) == []
    bad = json.loads(json.dumps(model))
    rounds = bad["rounds"]
    k = next(r for r in range(1, len(rounds)) if rounds[r][0] != rounds[0][0])
    rounds[0][0], rounds[k][0] = rounds[k][0], rounds[0][0]
    assert checks.check_model(bad, table, method, SEED)


def test_score_check_rejects_a_positive_calibration(outputs):
    table, stdout = outputs["table"], outputs["score"]
    sample = set(range(len(table.forecaster_ids)))
    assert checks.check_score(stdout, table, sample) == []
    lines = stdout.splitlines()
    i = next(i for i, line in enumerate(lines[1:], start=1) if line.split()[2] != "-")
    name, count, total, calibration, refinement = lines[i].split()
    # Keep Total = Calibration + Refinement, so that only the sign is wrong.
    lines[i] = (f"{name:<16}{count:>6}{float(refinement) + 0.01:>12.4f}"
                f"{0.01:>13.4f}{float(refinement):>12.4f}")
    problems = checks.check_score("\n".join(lines) + "\n", table, set())
    assert problems and all("positive" in p for p in problems)


@pytest.mark.parametrize("rc, problems, verdict", [
    (2, [], (True, True)),  # today's rejection: failed, and known
    (1, [], (False, False)),  # the boundary fixed
    (0, [], (True, False)),
    (2, ["misuse: wrote a model"], (True, False)),
    ("exception: Traceback", [], (True, False)),
])
def test_only_the_known_misuse_outcome_keeps_a_run_correct(rc, problems, verdict):
    plan = workloads.plan("panel-pipeline", 1, tiny=True)
    calls = [{"op": "misuse", "rc": rc, "digest": "d"}]
    assert run.verdicts(plan, calls, {"misuse": problems}) == [verdict]


def test_scale_takes_the_yardstick_runs_near_the_call(tmp_path):
    runner = worker.Runner(None, workloads.plan("paper-loo", 1, tiny=True), tmp_path)
    fast, slow = worker.YARDSTICK_S, 2 * worker.YARDSTICK_S
    runner.readings = [(0.0, fast), (0.1, fast), (9.0, slow), (9.1, slow), (20.0, slow)]
    # a short call: the runs just before and after it
    assert runner.scale(0.01, 0.1) == 1.0
    assert runner.scale(9.01, 9.1) == 0.5
    # a long call: the runs up to twice its duration away, here all five
    assert runner.scale(0.1, 9.0) == 0.5


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_completes(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    misuse = sum(op.kind == "misuse" for op in workloads.plan(workload, 1).schedule())
    rounds = result["attempted"] // len(workloads.plan(workload, 1).schedule())
    assert result["failed"] == misuse * rounds
    expected = run.metrics(trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(m["value"] > 0 for m in result["metrics"].values()) or trace
