"""Acceptance suite: one test per release criterion, each printing a
verdict line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 1 needs an externally supplied forecast extraction (see README)
and is skipped when the GJP_FORECASTS_CSV / GJP_OUTCOMES_CSV environment
variables are unset; criteria 2 through 8 are self-contained.
"""

import math
import os
import time

import numpy as np
import pytest

from boost_reference import adaboost_reference, realboost_reference, training_fill
from conftest import predict_column, random_table
from forecast_ensembles import (
    LinkSpec,
    SyntheticSpec,
    adaboost_train,
    decompose,
    generate_synthetic,
    individual_baseline,
    load_table,
    loo_evaluate,
    matched_scoring_rule,
    realboost_train,
)

DELTA = 1e-6


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {verdict} ({detail})")


class TestCriterion1TableReproduction:
    """Reported leave-one-out errors on the reference forecast extraction."""

    def test_reference_dataset_errors(self):
        forecasts_path = os.environ.get("GJP_FORECASTS_CSV")
        outcomes_path = os.environ.get("GJP_OUTCOMES_CSV")
        if not forecasts_path or not outcomes_path:
            print("[acceptance] criterion 1: SKIP (set GJP_FORECASTS_CSV and "
                  "GJP_OUTCOMES_CSV to a reference extraction to enable)")
            pytest.skip("no reference forecast extraction supplied")
        table = load_table(forecasts_path, outcomes_path)
        _, best, mean = individual_baseline(table)
        bagging = loo_evaluate(table, "bagging")
        adaboost = loo_evaluate(table, "adaboost", 800)
        realboost = loo_evaluate(table, "realboost", 70)
        checks = {
            "questions": table.n_questions == 88,
            "forecasters": table.n_forecasters == 338,
            "best individual": abs(best - 30) <= 2,
            "mean individual": abs(mean - 76.11) <= 2,
            "bagging errors": abs(bagging.prediction_errors - 9) <= 2,
            "adaboost errors": abs(adaboost.prediction_errors - 7) <= 2,
            "realboost errors": abs(realboost.prediction_errors - 6) <= 2,
            "adaboost unique": abs(adaboost.avg_unique_forecasters - 191) <= 0.15 * 191,
            "realboost unique": abs(realboost.avg_unique_forecasters - 26) <= 0.15 * 26,
        }
        detail = ", ".join(f"{name}={'ok' if ok else 'off'}"
                           for name, ok in checks.items())
        report(1, all(checks.values()), detail)
        assert all(checks.values()), detail


class TestCriterion2SavageBound:
    def test_expected_score_maximized_only_by_honesty(self):
        started = time.perf_counter()
        rule = matched_scoring_rule(LinkSpec("exponential"))
        grid = np.arange(1, 100) / 100.0
        expected = rule.expected_score(grid[:, None], grid[None, :])
        honest = np.asarray(rule.honest_score(grid))[:, None]
        gap = honest - expected
        diagonal = np.eye(len(grid), dtype=bool)
        bound_holds = bool(np.min(gap) > -1e-12)
        diagonal_tight = bool(np.max(np.abs(gap[diagonal])) <= 1e-12)
        off_diagonal_strict = bool(np.min(gap[~diagonal]) > 1e-12)
        elapsed = time.perf_counter() - started
        ok = bound_holds and diagonal_tight and off_diagonal_strict and elapsed < 1.0
        report(2, ok, f"min gap {np.min(gap):.3g}, off-diagonal min "
                      f"{np.min(gap[~diagonal]):.3g}, {elapsed * 1000:.0f} ms")
        assert bound_holds and diagonal_tight and off_diagonal_strict
        assert elapsed < 1.0


class TestCriterion3LossReconstruction:
    def test_risk_side_rebuilds_exponential_loss(self):
        started = time.perf_counter()
        link = LinkSpec("exponential")
        margins = np.linspace(-5.0, 5.0, 101)
        rebuilt = np.empty_like(margins)
        for i, margin in enumerate(margins):  # one point at a time, per contract
            q = link.inverse_link(margin)
            rebuilt[i] = link.min_cond_risk(q) + (1 - q) * link.min_cond_risk_deriv(q)
        worst = float(np.max(np.abs(rebuilt - np.exp(-margins))))
        elapsed = time.perf_counter() - started
        ok = worst < 1e-8 and elapsed < 1.0
        report(3, ok, f"max |rebuilt - exp(-v)| = {worst:.3g}, {elapsed * 1000:.0f} ms")
        assert worst < 1e-8
        assert elapsed < 1.0


class TestCriterion4LinkInvariants:
    def test_round_trip_and_antisymmetry(self):
        link = LinkSpec("exponential")
        probs = np.concatenate([
            np.linspace(DELTA, 1 - DELTA, 2001),
            np.geomspace(DELTA, 0.5, 500),
            1 - np.geomspace(DELTA, 0.5, 500),
        ])
        round_trip = float(np.max(np.abs(link.inverse_link(link.link(probs)) - probs)))
        margins = np.linspace(-10.0, 10.0, 4001)
        antisymmetry = float(np.max(np.abs(
            link.inverse_link(margins) + link.inverse_link(-margins) - 1.0)))
        ok = round_trip < 1e-12 and antisymmetry < 1e-12
        report(4, ok, f"round trip {round_trip:.3g}, antisymmetry {antisymmetry:.3g}")
        assert round_trip < 1e-12
        assert antisymmetry < 1e-12


class TestCriterion5OracleEquivalence:
    def test_boosting_matches_brute_force_references(self):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        tables = 0
        for case in range(100):
            n_forecasters = int(rng.integers(1, 6))
            n_questions = int(rng.integers(1, 9))
            iterations = int(rng.integers(1, 6))
            missing = 0.0 if case % 2 == 0 else 0.3
            table = random_table(rng, n_forecasters, n_questions, missing)
            seed = int(rng.integers(10_000))

            ada = adaboost_train(table, iterations, seed)
            dense = training_fill(table.forecasts, seed)
            ref_rounds, ref_margins = adaboost_reference(
                dense.tolist(), table.outcomes.tolist(), iterations)
            assert [j for j, _ in ada.rounds] == [j for j, _ in ref_rounds]
            for (_, alpha), (_, ref_alpha) in zip(ada.rounds, ref_rounds):
                assert abs(alpha - ref_alpha) <= 1e-12
            for q in range(table.n_questions):
                margin, _ = predict_column(ada, dense[:, q])
                assert abs(margin - ref_margins[q]) <= 1e-12

            real = realboost_train(table, iterations)
            half_dense = training_fill(table.forecasts)
            ref_picks, ref_margins = realboost_reference(
                half_dense.tolist(), table.outcomes.tolist(), iterations)
            assert [j for j, _ in real.rounds] == ref_picks
            for q in range(table.n_questions):
                margin, _ = predict_column(real, table.forecasts[:, q])
                assert abs(margin - ref_margins[q]) <= 1e-12
            tables += 1
        elapsed = time.perf_counter() - started
        ok = tables == 100 and elapsed < 10.0
        report(5, ok, f"{tables} tables, exact selections, 1e-12 numerics, "
                      f"{elapsed:.1f} s")
        assert tables == 100
        assert elapsed < 10.0


class TestCriterion6RiskMonotonicityAndDominance:
    def test_realboost_risk_never_rises_and_beats_individuals(self):
        link = LinkSpec("exponential")
        worst_rise = -math.inf
        worst_excess = -math.inf
        for seed in range(20):
            table = generate_synthetic(SyntheticSpec(forecasters=50, questions=200,
                                                     noise=1.0, seed=seed))
            margins = np.asarray(link.link(training_fill(table.forecasts)))
            outcomes = table.outcomes
            individual_risks = np.exp(-outcomes[None, :] * margins).mean(axis=1)
            model = realboost_train(table, 70)
            cumulative = np.zeros(table.n_questions)
            risks = []
            for picked, alpha in model.rounds:
                cumulative += alpha * margins[picked]
                risks.append(float(np.mean(np.exp(-outcomes * cumulative))))
            rises = np.diff(risks)
            worst_rise = max(worst_rise, float(rises.max()) if len(rises) else -math.inf)
            worst_excess = max(worst_excess, risks[-1] - float(individual_risks.min()))
        ok = worst_rise <= 1e-12 and worst_excess <= 1e-12
        report(6, ok, f"max per-round rise {worst_rise:.3g}, max final risk excess "
                      f"over best individual {worst_excess:.3g}, 20 seeds")
        assert worst_rise <= 1e-12
        assert worst_excess <= 1e-12


class TestCriterion7BaggingDominance:
    def test_average_forecast_dominates(self):
        started = time.perf_counter()
        jensen_ok = True
        wins = 0
        for seed in range(20):
            table = generate_synthetic(SyntheticSpec(forecasters=50, questions=200,
                                                     noise=1.0, seed=seed))
            dense = training_fill(table.forecasts)
            y01 = (table.outcomes + 1) / 2
            ensemble_err = (y01 - dense.mean(axis=0)) ** 2
            member_err = ((y01[None, :] - dense) ** 2).mean(axis=0)
            if not np.all(ensemble_err <= member_err + 1e-12):
                jensen_ok = False
            result = loo_evaluate(table, "bagging")
            if result.prediction_errors <= result.best_individual_errors:
                wins += 1
        elapsed = time.perf_counter() - started
        ok = jensen_ok and wins >= 19 and elapsed < 30.0
        report(7, ok, f"per-question dominance on all tables: {jensen_ok}, "
                      f"bagged LOO wins {wins}/20 seeds, {elapsed:.1f} s")
        assert jensen_ok
        assert wins >= 19
        assert elapsed < 30.0


class TestCriterion8ScoreDecomposition:
    def test_split_is_exact_and_calibration_vanishes_when_calibrated(self):
        started = time.perf_counter()
        rule = matched_scoring_rule(LinkSpec("exponential"))
        rng = np.random.default_rng(77)
        additivity_worst = 0.0
        calibration_worst = -math.inf
        cases = [(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1, -1, 1, -1]), 10),
                 (np.array([1.0, 1.0, 0.0]), np.array([1, 1, -1]), 10),
                 (np.array([0.3]), np.array([1]), 1)]
        for _ in range(60):
            size = int(rng.integers(1, 80))
            cases.append((rng.random(size), rng.choice([1, -1], size=size),
                          int(rng.integers(1, 25))))
        for forecasts, outcomes, bins in cases:
            result = decompose(forecasts, outcomes, rule, bins)
            additivity_worst = max(
                additivity_worst,
                abs(result.total - (result.calibration + result.refinement)))
            calibration_worst = max(calibration_worst, result.calibration)

        table = generate_synthetic(SyntheticSpec(forecasters=1, questions=100_000,
                                                 noise=1.0, coverage=1.0, seed=42))
        calibrated = decompose(table.forecasts[0], table.outcomes, rule, 10)
        elapsed = time.perf_counter() - started
        ok = (additivity_worst < 1e-10 and calibration_worst <= 1e-12
              and abs(calibrated.calibration) < 0.02 and elapsed < 5.0)
        report(8, ok, f"additivity gap {additivity_worst:.3g}, max calibration "
                      f"{calibration_worst:.3g}, calibrated-sample calibration "
                      f"{calibrated.calibration:.3g}, {elapsed:.2f} s")
        assert additivity_worst < 1e-10
        assert calibration_worst <= 1e-12
        assert abs(calibrated.calibration) < 0.02
        assert elapsed < 5.0
