import dataclasses
import math

import numpy as np
import pytest

from boost_reference import training_fill
from conftest import predict_column, random_table
from forecast_ensembles import (
    EvalReport,
    ForecastTable,
    SyntheticSpec,
    bag,
    classify,
    generate_synthetic,
    individual_baseline,
    loo_evaluate,
)


class TestIndividualBaseline:
    def test_silent_forecaster_errs_everywhere(self):
        # the worst possible score on an 88-question table is 88
        questions = 88
        forecasts = np.vstack([
            np.full(questions, np.nan),
            np.full(questions, 0.9),
        ])
        table = ForecastTable(tuple(f"q{j}" for j in range(questions)), ("mute", "bull"),
                              forecasts, np.ones(questions, dtype=int))
        errors, best, mean = individual_baseline(table)
        assert errors[0] == 88
        assert errors[1] == 0
        assert best == 0 and mean == 44.0

    def test_decisive_correct_forecaster_has_no_errors(self):
        outcomes = np.array([1, -1, 1, -1, -1])
        forecasts = np.where(outcomes == 1, 0.9, 0.1).reshape(1, -1)
        table = ForecastTable(tuple("abcde"), ("x",), forecasts, outcomes)
        errors, best, mean = individual_baseline(table)
        assert errors[0] == 0 and best == 0 and mean == 0.0

    def test_exact_half_forecast_counts_against_positive(self):
        table = ForecastTable(("a",), ("x",), np.array([[0.5]]), np.array([1]))
        errors, _, _ = individual_baseline(table)
        assert errors[0] == 1
        table = ForecastTable(("a",), ("x",), np.array([[0.5]]), np.array([-1]))
        errors, _, _ = individual_baseline(table)
        assert errors[0] == 0

    @pytest.mark.parametrize("n_forecasters, n_questions", [(0, 3), (2, 0)])
    def test_rejects_an_empty_table(self, n_forecasters, n_questions):
        table = random_table(np.random.default_rng(0), n_forecasters, n_questions)
        with pytest.raises(ValueError, match="cannot evaluate an empty table"):
            individual_baseline(table)

    def test_mean_at_least_best(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            table = random_table(rng, 5, 9, missing=0.4)
            errors, best, mean = individual_baseline(table)
            assert 0 <= best <= mean <= table.n_questions
            assert errors.min() == best


class TestLeaveOneOut:
    def test_bagging_zero_errors_when_mean_is_right(self):
        forecasts = np.array([[0.9, 0.1, 0.8], [0.7, 0.3, 0.6]])
        table = ForecastTable(("a", "b", "c"), ("x", "y"), forecasts,
                              np.array([1, -1, 1]))
        report = loo_evaluate(table, "bagging")
        assert report.prediction_errors == 0
        assert report.avg_unique_forecasters == 2.0

    def test_bagging_matches_direct_prediction(self, toy_table):
        report = loo_evaluate(toy_table, "bagging")
        model = bag(toy_table)
        for q, entry in enumerate(report.per_question):
            margin, probability = predict_column(model, toy_table.forecasts[:, q])
            assert entry.probability == probability
            assert entry.predicted == classify(margin)

    @pytest.mark.parametrize("method", ["adaboost", "realboost"])
    def test_fold_model_ignores_held_out_outcome(self, toy_table, method):
        # flipping question q's outcome must not move fold q's prediction
        flipped_outcomes = toy_table.outcomes.copy()
        flipped_outcomes[2] = -flipped_outcomes[2]
        flipped = ForecastTable(toy_table.question_ids, toy_table.forecaster_ids,
                                toy_table.forecasts, flipped_outcomes)
        original = loo_evaluate(toy_table, method, 4, seed=13)
        mutated = loo_evaluate(flipped, method, 4, seed=13)
        assert original.per_question[2].probability == mutated.per_question[2].probability
        assert original.per_question[2].predicted == mutated.per_question[2].predicted

    def test_training_fold_excludes_question(self, toy_table):
        trimmed = toy_table.without_question(2)
        assert "c" not in trimmed.question_ids
        assert trimmed.n_questions == toy_table.n_questions - 1

    def test_fold_training_table_is_outcome_blind_for_held_out_question(self, toy_table):
        from forecast_ensembles import adaboost_train, realboost_train
        flipped_outcomes = toy_table.outcomes.copy()
        flipped_outcomes[2] = -flipped_outcomes[2]
        flipped = ForecastTable(toy_table.question_ids, toy_table.forecaster_ids,
                                toy_table.forecasts, flipped_outcomes)
        fold_seed = 13 ^ 2  # the fold-local seed loo_evaluate derives
        assert adaboost_train(toy_table.without_question(2), 4, fold_seed) == \
            adaboost_train(flipped.without_question(2), 4, fold_seed)
        assert realboost_train(toy_table.without_question(2), 4) == \
            realboost_train(flipped.without_question(2), 4)

    def test_boosting_needs_two_questions(self):
        table = ForecastTable(("a",), ("x",), np.array([[0.9]]), np.array([1]))
        with pytest.raises(ValueError, match="two questions"):
            loo_evaluate(table, "realboost", 3)
        assert loo_evaluate(table, "bagging").questions == 1

    def test_unknown_method_rejected(self, toy_table):
        with pytest.raises(ValueError, match="unknown method"):
            loo_evaluate(toy_table, "stacking")

    def test_report_invariants(self, toy_table):
        report = loo_evaluate(toy_table, "realboost", 3)
        assert 0 <= report.prediction_errors <= report.questions
        assert len(report.per_question) == report.questions
        assert report.best_individual_errors <= report.mean_individual_errors

    def test_report_validation(self):
        with pytest.raises(ValueError):
            EvalReport("bagging", 1.0, (), 1, 0.0)  # a best count above 0 questions

    @pytest.mark.parametrize("unique", [math.inf, math.nan, -5.0, 0.0, 0.5])
    def test_report_rejects_an_impossible_unique_count(self, toy_table, unique):
        report = loo_evaluate(toy_table, "realboost", 3)
        with pytest.raises(ValueError, match="unique forecasters must be finite and at least 1"):
            dataclasses.replace(report, avg_unique_forecasters=unique)

    def test_report_rejects_a_nan_probability(self, toy_table):
        report = loo_evaluate(toy_table, "realboost", 3)
        rows = (report.per_question[0]._replace(probability=math.nan),) + report.per_question[1:]
        with pytest.raises(ValueError, match="probabilities must lie in"):
            dataclasses.replace(report, per_question=rows)


class TestSyntheticGenerator:
    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(forecasters=10, questions=100, coverage=0.5, seed=4)
        assert generate_synthetic(spec) == generate_synthetic(spec)
        other = SyntheticSpec(forecasters=10, questions=100, coverage=0.5, seed=5)
        assert generate_synthetic(spec) != generate_synthetic(other)

    def test_zero_noise_full_coverage_identical_and_definite(self):
        spec = SyntheticSpec(forecasters=4, questions=30, noise=0.0, coverage=1.0, seed=9)
        table = generate_synthetic(spec)
        for i in range(1, 4):
            np.testing.assert_array_equal(table.forecasts[0], table.forecasts[i])
        assert set(np.unique(table.forecasts)) <= {0.0, 1.0}
        predicted = np.where(table.forecasts[0] > 0.5, 1, -1)
        np.testing.assert_array_equal(predicted, table.outcomes)

    def test_coverage_controls_missingness(self):
        spec = SyntheticSpec(forecasters=20, questions=200, coverage=0.25, seed=2)
        table = generate_synthetic(spec)
        fraction = table.answered.mean()
        assert 0.2 < fraction < 0.3

    def test_uninformed_last_member_reports_half(self):
        table = generate_synthetic(SyntheticSpec(forecasters=5, questions=40, seed=1))
        last = table.forecasts[-1]
        assert np.all(np.isnan(last) | (last == 0.5))
        informed = table.forecasts[0][table.answered[0]]
        assert np.any(informed != 0.5)

    def test_single_forecaster_population_is_informative(self):
        table = generate_synthetic(SyntheticSpec(forecasters=1, questions=200,
                                                 coverage=1.0, seed=3))
        assert np.any(table.forecasts[0] != 0.5)

    def test_type1_mode_correlates_forecasters(self):
        spec = SyntheticSpec(forecasters=6, questions=50, mode="type1",
                             coverage=1.0, seed=8)
        table = generate_synthetic(spec)
        assert table.forecasts.shape == (6, 50)
        rows = table.forecasts[:-1]
        assert not np.array_equal(rows[0], rows[1])
        correlation = np.corrcoef(rows[0], rows[1])[0, 1]
        assert correlation > 0.5  # shared history pool

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(forecasters=0)
        with pytest.raises(ValueError):
            SyntheticSpec(mode="type3")
        for noise in (-1.0, math.inf, math.nan, 1e160, 1e-200):
            with pytest.raises(ValueError):
                SyntheticSpec(noise=noise)
        with pytest.raises(ValueError):
            SyntheticSpec(coverage=0.0)
        for seed in (-1, 2**64, 2**70):
            with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
                SyntheticSpec(seed=seed)
        assert SyntheticSpec(seed=2**64 - 1).seed == 2**64 - 1

    def test_bagged_mse_beats_mean_individual_mse_per_seed(self):
        # averaging never has a larger mean squared error than the average
        # member, seed by seed
        for seed in range(20):
            spec = SyntheticSpec(forecasters=50, questions=200, noise=1.0,
                                 coverage=1.0, seed=seed)
            table = generate_synthetic(spec)
            dense = training_fill(table.forecasts)
            y01 = (table.outcomes + 1) / 2
            bagged_mse = float(np.mean((y01 - dense.mean(axis=0)) ** 2))
            member_mse = float(np.mean((y01[np.newaxis, :] - dense) ** 2))
            assert bagged_mse <= member_mse + 1e-12


class TestSyntheticSanity:
    def test_all_combiners_reach_zero_error_without_noise(self):
        table = generate_synthetic(SyntheticSpec(forecasters=8, questions=40,
                                                 noise=0.0, coverage=1.0, seed=3))
        for method in ("bagging", "adaboost", "realboost"):
            report = loo_evaluate(table, method, 10)
            assert report.prediction_errors == 0

    def test_realboost_loo_beats_best_individual_on_most_seeds(self):
        wins = 0
        for seed in range(20):
            table = generate_synthetic(SyntheticSpec(seed=seed))
            report = loo_evaluate(table, "realboost", 70)
            if report.prediction_errors <= report.best_individual_errors:
                wins += 1
        assert wins >= 19  # at least 95 percent of seeds
