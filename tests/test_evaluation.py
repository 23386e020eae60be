import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from forecast_ensembles.combiners import _ordered_sum
from forecast_ensembles.evaluation import _exp, _ndtr


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


def whole_table_synthetic(spec):
    """The synthetic table by the earlier generator's formulas: every
    (N, Q) step a whole-table array, type1's pool mixed through one
    (8, N * Q) product, and Phi over every cell, answered or not."""
    rng = np.random.default_rng(spec.seed)
    n, q = spec.forecasters, spec.questions
    signal = rng.normal(0.0, 2.0, size=q)
    outcome_draws = rng.random(q)
    if spec.mode == "type2":
        observations = signal[np.newaxis, :] + spec.noise * rng.standard_normal((n, q))
        channel_scale = np.full(n, spec.noise)
    else:
        pool = rng.standard_normal((8, q))
        counts = rng.multinomial(8, [1.0 / 8] * 8, size=n)
        mix = _ordered_sum((counts.T[:, :, None] * pool[:, None, :]).reshape(8, -1))
        observations = signal[np.newaxis, :] + (spec.noise / 8) * mix.reshape(n, q)
        channel_scale = spec.noise * np.sqrt((counts.astype(float) ** 2).sum(axis=1)) / 8
    coverage_draws = rng.random((n, q))
    if spec.noise == 0.0:
        true_prob = (signal > 0).astype(float)
        posterior = np.broadcast_to(true_prob, (n, q))
    else:
        true_prob = _ndtr(signal / spec.noise)
        shrink = 4.0 / (4.0 + channel_scale**2)
        total_sd = np.sqrt(shrink * channel_scale**2 + spec.noise**2)
        posterior = _ndtr((shrink[:, np.newaxis] * observations
                           / total_sd[:, np.newaxis]).ravel()).reshape(n, q)
        if n >= 2:
            posterior[-1, :] = 0.5
    outcomes = np.where(outcome_draws < true_prob, 1, -1)
    return np.where(coverage_draws < spec.coverage, posterior, np.nan), outcomes


class TestSyntheticMatchesWholeTableFormulas:
    # 70 x 300 is 21,000 cells, more than one of the generator's blocks
    @pytest.mark.parametrize("mode", ["type1", "type2"])
    @pytest.mark.parametrize("noise,coverage,forecasters", [
        (1.0, 0.8, 70), (0.3, 1.0, 70), (0.0, 0.6, 70), (1.0, 0.5, 1)])
    def test_same_bits(self, mode, noise, coverage, forecasters):
        spec = SyntheticSpec(forecasters=forecasters, questions=300, mode=mode, noise=noise,
                             coverage=coverage, seed=11)
        table = generate_synthetic(spec)
        forecasts, outcomes = whole_table_synthetic(spec)
        assert table.forecasts.tobytes() == forecasts.tobytes()
        np.testing.assert_array_equal(table.outcomes, outcomes)


# Measured bound on |_ndtr(z) - Phi(z)| in units in the last place of the
# reference, over 42 million z (uniform, normal, log-uniform, and dense
# about each switch) where the reference is at least the smallest normal
# double: 9, reached once, of which up to about 2.5 is the reference's own
# (math.erfc against a 50-digit erfc).
NDTR_ULPS = 9
SMALLEST_NORMAL = float(np.finfo(float).tiny)


def ndtr_reference(z):
    return 0.5 * math.erfc(-z * math.sqrt(0.5))


def assert_ndtr_close(zs):
    zs = np.asarray(zs, dtype=float)
    got = _ndtr(zs)
    reference = np.array([ndtr_reference(z) for z in zs.tolist()])
    normal = reference >= SMALLEST_NORMAL
    ulps = np.abs(got - reference)[normal] / np.spacing(reference[normal])
    assert ulps.max(initial=0.0) <= NDTR_ULPS
    # below the normal range, a miss is an absolute error under the least normal
    assert np.all(np.abs(got - reference)[~normal] < SMALLEST_NORMAL)


class TestNormalCdf:
    def test_grid_matches_erfc(self):
        assert_ndtr_close(np.linspace(-40.0, 40.0, 160_001))

    @given(st.floats(-40.0, 40.0))
    @settings(max_examples=300, deadline=None)
    def test_floats_match_erfc(self, z):
        assert_ndtr_close([z])

    @pytest.mark.parametrize("switch", [0.46875, 4.0])
    def test_both_sides_of_each_switch(self, switch):
        # |x| = |z| / sqrt(2) picks the range, so step z through the ulps
        # around each sign's switch
        steps = np.arange(-2000, 2001)
        for z_switch in (switch * math.sqrt(2.0), -switch * math.sqrt(2.0)):
            zs = z_switch + steps * np.spacing(z_switch)
            x = np.abs(zs * -math.sqrt(0.5))
            assert (x <= switch).any() and (x > switch).any()
            assert_ndtr_close(zs)

    def test_exactly_half_at_zero(self):
        halves = _ndtr(np.array([0.0, -0.0]))
        assert halves.tolist() == [0.5, 0.5]

    def test_finite_in_unit_interval_and_saturating_in_the_tails(self):
        huge = np.finfo(float).max
        zs = np.array([-np.inf, -huge, -1e300, -40.0, -38.0, 9.0, 40.0, 1e300, huge, np.inf])
        expected = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            assert _ndtr(zs).tolist() == expected
            everywhere = _ndtr(np.concatenate([np.linspace(-60.0, 60.0, 100_001),
                                               np.geomspace(1e-300, 1e300, 1001),
                                               -np.geomspace(1e-300, 1e300, 1001)]))
        assert np.all(np.isfinite(everywhere))
        assert np.all((0.0 <= everywhere) & (everywhere <= 1.0))

    @given(st.floats(allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_any_float_is_a_probability(self, z):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            value = float(_ndtr(np.array([z]))[0])
        assert 0.0 <= value <= 1.0

    def test_monotone(self):
        values = _ndtr(np.linspace(-40.0, 40.0, 160_001))
        assert np.all(np.diff(values) >= 0.0)


class TestPrivateExp:
    # `_ndtr` takes exp(-w^2 - (y - w)(y + w)), w a multiple of 1/16 up to
    # 26.5 and the second part in (-3.4, 0]
    def assert_within_an_ulp(self, a, b=0.0):
        a = np.asarray(a, dtype=float)
        total = a + b
        assert np.all(total - a == b)  # the reference's argument is exact
        reference = np.array([math.exp(x) for x in total.tolist()])
        assert np.all(np.abs(_exp(a, b) - reference) <= np.spacing(reference))

    def test_grid(self):
        self.assert_within_an_ulp(np.concatenate([np.linspace(-708.0, 0.0, 200_001),
                                                  -(np.arange(0, 26.5 * 16 + 1) / 16) ** 2,
                                                  -np.geomspace(1e-300, 1.0, 1001)]))

    @given(st.floats(-708.0, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_floats(self, x):
        self.assert_within_an_ulp([x])

    def test_two_parts(self):
        # second parts on a 2^-42 grid, so that each sum is a double
        rng = np.random.default_rng(0)
        a = -(rng.integers(0, int(26.5 * 16) + 1, 200_000) / 16.0) ** 2
        b = -rng.integers(0, int(3.4 * 2**42), a.size) * 2.0**-42
        in_range = a + b >= -708.0
        self.assert_within_an_ulp(a[in_range], b[in_range])


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
