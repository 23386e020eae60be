import itertools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boost_reference import adaboost_reference, ordered_sum, realboost_reference, training_fill
from conftest import predict_column, random_table
from forecast_ensembles import (
    DEFAULT_ITERATIONS,
    EnsembleModel,
    ForecastTable,
    LinkSpec,
    SyntheticSpec,
    adaboost_train,
    bag,
    classify,
    ensemble_predict_table,
    generate_synthetic,
    realboost_train,
    train,
    train_folds,
)
from forecast_ensembles import combiners
from forecast_ensembles.combiners import (
    METHODS,
    _LeastTotal,
    _loss_factors,
    _ordered_sum,
    stage_weight,
)


def single_question_table(forecasts, outcome=1):
    return ForecastTable(
        question_ids=("q",),
        forecaster_ids=tuple(f"f{i}" for i in range(len(forecasts))),
        forecasts=np.array(forecasts, dtype=float).reshape(-1, 1),
        outcomes=np.array([outcome]),
    )


def least_total(least, weights):
    """The pick of `_LeastTotal` ``least`` and its ordered total, which a
    lone candidate leaves to the caller: summed here as realboost sums it."""
    picked, total = least(weights)
    if total is None:
        total = _ordered_sum(least.factors[:, picked] * weights)
    return picked, total


class TestBagging:
    def test_mean_of_two(self):
        model = bag(single_question_table([0.4, 0.6]))
        margin, probability = predict_column(model, [0.4, 0.6])
        assert probability == pytest.approx(0.5, abs=1e-12)
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_absent_counts_as_half(self):
        model = bag(single_question_table([0.9, np.nan]))
        _, probability = predict_column(model, [0.9, np.nan])
        assert probability == pytest.approx(0.7, abs=1e-12)

    def test_single_forecaster_is_identity(self):
        model = bag(single_question_table([0.37]))
        for value in (0.0, 0.37, 0.81, 1.0):
            _, probability = predict_column(model, [value])
            assert probability == value

    def test_three_way_mean(self):
        model = bag(single_question_table([0.2, 0.6, 0.7]))
        _, probability = predict_column(model, [0.2, 0.6, 0.7])
        assert probability == pytest.approx(0.5, abs=1e-12)

    def test_model_shape(self, toy_table):
        model = bag(toy_table)
        assert model.method == "bagging"
        assert model.rounds == ()
        assert model.unique_forecasters == 3
        assert model.link.name == "linear"

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            bag(ForecastTable((), ("x",), np.empty((1, 0)), np.empty(0, dtype=int)))

    def test_per_question_squared_error_dominance(self):
        # the averaged forecast never has larger squared error than the
        # average of the members' squared errors, question by question
        rng = np.random.default_rng(4)
        for _ in range(25):
            table = random_table(rng, 6, 12, missing=0.3)
            dense = training_fill(table.forecasts)
            y01 = (table.outcomes + 1) / 2
            ensemble_err = (y01 - dense.mean(axis=0)) ** 2
            member_err = ((y01[np.newaxis, :] - dense) ** 2).mean(axis=0)
            assert np.all(ensemble_err <= member_err + 1e-12)


class TestStageWeight:
    def test_chance_rate_gives_zero(self):
        assert stage_weight(0.5) == 0.0

    def test_quarter_rate(self):
        assert stage_weight(0.25) == pytest.approx(0.5493061443340549, abs=1e-12)

    def test_clamping_keeps_weight_finite(self):
        assert stage_weight(0.0) == pytest.approx(0.5 * math.log((1 - 1e-8) / 1e-8))
        assert math.isfinite(stage_weight(1.0))


class TestSelectionHelpers:
    def test_weighted_error_tie_breaks_low_index(self):
        weights = np.full(4, 0.25)
        # forecasters 1 and 3 tie at 0.25, wrong on different questions
        wrong = np.array([[1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
        index, mass = least_total(_LeastTotal(np.ascontiguousarray(wrong.T)), weights)
        assert index == 1
        assert mass == 0.25

    def test_constant_half_forecaster_objective_is_one(self):
        # an abstainer's margins are all zero, so its factors exp(-y * 0) are
        # all one and its objective is the ordered total weight
        rng = np.random.default_rng(1)
        outcomes = rng.choice([1, -1], size=9)
        abstainer = np.exp(-outcomes[:, np.newaxis] * np.zeros((9, 1)))
        for _ in range(5):
            weights = rng.random(9)
            weights /= weights.sum()
            index, objective = least_total(_LeastTotal(abstainer), weights)
            assert index == 0
            assert objective == _ordered_sum(weights)
            assert objective == pytest.approx(1.0, abs=1e-12)

    @given(scale_power=st.integers(-20, 20), seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_selection_invariant_to_weight_scale(self, scale_power, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(7) + 1e-9
        wrong = (rng.random((7, 5)) < 0.4).astype(float)
        outcomes = rng.choice([1, -1], size=7)
        losses = np.exp(-outcomes[:, np.newaxis] * rng.normal(size=(7, 5)))
        scale = 2.0 ** scale_power  # exact in floating point
        for factors in (wrong, losses):
            least = _LeastTotal(factors)
            index, total = least_total(least, weights)
            # the total scales exactly, and so the error rate does not move
            assert least_total(least, weights * scale) == (index, total * scale)
            assert _ordered_sum(weights * scale) == _ordered_sum(weights) * scale


def left_to_right_totals(factors, weights):
    """Column totals of factors * weights by a plain scalar loop over the
    rows (questions) in order."""
    totals = [0.0] * factors.shape[1]
    for row, weight in zip(factors.tolist(), weights.tolist()):
        for j, factor in enumerate(row):
            totals[j] += factor * weight
    return np.array(totals)


class TestOrderedTotals:
    @given(n=st.integers(1, 400), q=st.integers(1, 300), binary=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, q=300, binary=False, seed=0)
    @example(n=1, q=300, binary=True, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_loop_bit_for_bit(self, n, q, binary, seed):
        rng = np.random.default_rng(seed)
        if binary:
            factors = (rng.random((q, n)) < 0.5).astype(float)
        else:
            factors = np.exp(rng.normal(scale=3.0, size=(q, n)))
        weights = rng.random(q) * 10.0 ** rng.integers(-300, 3, size=q)
        totals = _ordered_sum(factors * weights[:, None])
        assert np.array_equal(totals, left_to_right_totals(factors, weights))
        # term by term, from an iterator
        terms = _ordered_sum(factors[i] * weights[i] for i in range(q))
        assert terms.tobytes() == totals.tobytes()

    def test_iterator_of_terms_ends_on_positive_zero(self):
        # a loop from 0.0 gives +0.0 where every term is -0.0, as the
        # array path does, and the first term is copied, not added into
        terms = [np.array([-0.0, -0.0, 1.0]), np.array([-0.0, 0.0, -1.0])]
        for count in (1, 2):
            total = _ordered_sum(iter(terms[:count]))
            assert total.tobytes() == _ordered_sum(np.array(terms[:count])).tobytes()
            assert not np.signbit(total[:2]).any()
        assert np.signbit(terms[0][:2]).all()


def close_factors(rng, kind, q, n):
    """(Q, N) non-negative factors of the given kind; the last two put the
    column totals within a few units in the last place of each other.
    "binary32" are adaboost's mistakes, 0 or 1 in float32."""
    if kind in ("binary", "binary32"):
        return (rng.random((q, n)) < 0.5).astype(np.float32 if kind == "binary32" else float)
    if kind == "real":
        return np.exp(rng.normal(scale=3.0, size=(q, n)))
    if kind == "last_bits":
        # copies of one column, each nudged by a few ulps at a few questions
        factors = np.repeat(np.exp(rng.normal(size=(q, 1))), n, axis=1)
        for j in range(n):
            rows = rng.integers(0, q, size=3)
            factors[rows, j] *= 1.0 + rng.integers(-4, 5, size=3) * 2.0**-52
        return factors
    # drift: a 1 and Q - 1 entries just above half an ulp of 1.  Where the
    # 1 comes first, a left-to-right sum rounds up by a whole ulp at each
    # later entry; where it comes last, the small entries add up exactly
    # first.  A blocked sum lands near the exact total either way, so the
    # two orders rank the columns differently, by up to about Q ulps: the
    # one column with its 1 first is the least by the exact total and the
    # greatest in order.
    late = np.arange(n) != rng.integers(0, n)
    factors = np.ldexp(np.repeat(1.0 + np.where(late, 0.8, 0.0) + 0.2 * rng.random((1, n)),
                                 q, axis=0), -53)
    factors[np.where(late, q - 1, 0), np.arange(n)] = 1.0
    return factors


class TestLeastTotal:
    @given(n=st.integers(1, 60), q=st.integers(1, 200),
           kind=st.sampled_from(["binary", "binary32", "real", "last_bits", "drift"]),
           spread=st.booleans(), duplicates=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=1, q=300, kind="real", spread=True, duplicates=False, seed=0)
    @example(n=1, q=300, kind="binary", spread=True, duplicates=True, seed=0)
    @example(n=60, q=3, kind="binary", spread=False, duplicates=False, seed=0)
    @example(n=60, q=200, kind="drift", spread=False, duplicates=False, seed=0)
    @example(n=60, q=200, kind="binary32", spread=True, duplicates=False, seed=0)
    @example(n=60, q=200, kind="binary32", spread=True, duplicates=True, seed=1)
    @settings(max_examples=150, deadline=None)
    def test_screened_argmin_matches_scalar_loop(self, n, q, kind, spread, duplicates, seed):
        rng = np.random.default_rng(seed)
        factors = close_factors(rng, kind, q, n)
        if duplicates:
            factors = np.ascontiguousarray(factors[:, rng.integers(0, n, size=2 * n)])
        if spread:
            # down to 1e-300, and half of them in and around float32's
            # subnormals, which its screen rounds or flushes to zero
            exponents = np.where(rng.random(q) < 0.5, rng.integers(-300, 3, size=q),
                                 rng.integers(-46, -37, size=q))
            weights = rng.random(q) * 10.0 ** exponents
        elif kind in ("last_bits", "drift"):
            weights = np.ones(q)  # keeps every product exact
        else:
            weights = rng.random(q)
        totals = left_to_right_totals(factors, weights)
        index = int(np.argmin(totals))  # the first of the least
        least = _LeastTotal(factors)
        picked, total = least(weights)
        assert type(picked) is int
        # a lone candidate comes back without its total
        assert total is None or total == totals[index]
        assert (picked, least_total(least, weights)[1]) == (index, totals[index])

    def test_many_ties_are_all_gathered(self):
        # one column per pair of 4 questions: under equal weights all 6 tie
        pairs = list(itertools.combinations(range(4), 2))
        factors = np.zeros((4, len(pairs)))
        for j, pair in enumerate(pairs):
            factors[list(pair), j] = 1.0
        least = _LeastTotal(factors)
        assert least(np.full(4, 0.25)) == (0, 0.5)
        assert least.candidates == 6
        assert least_total(least, np.array([0.4, 0.3, 0.2, 0.1])) == (5, 0.2 + 0.1)
        assert least.candidates == 7

    def test_nan_screen_makes_every_column_a_candidate(self):
        # a NaN weight puts no screened total under the limit; every column
        # is then rechecked, and the first NaN total is the pick
        factors = np.ones((3, 4)) + np.arange(4) / 4
        least = _LeastTotal(factors)
        picked, total = least(np.array([np.nan, 1.0, 1.0]))
        assert (picked, math.isnan(total), least.candidates) == (0, True, 4)

    def test_two_candidates_among_eight_are_gathered(self):
        # eight distinct columns, 2 of them candidates; in order, 0.1 + 0.2
        # lies one ulp above 0.3
        factors = np.ones((3, 8)) + np.arange(8) / 8
        factors[:, [3, 6]] = [[0.1, 0.3], [0.2, 0.0], [0.0, 0.0]]
        least = _LeastTotal(factors)
        assert least(np.ones(3)) == (6, 0.3)
        assert least.candidates == 2
        # an exact tie goes to the lower index
        factors[:, [3, 6]] = [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]
        least = _LeastTotal(factors)
        assert least(np.full(3, 0.5)) == (3, 0.5)
        assert least.candidates == 2

    def test_float32_screen_inverts_an_order_beyond_float64_slack(self):
        # in float64 column 0 totals 1 + 2**-24 + 2**-40, below column 1's
        # 1 + 2**-24 - 2**-40 + 2**-30; in float32, 2**-24 + 2**-40 lifts
        # column 0 to 1 + 2**-23 while column 1 casts and sums to 1.0, a
        # relative inversion of 2**-23 that float64's slack would not cover
        factors = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.float32)
        weights = np.array([1.0, 2.0**-24 + 2.0**-40, 1.0 + 2.0**-24 - 2.0**-40, 2.0**-30])
        assert np.array_equal(weights.astype(np.float32) @ factors, [1.0 + 2.0**-23, 1.0])
        least = _LeastTotal(factors)
        assert least(weights) == (0, 1.0 + 2.0**-24 + 2.0**-40)
        assert least.candidates == 2

    def test_float32_screen_flushes_subnormal_weights_within_its_floor(self):
        # float32's least subnormal is 2**-149: column 0's one weight,
        # 0.75 of it, casts up to 2**-149, and column 1's two, 0.375 and
        # 0.4375 of it, cast to zero, while in float64 column 0 totals less
        factors = np.array([[1, 0], [0, 1], [0, 1]], dtype=np.float32)
        weights = np.array([0.75, 0.375, 0.4375]) * 2.0**-149
        assert np.array_equal(weights.astype(np.float32), [2.0**-149, 0.0, 0.0])
        least = _LeastTotal(factors)
        assert least(weights) == (0, 0.75 * 2.0**-149)
        assert least.candidates == 2

    def test_limit_past_the_screens_largest_value_makes_every_column_a_candidate(self):
        factors = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.float32)
        least = _LeastTotal(factors)
        # 1e39 casts to float32 infinity: every screened total is infinite,
        # and so is the limit
        with np.errstate(over="ignore", invalid="ignore"):
            assert least(np.array([1e39, 2e25, 1e25])) == (1, 1e39 + 1e25)
        # at float32's largest value the screened totals are finite and the
        # limit lies past them, where casting it would overflow
        largest = float(np.finfo(np.float32).max)
        with np.errstate(all="raise"):
            assert least(np.array([largest, 2e25, 1e25])) == (1, largest + 1e25)
        assert least.candidates == 6

    def test_duplicate_columns_tie_to_the_first(self):
        factors = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        least = _LeastTotal(factors)
        assert least(np.array([0.5, 0.25])) == (1, 0.25)
        assert least(np.array([0.25, 0.25])) == (0, 0.25)
        assert least.candidates == 6


class TestAdaBoost:
    def test_toy_table_matches_reference(self, toy_table):
        seed = 11
        model = adaboost_train(toy_table, 2, seed=seed)
        dense = training_fill(toy_table.forecasts, seed)
        rounds, margins = adaboost_reference(dense.tolist(), toy_table.outcomes.tolist(), 2)
        assert [(j, pytest.approx(a, abs=1e-12)) for j, a in rounds] == list(model.rounds)
        predicted = [predict_column(model, dense[:, q])[0]
                     for q in range(toy_table.n_questions)]
        assert predicted == pytest.approx(margins, abs=1e-12)

    def test_one_forecaster_matches_reference_exactly(self):
        # numpy sums a lone (Q, 1) column pairwise unless told otherwise, and
        # a lone forecaster's error rate sits next to 0.5 after its first
        # round, so every later round hangs on the last bit of the reweighting
        for seed in range(100):
            rng = np.random.default_rng(seed)
            forecasts = rng.random((1, 200))
            outcomes = rng.choice([1, -1], size=200)
            table = ForecastTable(tuple(f"q{i}" for i in range(200)), ("only",),
                                  forecasts, outcomes)
            rounds, _ = adaboost_reference(forecasts.tolist(), outcomes.tolist(), 20)
            assert list(adaboost_train(table, 20).rounds) == rounds, seed

    def test_deterministic(self, toy_table):
        assert adaboost_train(toy_table, 4, seed=9) == adaboost_train(toy_table, 4, seed=9)
        assert adaboost_train(toy_table, 4, seed=9) != adaboost_train(toy_table, 4, seed=10)

    def test_early_stop_when_nobody_beats_chance(self):
        # one forecaster, wrong on both questions
        table = ForecastTable(("a", "b"), ("x",), np.array([[0.9, 0.9]]),
                              np.array([-1, -1]))
        model = adaboost_train(table, 5, seed=0)
        assert model.rounds == ((0, 0.0),)
        margin, probability = predict_column(model, [0.9])
        assert margin == 0.0 and probability == 0.5

    def test_early_stop_truncates_after_progress(self):
        # perfectly balanced opposite forecasters: round 1 error 0.5 for both
        table = ForecastTable(("a", "b"), ("x", "y"),
                              np.array([[0.9, 0.9], [0.1, 0.1]]),
                              np.array([1, -1]))
        model = adaboost_train(table, 6, seed=0)
        assert len(model.rounds) == 1
        assert model.rounds[0][1] == 0.0

    def test_alpha_nonnegative_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            table = random_table(rng, 4, 7, missing=0.2)
            model = adaboost_train(table, 5, seed=int(rng.integers(1000)))
            assert all(a >= 0 for _, a in model.rounds)

    def test_rejects_bad_inputs(self, toy_table):
        with pytest.raises(ValueError):
            adaboost_train(toy_table, 0)
        with pytest.raises(ValueError, match="empty table"):
            adaboost_train(ForecastTable((), ("x",), np.empty((1, 0)), np.empty(0, dtype=int)), 3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected_before_any_round(self, screens, toy_table, seed):
        for trained in (lambda: adaboost_train(toy_table, 3, seed),
                        lambda: train(toy_table, "adaboost", 3, seed=seed)):
            with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
                trained()
        assert screens == []

    def test_paper_shape_rechecks_about_one_candidate_a_round(self, caplog):
        # a float32 slack left too loose would stay exact but recheck many
        # columns a round: 800 rounds recheck 800 or 801 on paper tables
        table = generate_synthetic(SyntheticSpec(forecasters=338, questions=88, coverage=0.5,
                                                 seed=0))
        with caplog.at_level(logging.DEBUG, logger="forecast_ensembles.combiners"):
            model = adaboost_train(table, 800)
        [line] = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        rounds, candidates = map(int, re.fullmatch(
            r"adaboost: (\d+) rounds, (\d+) candidates rechecked", line).groups())
        assert rounds == len(model.rounds) == 800
        assert candidates <= 808

    def test_debug_line_counts_the_argmin_work(self, caplog):
        # x and y forecast alike, so their columns tie in every round and
        # both are rechecked; x is right on all three questions, so adaboost
        # screens one round and repeats it (TestFixedPoint)
        forecasts = np.array([[0.9, 0.2, 0.8], [0.9, 0.2, 0.8], [0.1, 0.7, 0.4]])
        table = ForecastTable(("a", "b", "c"), ("x", "y", "z"), forecasts, np.array([1, -1, 1]))
        with caplog.at_level(logging.DEBUG, logger="forecast_ensembles.combiners"):
            adaboost_train(table, 3)
            realboost_train(table, 2)
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG] == [
            "adaboost: 3 rounds, 2 candidates rechecked",
            "realboost: 2 rounds, 4 candidates rechecked",
        ]


class TestRealBoost:
    def test_toy_table_matches_reference(self):
        rng = np.random.default_rng(7)
        table = random_table(rng, 4, 5, missing=0.25)
        model = realboost_train(table, 3)
        dense = training_fill(table.forecasts)
        picks, margins = realboost_reference(dense.tolist(), table.outcomes.tolist(), 3)
        assert [j for j, _ in model.rounds] == picks
        assert all(a == 1.0 for _, a in model.rounds)
        predicted = [predict_column(model, table.forecasts[:, q])[0]
                     for q in range(table.n_questions)]
        assert predicted == pytest.approx(margins, abs=1e-12)

    def test_perfect_forecaster_selected_first(self):
        rng = np.random.default_rng(3)
        outcomes = rng.choice([1, -1], size=6)
        noise = rng.random((3, 6))
        perfect = np.where(outcomes == 1, 1.0, 0.0)
        table = ForecastTable(
            tuple(f"q{j}" for j in range(6)), ("a", "b", "c", "d"),
            np.vstack([noise, perfect]), outcomes)
        model = realboost_train(table, 1)
        assert model.rounds[0][0] == 3

    def test_cumulative_risk_never_increases_while_objectives_stay_low(self):
        link = LinkSpec("exponential")
        rng = np.random.default_rng(8)
        for _ in range(10):
            table = random_table(rng, 5, 9, missing=0.3)
            model = realboost_train(table, 6)
            margins = np.asarray(link.link(training_fill(table.forecasts)))
            weights = np.full(table.n_questions, 1.0 / table.n_questions)
            cumulative = np.zeros(table.n_questions)
            previous_risk = None
            for picked, _ in model.rounds:
                objective = float(np.exp(-table.outcomes * margins[picked]) @ weights)
                weights = weights * np.exp(-table.outcomes * margins[picked])
                weights /= weights.sum()
                cumulative += margins[picked]
                risk = float(np.mean(np.exp(-table.outcomes * cumulative)))
                if previous_risk is not None and objective <= 1.0:
                    assert risk <= previous_risk + 1e-12
                previous_risk = risk

    def test_deterministic(self, toy_table):
        assert realboost_train(toy_table, 5) == realboost_train(toy_table, 5)

    def test_rejects_bad_inputs(self, toy_table):
        with pytest.raises(ValueError):
            realboost_train(toy_table, 0)
        with pytest.raises(ValueError, match="empty table"):
            realboost_train(ForecastTable(("a",), (), np.empty((0, 1)), [1]), 3)


@pytest.fixture
def screens(monkeypatch):
    """The rounds screened by `_LeastTotal`, counted as they happen."""
    calls = []
    screen = _LeastTotal.__call__

    def counted(self, weights):
        calls.append(None)
        return screen(self, weights)

    monkeypatch.setattr(_LeastTotal, "__call__", counted)
    return calls


def planted_table(rng, n_forecasters, n_questions, planted):
    """Random forecasts with forecaster 1 (or 0, if it is the only one)
    right on every question with certainty ("perfect") or absent
    everywhere, which reads as 0.5 ("constant")."""
    table = random_table(rng, n_forecasters, n_questions, missing=0.2)
    row = min(1, n_forecasters - 1)
    forecasts = table.forecasts.copy()
    forecasts[row] = (np.where(table.outcomes == 1, 1.0, 0.0) if planted == "perfect"
                      else np.nan)
    return ForecastTable(table.question_ids, table.forecaster_ids, forecasts, table.outcomes)


class TestFixedPoint:
    """A round that leaves the weights bit for bit as they were is repeated
    to the last round without screening again; the rounds stay those of
    the references, which screen every round."""

    @staticmethod
    def perfect_table(n_questions):
        outcomes = np.resize([1, -1], n_questions)
        forecasts = np.vstack([np.full(n_questions, 0.7),  # always the event
                               np.where(outcomes == 1, 0.9, 0.2)])
        return ForecastTable(tuple(f"q{j}" for j in range(n_questions)), ("half", "perfect"),
                             forecasts, outcomes)

    @pytest.mark.parametrize("n_questions, total, n_screens", [
        (3, 1.0, 1),
        # the first weights sum to one ulp above 1.0, so the rule waits one
        # normalization
        (11, 1.0000000000000002, 2),
    ])
    def test_adaboost_perfect_forecaster(self, screens, n_questions, total, n_screens):
        assert ordered_sum([1.0 / n_questions] * n_questions) == total
        table = self.perfect_table(n_questions)
        model = adaboost_train(table, 800)
        rounds, _ = adaboost_reference(table.forecasts.tolist(), table.outcomes.tolist(), 800)
        assert list(model.rounds) == rounds
        assert model.rounds[0] == (1, stage_weight(0.0))
        assert len(screens) == n_screens

    def test_realboost_settles_on_the_constant_member(self, screens):
        # after five rounds the absent forecaster w, whose factors are all
        # 1, has the least objective; in round 6 that objective, the weights'
        # total, is one ulp below 1.0, so round 7 is the first to leave the
        # weights as they were
        forecasts = np.array([[np.nan] * 4, [0.0, 0.0, 0.8, 0.9], [0.6, 0.7, 0.5, 0.9],
                              [0.8, 0.0, 0.9, 0.0]])
        outcomes = np.array([-1, -1, -1, 1])
        table = ForecastTable(("a", "b", "c", "d"), ("w", "x", "y", "z"), forecasts, outcomes)
        model = realboost_train(table, 30)
        picks, _ = realboost_reference(training_fill(forecasts).tolist(), outcomes.tolist(), 30)
        assert [j for j, _ in model.rounds] == picks == [1, 2, 2, 2, 2] + [0] * 25
        assert all(a == 1.0 for _, a in model.rounds)
        assert len(screens) == 7

    def test_realboost_objective_of_one_that_moves_the_weights(self, screens):
        # x's factors, 0.49999999999999994 and 1.5000000000000002, average
        # to exactly 1.0 but reweight the questions to 1/4 and 3/4, under
        # which y is the better pick
        forecasts = np.array([[0.8, 0.3076923076923076], [0.28, 0.83]])
        outcomes = np.array([1, 1])
        table = ForecastTable(("a", "b"), ("x", "y"), forecasts, outcomes)
        model = realboost_train(table, 4)
        picks, _ = realboost_reference(forecasts.tolist(), outcomes.tolist(), 4)
        assert [j for j, _ in model.rounds] == picks
        assert picks[:2] == [0, 1]
        assert len(screens) == 4

    def test_info_line_names_the_fixed_point(self, caplog):
        with caplog.at_level(logging.INFO, logger="forecast_ensembles.combiners"):
            adaboost_train(self.perfect_table(3), 800)
            adaboost_train(self.perfect_table(3), 1)
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            "adaboost: round 1 leaves the weights unchanged; 799 later rounds repeat it",
            "adaboost: round 1 leaves the weights unchanged; 0 later rounds repeat it",
        ]

    @given(n=st.integers(1, 5), q=st.integers(1, 12),
           planted=st.sampled_from(["perfect", "constant"]),
           iterations=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_rounds_match_the_references(self, n, q, planted, iterations, seed):
        table = planted_table(np.random.default_rng(seed), n, q, planted)
        outcomes = table.outcomes.tolist()
        rounds, _ = adaboost_reference(training_fill(table.forecasts, seed).tolist(), outcomes,
                                       iterations)
        assert list(adaboost_train(table, iterations, seed).rounds) == rounds
        picks, _ = realboost_reference(training_fill(table.forecasts).tolist(), outcomes,
                                       iterations)
        assert list(realboost_train(table, iterations).rounds) == [(j, 1.0) for j in picks]


class TestEnsemblePredict:
    def test_zero_margin_maps_to_half(self, toy_table):
        model = realboost_train(toy_table, 2)
        margin, probability = predict_column(model, [0.5, 0.5, 0.5])
        assert margin == 0.0 and probability == 0.5

    def test_margin_probability_round_trip(self, toy_table):
        model = realboost_train(toy_table, 2)
        link = model.link
        for margin in np.linspace(-6, 6, 25):
            back = link.link(link.inverse_link(margin))
            assert back == pytest.approx(margin, abs=1e-10)

    def test_length_mismatch_rejected(self, toy_table):
        model = bag(toy_table)
        with pytest.raises(ValueError, match="expected 3 forecasts"):
            predict_column(model, [0.5, 0.5])

    def test_unseen_question_prediction_is_deterministic(self, toy_table):
        model = adaboost_train(toy_table, 3, seed=21)
        vector = np.array([np.nan, 0.8, np.nan])
        first = predict_column(model, vector)
        assert predict_column(model, vector) == first
        # the one fill rule: absent cell i takes entry i of one seeded draw
        fill = np.random.default_rng(21).random(toy_table.n_forecasters)
        base = np.where(np.where(np.isnan(vector), fill, vector) > 0.5, 1.0, -1.0)
        expected = sum(a * base[j] for j, a in model.rounds)
        assert first[0] == pytest.approx(expected, abs=1e-12)
        assert first[1] == model.link.inverse_link(first[0])


@st.composite
def predict_cases(draw):
    """A model of any method and an (N, Q) matrix for it with absent cells,
    forecasts of exactly 0.5 and adaboost rounds of zero weight; only
    adaboost draws a seed."""
    method = draw(st.sampled_from(METHODS))
    # past 8 terms numpy's pairwise sum no longer adds in order
    n, q = draw(st.integers(1, 20)), draw(st.integers(1, 5))
    cell = st.one_of(st.just(np.nan), st.just(0.5), st.floats(0, 1))
    matrix = np.array(draw(st.lists(cell, min_size=n * q, max_size=n * q))).reshape(n, q)
    rounds = ()
    if method != "bagging":
        weight = st.one_of(st.just(0.0), st.floats(0, 20)) if method == "adaboost" \
            else st.floats(-20, 20)
        rounds = tuple(draw(st.lists(st.tuples(st.integers(0, n - 1), weight),
                                     min_size=1, max_size=20)))
    seed = draw(st.integers(0, 2**64 - 1)) if method == "adaboost" else 0
    return EnsembleModel(method, rounds, tuple(f"f{i}" for i in range(n)), seed), matrix


def reference_prediction(model, column):
    """(margin, probability) by the scalar loops of `boost_reference`: the
    margin sums the rounds' terms from 0.0 in selection order, bagging's
    probability sums the forecasts in forecaster order.  The realboost
    terms use the package's link: only the summation is under test."""
    n = model.n_forecasters
    if model.method == "bagging":
        probability = ordered_sum(0.5 if math.isnan(v) else v for v in column) / n
        return 2.0 * probability - 1.0, probability
    fill = np.random.default_rng(model.seed).random(n).tolist()
    terms = []
    for j, alpha in model.rounds:
        value = column[j]
        if model.method == "adaboost":
            value = fill[j] if math.isnan(value) else value
            terms.append(alpha * (1.0 if value > 0.5 else -1.0))
        else:
            terms.append(alpha * float(model.link.link(0.5 if math.isnan(value) else value)))
    margin = ordered_sum(terms)
    return margin, float(model.link.inverse_link(margin))


class TestOrderedMargin:
    @given(case=predict_cases())
    @example(case=(EnsembleModel("adaboost", ((0, 0.0),), ("f0",)), np.array([[0.1]])))
    @example(case=(EnsembleModel("adaboost", ((1, 0.0), (0, 0.0)), ("f0", "f1"), 5),
                   np.array([[0.1, np.nan], [np.nan, 0.2]])))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scalar_loop_bit_for_bit(self, case):
        model, matrix = case
        margins, probabilities = ensemble_predict_table(model, matrix)
        for q in range(matrix.shape[1]):
            expected = [x.hex() for x in reference_prediction(model, matrix[:, q].tolist())]
            table_column = [float(margins[q]).hex(), float(probabilities[q]).hex()]
            one_column = [x.hex() for x in predict_column(model, matrix[:, q])]
            assert table_column == one_column == expected

    def test_zero_weight_round_gives_positive_zero(self):
        # 0.0 * -1.0 is -0.0; the loop from 0.0 makes the margin +0.0
        model = EnsembleModel("adaboost", ((0, 0.0),), ("f0",))
        margins, probabilities = ensemble_predict_table(model, [[0.1, 0.9]])
        assert [float(m).hex() for m in margins] == ["0x0.0p+0", "0x0.0p+0"]
        assert probabilities.tolist() == [0.5, 0.5]
        margin, _ = predict_column(model, [0.1])
        assert margin.hex() == "0x0.0p+0"

    def test_rejects_bad_tables(self, toy_table):
        model = bag(toy_table)
        with pytest.raises(ValueError, match="expected 3 forecasts"):
            ensemble_predict_table(model, toy_table.forecasts[:2])
        with pytest.raises(ValueError, match="expected 3 forecasts"):
            ensemble_predict_table(model, toy_table.forecasts[:, 0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ensemble_predict_table(model, np.full((3, 2), 1.5))


class TestTrain:
    def test_runs_the_method_with_its_default_rounds(self, toy_table):
        assert train(toy_table, "bagging", 5, seed=2) == bag(toy_table)
        assert train(toy_table, "adaboost", seed=3) == \
            adaboost_train(toy_table, DEFAULT_ITERATIONS["adaboost"], seed=3)
        assert train(toy_table, "realboost", 4, seed=3) == realboost_train(toy_table, 4)

    def test_unknown_method_rejected(self, toy_table):
        with pytest.raises(ValueError, match="unknown method"):
            train(toy_table, "stacking")

    @pytest.mark.parametrize("seed", range(3))
    def test_realboost_keeps_fewer_forecasters_than_adaboost(self, seed):
        """The paper's sparsity claim, on tables of its shape: 338
        forecasters, 88 questions, half of the forecasts given."""
        table = generate_synthetic(SyntheticSpec(forecasters=338, questions=88, coverage=0.5,
                                                 seed=seed))
        assert (train(table, "realboost").unique_forecasters
                < train(table, "adaboost", seed=seed).unique_forecasters)


class TestTrainFolds:
    """`train_folds` gives each leave-one-out fold the model `train` gives
    it; realboost folds get the full table's loss factors without the
    held-out row."""

    @given(n=st.integers(1, 4), q=st.integers(2, 8), missing=st.sampled_from([0.0, 0.3]),
           iterations=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fold_models_are_trains(self, n, q, missing, iterations, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, n, q, missing)
        # plus a forecaster absent everywhere and a constant 0.5 member
        forecasts = np.vstack([table.forecasts, np.full((2, q), np.nan)])
        forecasts[-1] = 0.5
        table = ForecastTable(table.question_ids, (*table.forecaster_ids, "absent", "half"),
                              forecasts, table.outcomes)
        factors = _loss_factors(table)
        for method in ("adaboost", "realboost"):
            models = list(train_folds(table, method, iterations, seed))
            assert len(models) == q
            for fold_index, model in enumerate(models):
                fold = table.without_question(fold_index)
                assert model == train(fold, method, iterations, seed ^ fold_index)
                assert np.delete(factors, fold_index, axis=0).tobytes() == \
                    _loss_factors(fold).tobytes()

    @given(n=st.integers(0, 3), q=st.integers(2, 8), iterations=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_realboost_fold_ties_go_to_the_lower_index(self, n, q, iterations, seed):
        # The folds share one loss-factor matrix, built on the full table.
        # Next to random forecasters, the table holds a copy of one of them,
        # an all-abstain forecaster and a constant 0.5 member (identical
        # loss factors), and pairs of strong forecasters that differ at one
        # question only: they tie on that question's fold alone, where the
        # lower index must win.
        rng = np.random.default_rng(seed)
        outcomes = rng.choice([1, -1], size=q)
        right = np.where(outcomes == 1, 0.95, 0.05)
        rows = [*random_table(rng, n, q, missing=0.3).forecasts, np.full(q, np.nan),
                np.full(q, 0.5)]
        rows.append(rows[rng.integers(len(rows))].copy())
        for differs in rng.choice(q, size=2, replace=False):
            strong = right + rng.uniform(-0.04, 0.04, size=q)
            twin = strong.copy()
            twin[differs] = right[differs]
            rows += [strong, twin]
        forecasts = np.array(rows)[rng.permutation(len(rows))]
        table = ForecastTable(tuple(f"q{j}" for j in range(q)),
                              tuple(f"f{i}" for i in range(len(rows))), forecasts, outcomes)
        for fold_index, model in enumerate(train_folds(table, "realboost", iterations)):
            fold = table.without_question(fold_index)
            assert model == train(fold, "realboost", iterations)
            picks, _ = realboost_reference(training_fill(fold.forecasts).tolist(),
                                           fold.outcomes.tolist(), iterations)
            assert [j for j, _ in model.rounds] == picks

    @pytest.mark.parametrize("method", ["adaboost", "realboost"])
    def test_trains_each_fold_when_asked(self, monkeypatch, toy_table, method):
        expected = train(toy_table.without_question(0), method, 3, 0)
        trained = []
        original = getattr(combiners, f"{method}_train")

        def counted(*args, **kwargs):
            trained.append(args[0].n_questions)
            return original(*args, **kwargs)

        monkeypatch.setattr(combiners, f"{method}_train", counted)
        folds = train_folds(toy_table, method, 3)
        assert trained == []
        first = next(folds)
        assert trained == [toy_table.n_questions - 1]
        assert first == expected
        assert len(list(folds)) == toy_table.n_questions - 1
        assert len(trained) == toy_table.n_questions

    def test_default_rounds(self, toy_table):
        models = list(train_folds(toy_table, "realboost"))
        assert [len(m.rounds) for m in models] == [DEFAULT_ITERATIONS["realboost"]] * 4

    def test_wrong_factor_shape_rejected(self, toy_table):
        factors = _loss_factors(toy_table)
        with pytest.raises(ValueError, match="shape"):
            realboost_train(toy_table, 3, factors=np.delete(factors, 0, axis=0))
        with pytest.raises(ValueError, match="shape"):
            realboost_train(toy_table, 3, factors=factors.T.copy())
        assert realboost_train(toy_table, 3, factors=factors) == realboost_train(toy_table, 3)

    @pytest.fixture
    def unbuildable(self, monkeypatch):
        """Every builder of a fold fails the test if called."""
        def built(*args, **kwargs):
            raise AssertionError("built before the arguments were checked")

        for name in ("_loss_factors", "adaboost_train", "realboost_train"):
            monkeypatch.setattr(combiners, name, built)
        monkeypatch.setattr(ForecastTable, "without_question", built)

    @pytest.mark.parametrize("method, iterations, n_questions, message", [
        ("bagging", 3, 4, "unknown boosting method"),
        ("stacking", 3, 4, "unknown boosting method"),
        ("realboost", 0, 4, "at least 1"),
        ("adaboost", -1, 4, "at least 1"),
        ("realboost", 3, 1, "two questions"),
        ("adaboost", 3, 1, "two questions"),
        ("realboost", 3, 4, "empty table"),
        ("adaboost", 3, 4, "empty table"),
    ])
    def test_rejects_before_building_anything(self, unbuildable, method, iterations,
                                              n_questions, message):
        # the empty tables have questions but no forecasters
        n_forecasters = 0 if message == "empty table" else 3
        table = random_table(np.random.default_rng(0), n_forecasters, n_questions)
        with pytest.raises(ValueError, match=message):
            train_folds(table, method, iterations)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_an_adaboost_seed_out_of_range_before_building_anything(self, unbuildable,
                                                                             seed):
        table = random_table(np.random.default_rng(0), 3, 4)
        with pytest.raises(ValueError, match="unsigned 64-bit integer"):
            train_folds(table, "adaboost", 3, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_many_identical_columns_tied_at_the_minimum(self, seed):
        # 200 forecasters on 6 questions: most mistake columns are copies of
        # a few, and many forecasters tie at the least error mass or
        # objective; at seed 0, fold 0 has 26 distinct mistake columns of
        # 200, and 33 forecasters err on no question
        table = generate_synthetic(SyntheticSpec(forecasters=200, questions=6, coverage=0.8,
                                                 seed=seed))
        for q, model in enumerate(train_folds(table, "adaboost", 20, seed)):
            fold = table.without_question(q)
            rounds, _ = adaboost_reference(training_fill(fold.forecasts, seed ^ q).tolist(),
                                           fold.outcomes.tolist(), 20)
            assert [(j, pytest.approx(a, abs=1e-12)) for j, a in rounds] == list(model.rounds)
        for q, model in enumerate(train_folds(table, "realboost", 20)):
            fold = table.without_question(q)
            picks, _ = realboost_reference(training_fill(fold.forecasts).tolist(),
                                           fold.outcomes.tolist(), 20)
            assert [j for j, _ in model.rounds] == picks

    def test_info_line_every_tenth_of_the_folds(self, caplog):
        table = random_table(np.random.default_rng(1), 3, 25, missing=0.2)
        with caplog.at_level(logging.INFO, logger="forecast_ensembles.combiners"):
            list(train_folds(table, "realboost", 2))
        assert [r.getMessage() for r in caplog.records if "fold" in r.getMessage()] == [
            f"realboost: fold {k} of 25" for k in range(3, 26, 3)]


class TestClassify:
    @pytest.mark.parametrize("margin,expected", [(0.3, 1), (-0.3, -1), (0.0, -1),
                                                 (1e-9, 1), (-1e-9, -1)])
    def test_sign_rule(self, margin, expected):
        assert classify(margin) == expected

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            classify(float("nan"))


class TestModelValidation:
    def test_round_index_out_of_range(self):
        with pytest.raises(ValueError, match="references forecaster"):
            EnsembleModel("realboost", ((2, 1.0),), ("a", "b"))

    def test_empty_rounds_rejected(self):
        with pytest.raises(ValueError, match="at least one round"):
            EnsembleModel("realboost", (), ("a",))

    @pytest.mark.parametrize("rounds", [((0, 1.0),), ((0, 0.5), (1, 0.5))])
    def test_bagging_rounds_rejected(self, rounds):
        with pytest.raises(ValueError, match="a bagging model none"):
            EnsembleModel("bagging", rounds, ("a", "b"))

    @pytest.mark.parametrize("method", ["bagging", "realboost"])
    def test_no_forecaster_rejected(self, method):
        rounds = () if method == "bagging" else ((0, 1.0),)
        with pytest.raises(ValueError, match="one or more"):
            EnsembleModel(method, rounds, ())

    def test_negative_adaboost_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EnsembleModel("adaboost", ((0, -0.5),), ("a",), seed=1)

    def test_duplicate_forecaster_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate-free"):
            EnsembleModel("bagging", (), ("a", "a"))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            EnsembleModel("adaboost", ((0, 0.5),), ("a",), seed=seed)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'stacking'"):
            EnsembleModel("stacking", ((0, 1.0),), ("a",))

    @pytest.mark.parametrize("method", ["bagging", "realboost"])
    def test_seed_rejected_outside_adaboost(self, method):
        rounds = () if method == "bagging" else ((0, 1.0),)
        with pytest.raises(ValueError, match=f"a {method} model has no seed"):
            EnsembleModel(method, rounds, ("a",), seed=1)

    @pytest.mark.parametrize("method,link", [("bagging", "linear"),
                                             ("adaboost", "exponential"),
                                             ("realboost", "exponential")])
    def test_link_is_the_methods_own(self, method, link):
        rounds = () if method == "bagging" else ((0, 1.0),)
        assert EnsembleModel(method, rounds, ("a",)).link.name == link
