import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boost_reference import training_fill
from forecast_ensembles import (
    ForecastTable,
    LinkSpec,
    adaboost_train,
    decompose,
    matched_scoring_rule,
    realboost_train,
)

RULE = matched_scoring_rule(LinkSpec("exponential"))


class TestValidation:
    """Bare probabilities and outcome labels, as `decompose` checks them:
    a table reads NaN as an absent forecast, so `decompose` is where a
    NaN probability is refused."""

    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5, 0.73])
    def test_probability_accepts_unit_interval(self, value):
        assert sum(b.count for b in decompose([value], [1], RULE).per_bin) == 1

    @pytest.mark.parametrize("value", [-0.1, 1.3, float("nan"), float("inf")])
    def test_probability_rejects_outside(self, value):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            decompose([value], [1], RULE)

    def test_outcome_accepts_signs(self):
        assert decompose([0.5, 0.5], [1, -1], RULE, bins=1).per_bin[0].frequency == 0.5

    @pytest.mark.parametrize("value", [0, 2, -2])
    def test_outcome_rejects_other(self, value):
        with pytest.raises(ValueError, match="outcomes must be"):
            decompose([0.5], [value], RULE)


class TestForecastTable:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ForecastTable(("a",), ("x", "y"), np.array([[0.5]]), np.array([1]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate-free"):
            ForecastTable(("a", "a"), ("x",), np.array([[0.5, 0.6]]), np.array([1, -1]))
        with pytest.raises(ValueError, match="duplicate-free"):
            ForecastTable(("a", "b"), ("x", "x"),
                          np.array([[0.5, 0.6], [0.5, 0.6]]), np.array([1, -1]))

    def test_out_of_range_forecast_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ForecastTable(("a",), ("x",), np.array([[1.5]]), np.array([1]))

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcomes"):
            ForecastTable(("a",), ("x",), np.array([[0.5]]), np.array([0]))

    def test_matrices_are_immutable(self, toy_table):
        with pytest.raises(ValueError):
            toy_table.forecasts[0, 0] = 0.1
        with pytest.raises(ValueError):
            toy_table.outcomes[0] = -1

    def test_answered_mask(self, toy_table):
        assert toy_table.answered.sum() == 10
        assert not toy_table.answered[1, 1]
        assert not toy_table.answered[2, 2]

    def test_without_question(self, toy_table):
        trimmed = toy_table.without_question(1)
        assert trimmed.question_ids == ("a", "c", "d")
        assert trimmed.n_forecasters == 3
        assert np.array_equal(trimmed.outcomes, [1, 1, -1])
        np.testing.assert_array_equal(trimmed.forecasts[0], [0.9, 0.8, 0.4])

    def test_equality(self, toy_table):
        clone = ForecastTable(toy_table.question_ids, toy_table.forecaster_ids,
                              toy_table.forecasts, toy_table.outcomes)
        assert clone == toy_table
        assert toy_table.without_question(0) != toy_table


def filled(table, seed=None):
    """The dense table that `boost_reference.training_fill` makes of
    ``table``; building it refuses a probability outside [0, 1]."""
    return ForecastTable(table.question_ids, table.forecaster_ids,
                         training_fill(table.forecasts, seed), table.outcomes)


class TestImpute:
    """The trainers' fill of absent forecasts, pinned by
    `boost_reference.training_fill`: a model trained on a table equals one
    trained on the dense table that the fill makes of it."""

    def test_half_fills_absent_with_half(self, toy_table):
        dense = filled(toy_table)
        assert dense.forecasts[1, 1] == dense.forecasts[2, 2] == 0.5
        assert realboost_train(toy_table, 3) == realboost_train(dense, 3)

    def test_present_cells_unchanged(self, toy_table):
        answered = toy_table.answered
        for seed in (None, 3):
            np.testing.assert_array_equal(filled(toy_table, seed).forecasts[answered],
                                          toy_table.forecasts[answered])
        assert adaboost_train(toy_table, 3, 3).rounds == \
            adaboost_train(filled(toy_table, 3), 3, 3).rounds

    def test_random_is_deterministic(self):
        # one forecaster that never answers: its error rate is the fill's
        table = ForecastTable(tuple("abcdef"), ("x",), np.full((1, 6), np.nan),
                              np.array([1, -1, 1, 1, -1, -1]))
        first = adaboost_train(table, 3, 7)
        assert adaboost_train(table, 3, 7) == first
        assert any(adaboost_train(table, 3, seed).rounds != first.rounds
                   for seed in range(8, 40))

    def test_idempotent_on_dense_tables(self):
        table = ForecastTable(("a", "b"), ("x",), np.array([[0.2, 0.9]]),
                              np.array([1, -1]))
        assert filled(table, 1) == table
        assert adaboost_train(table, 3, 1).rounds == adaboost_train(table, 3, 2).rounds

    @given(seed=st.integers(0, 2**32), adaboost=st.booleans(),
           mask=st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_output_always_in_unit_interval(self, seed, adaboost, mask):
        forecasts = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        forecasts = np.where(np.array(mask).reshape(2, 3), np.nan, forecasts)
        table = ForecastTable(("a", "b", "c"), ("x", "y"), forecasts,
                              np.array([1, -1, 1]))
        if adaboost:
            assert adaboost_train(table, 3, seed).rounds == \
                adaboost_train(filled(table, seed), 3, seed).rounds
        else:
            assert realboost_train(table, 3) == realboost_train(filled(table), 3)
