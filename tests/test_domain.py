import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forecast_ensembles import (
    ForecastTable,
    ImputationPolicy,
    impute,
    validate_outcome,
    validate_probability,
)


class TestValidation:
    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5, 0.73])
    def test_probability_accepts_unit_interval(self, value):
        assert validate_probability(value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.3, float("nan"), float("inf")])
    def test_probability_rejects_outside(self, value):
        with pytest.raises(ValueError):
            validate_probability(value)

    def test_outcome_accepts_signs(self):
        assert validate_outcome(1) == 1
        assert validate_outcome(-1) == -1

    @pytest.mark.parametrize("value", [0, 2, -2])
    def test_outcome_rejects_other(self, value):
        with pytest.raises(ValueError):
            validate_outcome(value)


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


class TestImpute:
    def test_half_fills_absent_with_half(self, toy_table):
        dense = impute(toy_table, ImputationPolicy("half"))
        assert dense[1, 1] == 0.5
        assert dense[2, 2] == 0.5

    def test_present_cells_unchanged(self, toy_table):
        for mode in ("half", "random"):
            dense = impute(toy_table, ImputationPolicy(mode, seed=3))
            assert dense[0, 2] == 0.8
            np.testing.assert_array_equal(dense[toy_table.answered],
                                          toy_table.forecasts[toy_table.answered])

    def test_random_is_deterministic(self, toy_table):
        first = impute(toy_table, ImputationPolicy("random", seed=7))
        second = impute(toy_table, ImputationPolicy("random", seed=7))
        np.testing.assert_array_equal(first, second)
        other = impute(toy_table, ImputationPolicy("random", seed=8))
        assert not np.array_equal(first, other)

    @pytest.mark.parametrize("mode", ["zero", "error"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="mode"):
            ImputationPolicy(mode)

    def test_idempotent_on_dense_tables(self):
        table = ForecastTable(("a", "b"), ("x",), np.array([[0.2, 0.9]]),
                              np.array([1, -1]))
        for mode in ("half", "random"):
            dense = impute(table, ImputationPolicy(mode, seed=1))
            np.testing.assert_array_equal(dense, table.forecasts)

    @given(seed=st.integers(0, 2**32), mode=st.sampled_from(["half", "random"]),
           mask=st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_output_always_in_unit_interval(self, seed, mode, mask):
        forecasts = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        forecasts = np.where(np.array(mask).reshape(2, 3), np.nan, forecasts)
        table = ForecastTable(("a", "b", "c"), ("x", "y"), forecasts,
                              np.array([1, -1, 1]))
        dense = impute(table, ImputationPolicy(mode, seed=seed))
        assert np.all((dense >= 0) & (dense <= 1))
