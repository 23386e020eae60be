import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forecast_ensembles import (
    LinkSpec,
    decompose,
    empirical_score,
    matched_scoring_rule,
)

DELTA = 1e-6


@pytest.fixture(scope="module")
def rule():
    return matched_scoring_rule(LinkSpec("exponential"))


def calibrated_sample(n, seed):
    """Forecasts with outcomes drawn at exactly the forecast probability."""
    rng = np.random.default_rng(seed)
    forecasts = rng.random(n)
    outcomes = np.where(rng.random(n) < forecasts, 1, -1)
    return forecasts, outcomes


class TestEmpiricalScore:
    def test_half_forecasts_score_minus_one(self, rule):
        assert empirical_score([0.5, 0.5], [1, -1], rule) == pytest.approx(-1.0, abs=1e-12)

    def test_single_forecast_is_event_score(self, rule):
        for forecast in (0.2, 0.5, 0.9):
            assert empirical_score([forecast], [1], rule) == rule.event_score(forecast)

    def test_definite_correct_forecast_scores_near_zero(self, rule):
        # a forecast of 1.0 evaluates at the clipped point 1 - 1e-6, whose
        # event score is -sqrt(clip / (1 - clip)) by direct evaluation
        score = empirical_score([1.0], [1], rule)
        assert score == pytest.approx(-math.sqrt(DELTA / (1 - DELTA)), abs=1e-9)
        assert -0.002 < score < 0.0

    def test_rejects_empty_and_mismatched(self, rule):
        with pytest.raises(ValueError):
            empirical_score([], [], rule)
        with pytest.raises(ValueError):
            empirical_score([0.5], [1, -1], rule)
        with pytest.raises(ValueError):
            empirical_score([0.5], [2], rule)
        with pytest.raises(ValueError):
            empirical_score([1.5], [1], rule)


class TestDecompose:
    def test_all_half_balanced(self, rule):
        report = decompose([0.5] * 4, [1, -1, 1, -1], rule, 10)
        assert report.calibration == pytest.approx(0.0, abs=1e-12)
        assert report.refinement == pytest.approx(-1.0, abs=1e-12)
        assert report.total == pytest.approx(-1.0, abs=1e-12)

    def test_ideal_forecaster_scores_near_zero(self, rule):
        report = decompose([1.0] * 6, [1] * 6, rule, 10)
        assert report.calibration == pytest.approx(0.0, abs=1e-12)
        assert report.refinement == pytest.approx(-2 * math.sqrt(DELTA * (1 - DELTA)), abs=1e-9)
        assert abs(report.total) < 0.01

    def test_top_bin_takes_exact_one(self, rule):
        report = decompose([1.0, 0.95, 0.05], [1, 1, -1], rule, 10)
        assert report.per_bin[9].count == 2
        assert report.per_bin[0].count == 1
        assert report.bins == 10 and len(report.per_bin) == 10

    def test_empty_bins_carry_nan_frequency(self, rule):
        report = decompose([0.05, 0.95], [-1, 1], rule, 10)
        assert report.per_bin[5].count == 0
        assert math.isnan(report.per_bin[5].frequency)
        assert sum(b.count for b in report.per_bin) == 2

    def test_total_equals_score_of_bin_mean_forecasts(self, rule):
        forecasts, outcomes = calibrated_sample(4000, seed=5)
        bins = 10
        report = decompose(forecasts, outcomes, rule, bins)
        index = np.minimum((forecasts * bins).astype(int), bins - 1)
        replaced = np.empty_like(forecasts)
        for b in range(bins):
            members = index == b
            if members.any():
                replaced[members] = forecasts[members].mean()
        assert report.total == pytest.approx(
            empirical_score(replaced, outcomes, rule), abs=1e-10)

    def test_calibrated_sample_has_small_calibration(self, rule):
        forecasts, outcomes = calibrated_sample(100_000, seed=11)
        report = decompose(forecasts, outcomes, rule, 10)
        assert report.calibration <= 1e-12
        assert abs(report.calibration) < 0.02

    def test_sharpening_calibrated_forecasts_raises_refinement(self, rule):
        # same calibrated structure, mass moved from the middle to the ends
        vague = decompose([0.5] * 8, [1, -1, 1, -1, 1, -1, 1, -1], rule, 10)
        split = decompose([0.5, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
                          [1, -1, 1, -1, 1, -1, 1, -1], rule, 10)
        definite = decompose([1.0, 0.0] * 4, [1, -1] * 4, rule, 10)
        assert vague.refinement <= split.refinement <= definite.refinement

    def test_risk_of_induced_predictor_matches_negated_refinement(self, rule):
        # calibrated forecasts: average exponential loss of the margin-scale
        # predictor agrees with the negated refinement up to binning error
        link = LinkSpec("exponential")
        forecasts, outcomes = calibrated_sample(100_000, seed=3)
        margins = np.asarray(link.link(forecasts))
        risk = float(np.mean(np.exp(-outcomes * margins)))
        report = decompose(forecasts, outcomes, rule, 10)
        assert abs(risk + report.refinement) < 0.02

    def test_rejects_bad_bins(self, rule):
        with pytest.raises(ValueError):
            decompose([0.5], [1], rule, 0)

    @given(data=st.lists(st.tuples(st.floats(0, 1), st.sampled_from([1, -1])),
                         min_size=1, max_size=60),
           bins=st.integers(1, 25))
    @settings(max_examples=150, deadline=None)
    def test_additivity_and_nonpositive_calibration(self, rule, data, bins):
        forecasts = [f for f, _ in data]
        outcomes = [o for _, o in data]
        report = decompose(forecasts, outcomes, rule, bins)
        assert report.total == pytest.approx(report.calibration + report.refinement,
                                             abs=1e-10)
        assert report.calibration <= 1e-12

    @given(data=st.lists(st.tuples(st.floats(0, 1), st.sampled_from([1, -1])),
                         min_size=1, max_size=200),
           bins=st.integers(1, 25))
    @settings(max_examples=150, deadline=None)
    def test_bins_match_a_per_bin_loop(self, rule, data, bins):
        forecasts = np.array([f for f, _ in data])
        outcomes = np.array([o for _, o in data])
        report = decompose(forecasts, outcomes, rule, bins)
        index = np.minimum((forecasts * bins).astype(int), bins - 1)
        calibration = refinement = 0.0
        expected_bins = []
        for b in range(bins):
            members = index == b
            count = int(members.sum())
            if count == 0:
                expected_bins.append((0, None))
                continue
            freq = float((outcomes[members] == 1).mean())
            # members summed in order, not by the pairwise .mean(): next to
            # the clip a last-bit change in a bin mean moves calibration by
            # up to 3e-10
            member_sum = 0.0
            for forecast in forecasts[members].tolist():
                member_sum += forecast
            mean_forecast = member_sum / count
            weight = count / forecasts.size
            refinement += weight * rule.honest_score(freq)
            calibration += weight * (
                freq * (rule.event_score(mean_forecast) - rule.event_score(freq))
                + (1.0 - freq) * (rule.nonevent_score(mean_forecast)
                                  - rule.nonevent_score(freq)))
            expected_bins.append((count, freq))
        assert [(b.count, None if b.count == 0 else b.frequency)
                for b in report.per_bin] == expected_bins
        assert all(math.isnan(b.frequency) for b in report.per_bin if b.count == 0)
        assert [b.center for b in report.per_bin] == [(b + 0.5) / bins for b in range(bins)]
        assert abs(report.refinement - refinement) <= 1e-12
        assert abs(report.calibration - calibration) <= 1e-12
        assert abs(report.total - (calibration + refinement)) <= 1e-12
