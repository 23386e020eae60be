import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forecast_ensembles import (
    LinkSpec,
    ScoringRule,
    decompose,
    decompose_table,
    matched_scoring_rule,
)
from forecast_ensembles import scoring
import score_reference
from score_reference import empirical_score

DELTA = 1e-6

# Every score -0.0: each filled bin's refinement term is -0.0, so a
# forecaster's refinement is -0.0 and an empty bin summed in as +0.0
# would turn it into +0.0.
SIGNED_ZERO_RULE = ScoringRule(honest_score=lambda p: -0.0 * np.asarray(p),
                               event_score=lambda p: -0.0 * np.asarray(p),
                               nonevent_score=lambda p: -0.0 * np.asarray(p))


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
    """The average realized score of `score_reference`, against which
    `decompose`'s total is checked."""

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
        with pytest.raises(ValueError):
            decompose([0.5], [1], rule, scoring.MAX_BINS + 1)

    def test_rejects_empty_and_mismatched(self, rule):
        with pytest.raises(ValueError):
            decompose([], [], rule)
        with pytest.raises(ValueError):
            decompose([0.5], [1, -1], rule)
        with pytest.raises(ValueError):
            decompose([0.5], [2], rule)
        with pytest.raises(ValueError):
            decompose([1.5], [1], rule)

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


def bin_edges_and_clip(bins):
    """Forecasts that stress the binning and the clip: 0 and 1, the bin
    edges k / bins and their neighbours, and values within 1e-6 of the
    clip at both ends."""
    edges = st.integers(0, bins).map(lambda k: k / bins)
    return st.one_of(
        st.sampled_from([0.0, 1.0, DELTA, 1.0 - DELTA, DELTA / 2, 1.0 - DELTA / 2,
                         np.nextafter(DELTA, 0.0), np.nextafter(DELTA, 1.0),
                         np.nextafter(1.0 - DELTA, 0.0), np.nextafter(1.0 - DELTA, 1.0),
                         np.nextafter(1.0, 0.0), 5e-324]),
        edges,
        edges.map(lambda x: float(np.nextafter(x, 0.0))),
        edges.map(lambda x: float(np.nextafter(x, 1.0))),
        st.floats(0.0, 2 * DELTA),
        st.floats(1.0 - 2 * DELTA, 1.0),
        st.floats(0.0, 1.0),
    )


@st.composite
def scored_tables(draw):
    """(forecasts with NaN for absent, outcomes, bins): often with an
    all-abstain forecaster, sometimes with more bins than questions."""
    bins = draw(st.integers(1, 12) | st.just(1) | st.integers(40, 200))
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, 30))
    cell = st.just(np.nan) | bin_edges_and_clip(bins)
    forecasts = np.array(draw(st.lists(cell, min_size=n * q, max_size=n * q)),
                         dtype=float).reshape(n, q)
    if draw(st.booleans()):
        forecasts[draw(st.integers(0, n - 1))] = np.nan
    outcomes = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=q, max_size=q)))
    return forecasts, outcomes, bins


def split_hex(total, calibration, refinement):
    return tuple(float(x).hex() for x in (total, calibration, refinement))


class TestDecomposeTable:
    """The whole-table split against the per-forecaster loop it replaced,
    bit for bit: floats are compared by ``float.hex``, which tells -0.0
    from +0.0."""

    @given(case=scored_tables(), signed_zero=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_per_forecaster_loop(self, rule, case, signed_zero):
        forecasts, outcomes, bins = case
        rule = SIGNED_ZERO_RULE if signed_zero else rule
        split = decompose_table(forecasts, outcomes, rule, bins)
        expected = score_reference.score_table(forecasts, outcomes, rule, bins)
        assert split.count.tolist() == (~np.isnan(forecasts)).sum(axis=1).tolist()
        for i, report in enumerate(expected):
            if report is None:
                assert split.count[i] == 0
                assert np.isnan([split.total[i], split.calibration[i],
                                 split.refinement[i]]).all()
                continue
            assert (split_hex(split.total[i], split.calibration[i], split.refinement[i])
                    == split_hex(report.total, report.calibration, report.refinement))
            answered = ~np.isnan(forecasts[i])
            one = decompose(forecasts[i, answered], outcomes[answered], rule, bins)
            assert (split_hex(one.total, one.calibration, one.refinement)
                    == split_hex(report.total, report.calibration, report.refinement))
            assert [(b.center, b.count) for b in one.per_bin] == \
                [(b.center, b.count) for b in report.per_bin]
            assert (np.array([b.frequency for b in one.per_bin]).tobytes()
                    == np.array([b.frequency for b in report.per_bin]).tobytes())

    def test_empty_bins_add_negative_zero(self):
        # bin 0 is empty and every filled bin's term is -0.0: the sum over
        # the filled bins is -0.0, which a +0.0 filler would lose
        split = decompose_table([[0.55, 0.95, np.nan]], [1, -1, 1], SIGNED_ZERO_RULE, 10)
        assert float(split.refinement[0]).hex() == "-0x0.0p+0"
        report = score_reference.decompose([0.55, 0.95], [1, -1], SIGNED_ZERO_RULE, 10)
        assert float(report.refinement).hex() == "-0x0.0p+0"

    def test_blocks_of_rows_give_the_same_bits(self, rule, monkeypatch):
        rng = np.random.default_rng(4)
        forecasts = rng.random((7, 40))
        forecasts[rng.random((7, 40)) < 0.3] = np.nan
        forecasts[2] = np.nan
        outcomes = np.where(rng.random(40) < 0.5, 1, -1)
        whole = decompose_table(forecasts, outcomes, rule, 10)
        monkeypatch.setattr(scoring, "_BLOCK_CELLS", 25)  # two rows of 11 bins a block
        blocked = decompose_table(forecasts, outcomes, rule, 10)
        for got, want in zip(blocked, whole):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_table_without_forecasters_or_questions(self, rule):
        split = decompose_table(np.empty((0, 3)), [1, -1, 1], rule, 4)
        assert all(part.shape == (0,) for part in split)
        split = decompose_table(np.empty((2, 0)), [], rule, 4)
        assert split.count.tolist() == [0, 0] and np.isnan(split.total).all()

    @pytest.mark.parametrize("forecasts,outcomes,bins", [
        ([0.5, 0.5], [1, -1], 10),
        ([[0.5, 1.5]], [1, -1], 10),
        ([[0.5, -0.1]], [1, -1], 10),
        ([[0.5, 0.5]], [1, 0], 10),
        ([[0.5, 0.5]], [1, -1, 1], 10),
        ([[0.5, 0.5]], [1, -1], 0),
        ([[0.5, 0.5]], [1, -1], scoring.MAX_BINS + 1),
    ], ids=["one-d", "above-one", "below-zero", "bad-outcome", "bad-length", "no-bins",
            "too-many-bins"])
    def test_rejects_bad_input(self, rule, forecasts, outcomes, bins):
        with pytest.raises(ValueError):
            decompose_table(forecasts, outcomes, rule, bins)
