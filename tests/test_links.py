import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from link_reference import (
    conditional_risk,
    expected_score,
    max_margin,
    reconstruct_loss,
    savage_scores,
)
from forecast_ensembles import LinkSpec, matched_scoring_rule
from forecast_ensembles.links import CLIP

DELTA = 1e-6


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def golden_section_min(fn, lo, hi, iterations=200):
    """Independent 1-d minimizer used as the oracle for optimal margins."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    for _ in range(iterations):
        if fn(c) < fn(d):
            b, d = d, c
            c = b - inv_phi * (b - a)
        else:
            a, c = c, d
            d = a + inv_phi * (b - a)
    mid = (a + b) / 2.0
    return mid, fn(mid)


class TestExponentialFamily:
    def setup_method(self):
        self.link = LinkSpec("exponential")

    def test_symmetry_points(self):
        assert self.link.link(0.5) == 0.0
        assert self.link.inverse_link(0.0) == 0.5
        assert self.link.min_cond_risk(0.5) == 1.0

    def test_link_at_point_nine(self):
        # half the log of 9, evaluated independently
        assert self.link.link(0.9) == pytest.approx(1.0986122886681098, abs=1e-12)

    def test_round_trip_within_clipped_range(self):
        probs = np.concatenate([
            np.linspace(DELTA, 1 - DELTA, 1001),
            np.geomspace(DELTA, 0.4, 200),
            1 - np.geomspace(DELTA, 0.4, 200),
        ])
        back = self.link.inverse_link(self.link.link(probs))
        assert np.max(np.abs(back - probs)) < 1e-12

    def test_inverse_link_antisymmetry(self):
        margins = np.linspace(-10.0, 10.0, 2001)
        total = self.link.inverse_link(margins) + self.link.inverse_link(-margins)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    @given(margin=st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_inverse_link_antisymmetry_property(self, margin):
        total = self.link.inverse_link(margin) + self.link.inverse_link(-margin)
        assert abs(total - 1.0) < 1e-12

    def test_min_risk_symmetry(self):
        probs = np.linspace(0.0, 1.0, 501)
        gap = self.link.min_cond_risk(probs) - self.link.min_cond_risk(1.0 - probs)
        assert np.max(np.abs(gap)) < 1e-12

    def test_min_risk_concavity_by_midpoints(self):
        probs = np.linspace(0.0, 1.0, 201)
        left, right = probs[:-1], probs[1:]
        mid = (left + right) / 2.0
        chord = (self.link.min_cond_risk(left) + self.link.min_cond_risk(right)) / 2.0
        assert np.all(self.link.min_cond_risk(mid) >= chord - 1e-12)

    def test_clip_bounds_margins(self):
        assert abs(self.link.link(1.0)) <= max_margin(self.link)
        assert max_margin(self.link) == pytest.approx(0.5 * math.log((1 - DELTA) / DELTA))
        assert math.isfinite(self.link.link(0.0))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown link family"):
            LinkSpec("logit")


class TestLinearFamily:
    def setup_method(self):
        self.link = LinkSpec("linear")

    def test_link_values(self):
        assert self.link.link(0.3) == pytest.approx(-0.4)
        assert self.link.link(0.5) == 0.0
        assert self.link.link(1.0) == 1.0

    def test_inverse_clamps(self):
        assert self.link.inverse_link(1.7) == 1.0
        assert self.link.inverse_link(-3.0) == 0.0
        assert self.link.inverse_link(0.2) == pytest.approx(0.6)

    def test_min_risk(self):
        assert self.link.min_cond_risk(0.5) == 1.0
        assert self.link.min_cond_risk(0.0) == 0.0


class TestSavageScores:
    def setup_method(self):
        self.rule = matched_scoring_rule(LinkSpec("exponential"))

    def test_scores_at_half(self):
        assert self.rule.event_score(0.5) == pytest.approx(-1.0, abs=1e-12)
        assert self.rule.nonevent_score(0.5) == pytest.approx(-1.0, abs=1e-12)

    def test_event_score_equals_negated_loss_of_link(self):
        # evaluated independently on both sides
        link = LinkSpec("exponential")
        probs = np.arange(1, 100) / 100.0
        lhs = self.rule.event_score(probs)
        rhs = -np.exp(-np.asarray(link.link(probs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        lhs_neg = self.rule.nonevent_score(probs)
        rhs_neg = -np.exp(np.asarray(link.link(probs)))
        assert np.max(np.abs(lhs_neg - rhs_neg)) < 1e-10

    def test_honest_score_is_expected_score_on_diagonal(self):
        probs = np.arange(1, 100) / 100.0
        gap = expected_score(self.rule, probs, probs) - self.rule.honest_score(probs)
        assert np.max(np.abs(gap)) < 1e-12

    def test_savage_bound_grid(self):
        probs = np.arange(1, 100) / 100.0
        expected = expected_score(self.rule, probs[:, None], probs[None, :])
        honest = np.asarray(self.rule.honest_score(probs))[:, None]
        gap = honest - expected
        assert np.min(gap) > -1e-12
        off_diagonal = ~np.eye(len(probs), dtype=bool)
        assert np.min(gap[off_diagonal]) > 1e-12

    def test_custom_rule_from_callables(self):
        rule = savage_scores(lambda p: p * p - p, lambda p: 2.0 * p - 1.0)
        # event score p^2 - p + (1 - p)(2p - 1) = -p^2 + 2p - 1
        assert rule.event_score(0.25) == pytest.approx(-(0.75**2))
        assert rule.nonevent_score(0.25) == pytest.approx(-(0.25**2))
        assert rule.honest_score(0.5) == pytest.approx(-0.25)

    @pytest.mark.parametrize("family", ["exponential", "linear"])
    @given(probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @example(probs=[0.0, 0.5, 1.0, CLIP, 1.0 - CLIP, CLIP / 2])
    @settings(max_examples=200, deadline=None)
    def test_matched_rule_is_the_savage_pair_bit_for_bit(self, family, probs):
        link = LinkSpec(family)
        rule = matched_scoring_rule(link)
        savage = savage_scores(lambda p: -link.min_cond_risk(p),
                               lambda p: -link.min_cond_risk_deriv(p))
        for name in ("honest_score", "event_score", "nonevent_score"):
            score, reference = getattr(rule, name), getattr(savage, name)
            array = np.array(probs)
            assert np.array_equal(bits(score(array)), bits(reference(link._clipped(array))))
            for prob in probs:
                value = score(prob)
                assert type(value) is float
                assert bits(value) == bits(reference(link._clipped(prob)))


class TestLossReconstruction:
    def test_exponential_fixed_points(self):
        link = LinkSpec("exponential")
        assert reconstruct_loss(link, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert reconstruct_loss(link, 1.0) == pytest.approx(0.36787944117144233, abs=1e-9)
        assert reconstruct_loss(link, -2.0) == pytest.approx(7.38905609893065, abs=1e-9)

    def test_exponential_matches_direct_loss(self):
        link = LinkSpec("exponential")
        margins = np.linspace(-5.0, 5.0, 101)
        gap = np.abs(reconstruct_loss(link, margins) - np.exp(-margins))
        assert np.max(gap) < 1e-8

    def test_linear_matches_squared_loss_inside_unit_margin(self):
        link = LinkSpec("linear")
        margins = np.linspace(-0.99, 0.99, 199)
        gap = np.abs(reconstruct_loss(link, margins) - (1.0 - margins) ** 2)
        assert np.max(gap) < 1e-12


class TestConditionalRisk:
    def test_value_at_half(self):
        link = LinkSpec("exponential")
        assert conditional_risk(link, 0.5, 0.0) == 1.0

    def test_link_attains_minimum_risk(self):
        link = LinkSpec("exponential")
        for prob in (0.1, 0.3, 0.5, 0.8, 0.97):
            margin, value = golden_section_min(
                lambda v: conditional_risk(link, prob, v), -10.0, 10.0)
            assert value == pytest.approx(link.min_cond_risk(prob), abs=1e-10)
            assert margin == pytest.approx(link.link(prob), abs=1e-6)

    def test_link_beats_random_margins(self):
        link = LinkSpec("exponential")
        rng = np.random.default_rng(0)
        optimal = conditional_risk(link, 0.8, link.link(0.8))
        for margin in rng.uniform(-8, 8, size=50):
            assert optimal <= conditional_risk(link, 0.8, margin) + 1e-12

    @given(prob=st.floats(0.01, 0.99), margin=st.floats(-8, 8))
    @settings(max_examples=200, deadline=None)
    def test_minimality_property(self, prob, margin):
        link = LinkSpec("exponential")
        best = conditional_risk(link, prob, link.link(prob))
        assert best <= conditional_risk(link, prob, margin) + 1e-12
