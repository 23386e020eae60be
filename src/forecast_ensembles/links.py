"""Matched loss/link families and the proper scoring rules they induce.

A family ties together the pieces that belong to one margin loss, each a
method of `LinkSpec`:

* ``loss(v)``            the loss of margin v when the outcome is positive
                         (the negative outcome costs ``loss(-v)``),
* ``link(p)``            the probability-to-margin map that minimizes the
                         conditional risk at posterior p,
* ``inverse_link(v)``    its inverse, recovering a probability from a margin,
* ``min_cond_risk(p)``   the risk attained at the minimizer, and
  ``min_cond_risk_deriv(p)`` its derivative.

Two families are built in, exponential (loss exp(-v), the half-log-odds
link) and linear (loss (1 - v)^2, the link 2p - 1).  Each family's
formulas are stated in one place: the methods compute them, and each
method's docstring lists them for both families.

The exponential link diverges at 0 and 1, so probabilities are clipped to
[CLIP, 1 - CLIP] before the log; CLIP = 1e-6 bounds margins by
log((1 - 1e-6) / 1e-6) / 2, about 6.91, and keeps every exp finite.

Scoring rules are the elicitation view of the same objects: a pair of
per-outcome score functions whose expected value is maximized by honest
forecasting.  They are generated from a convex honest-score function via
the Savage construction, and each loss family induces one whose honest
score is the negated minimum conditional risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LinkSpec",
    "ScoringRule",
    "savage_scores",
    "matched_scoring_rule",
    "reconstruct_loss",
    "conditional_risk",
]

CLIP = 1e-6

_FAMILY_NAMES = ("exponential", "linear")


def _scalarize(x):
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class LinkSpec:
    """One matched family: loss, optimal link, inverse link, minimum risk.

    ``name`` is 'exponential' or 'linear'.  The exponential family clips
    probabilities to [CLIP, 1 - CLIP] before its divergent maps (the
    log-odds link and the risk derivative); the linear family needs no
    clipping.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in _FAMILY_NAMES:
            raise ValueError(f"unknown link family {self.name!r}; "
                             f"expected one of {sorted(_FAMILY_NAMES)}")

    def _clipped(self, prob):
        prob = np.asarray(prob, dtype=float)
        if self.name == "exponential":
            return np.clip(prob, CLIP, 1.0 - CLIP)
        return prob

    def loss(self, margin):
        """Loss of margin ``margin`` against a positive outcome:
        exp(-v) (exponential) or (1 - v)^2 (linear)."""
        v = np.asarray(margin, dtype=float)
        return _scalarize(np.exp(-v) if self.name == "exponential" else (1.0 - v) ** 2)

    def link(self, prob):
        """Margin-scale prediction for probability ``prob``:
        log(p / (1 - p)) / 2 on the clipped p (exponential) or 2p - 1
        (linear)."""
        p = self._clipped(prob)
        return _scalarize(0.5 * np.log(p / (1.0 - p)) if self.name == "exponential"
                          else 2.0 * p - 1.0)

    def inverse_link(self, margin):
        """Probability recovered from margin ``margin``:
        exp(2v) / (1 + exp(2v)) (exponential) or (v + 1) / 2 clamped to
        [0, 1] (linear)."""
        v = np.asarray(margin, dtype=float)
        if self.name == "exponential":
            # computed from exp(-2|v|) so it never overflows
            u = np.exp(-2.0 * np.abs(v))
            return _scalarize(np.where(v >= 0, 1.0 / (1.0 + u), u / (1.0 + u)))
        return _scalarize(np.clip((v + 1.0) / 2.0, 0.0, 1.0))

    def min_cond_risk(self, prob):
        """Conditional risk attained by the optimal margin at ``prob``:
        2 sqrt(p (1 - p)) (exponential) or 4 p (1 - p) (linear)."""
        p = np.asarray(prob, dtype=float)
        return _scalarize(2.0 * np.sqrt(p * (1.0 - p)) if self.name == "exponential"
                          else 4.0 * p * (1.0 - p))

    def min_cond_risk_deriv(self, prob):
        """Analytic derivative of ``min_cond_risk`` on the clipped p:
        (1 - 2p) / sqrt(p (1 - p)) (exponential) or 4 - 8p (linear)."""
        p = self._clipped(prob)
        return _scalarize((1.0 - 2.0 * p) / np.sqrt(p * (1.0 - p))
                          if self.name == "exponential" else 4.0 - 8.0 * p)

    @property
    def max_margin(self) -> float:
        """Largest margin the clipped link can produce."""
        return float(self.link(1.0))


@dataclass(frozen=True)
class ScoringRule:
    """A Savage pair of per-outcome score functions.

    ``event_score(p)`` is earned by forecast p when the event happens,
    ``nonevent_score(p)`` when it does not, and ``honest_score(p)`` is the
    expected score of an honest forecast at true chance p.  For a proper
    rule the expected score is maximized exactly at the honest forecast.
    """

    honest_score: Callable
    event_score: Callable
    nonevent_score: Callable

    def expected_score(self, true_prob, forecast):
        """Expected score of announcing ``forecast`` at true chance ``true_prob``."""
        true_prob = np.asarray(true_prob, dtype=float)
        return _scalarize(true_prob * self.event_score(forecast)
                          + (1.0 - true_prob) * self.nonevent_score(forecast))


def savage_scores(honest_score: Callable, honest_score_deriv: Callable) -> ScoringRule:
    """Generate the per-outcome score pair from a convex honest-score curve.

    With h the honest score and h' its (caller-supplied, analytic)
    derivative:

        event_score(p)    = h(p) + (1 - p) h'(p)
        nonevent_score(p) = h(p) - p h'(p)

    Convexity of h is what makes the resulting rule proper; it is checked
    by property tests, not at call time.
    """

    def event(prob):
        prob = np.asarray(prob, dtype=float)
        return _scalarize(honest_score(prob) + (1.0 - prob) * honest_score_deriv(prob))

    def nonevent(prob):
        prob = np.asarray(prob, dtype=float)
        return _scalarize(honest_score(prob) - prob * honest_score_deriv(prob))

    def honest(prob):
        return _scalarize(honest_score(np.asarray(prob, dtype=float)))

    return ScoringRule(honest_score=honest, event_score=event, nonevent_score=nonevent)


def matched_scoring_rule(link: LinkSpec) -> ScoringRule:
    """Scoring rule induced by a loss family: honest score = -min_cond_risk.

    Probabilities are clipped to the family's [CLIP, 1 - CLIP] window before
    evaluation, so forecasts of exactly 0 or 1 score finitely.  For the
    exponential family this produces event_score(p) = -loss(link(p)) and
    nonevent_score(p) = -loss(-link(p)).
    """
    inner = savage_scores(lambda p: -link.min_cond_risk(p),
                          lambda p: -link.min_cond_risk_deriv(p))
    return ScoringRule(
        honest_score=lambda prob: inner.honest_score(link._clipped(prob)),
        event_score=lambda prob: inner.event_score(link._clipped(prob)),
        nonevent_score=lambda prob: inner.nonevent_score(link._clipped(prob)),
    )


def reconstruct_loss(link: LinkSpec, margin):
    """Rebuild the loss at ``margin`` from the risk side of the family alone.

    Evaluates min_cond_risk(q) + (1 - q) * min_cond_risk'(q) at
    q = inverse_link(margin).  For the exponential family this reproduces
    exp(-margin) on the clip-limited margin range; for the linear family it
    reproduces (1 - margin)^2 on (-1, 1).
    """
    q = link._clipped(link.inverse_link(margin))
    return _scalarize(link.min_cond_risk(q) + (1.0 - q) * link.min_cond_risk_deriv(q))


def conditional_risk(link: LinkSpec, prob, margin):
    """Expected loss of predicting ``margin`` at posterior ``prob``:
    prob * loss(margin) + (1 - prob) * loss(-margin)."""
    prob = np.asarray(prob, dtype=float)
    margin = np.asarray(margin, dtype=float)
    return _scalarize(prob * link.loss(margin) + (1.0 - prob) * link.loss(-margin))
