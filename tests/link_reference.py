"""The paper's link between probability elicitation and classification.

A margin loss, the conditional risk it is minimized over, the loss rebuilt
from the risk side and the Savage construction of a scoring rule from a
convex honest score.  The commands run none of them, so they are not part
of the package; the theory tests check `forecast_ensembles.links` against
them.  `savage_scores` over the clipped forecast pins down
`matched_scoring_rule` bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from forecast_ensembles.links import LinkSpec, ScoringRule, _scalarize


def loss(link: LinkSpec, margin):
    """Loss of margin ``margin`` against a positive outcome:
    exp(-v) (exponential) or (1 - v)^2 (linear)."""
    v = np.asarray(margin, dtype=float)
    return _scalarize(np.exp(-v) if link.name == "exponential" else (1.0 - v) ** 2)


def max_margin(link: LinkSpec) -> float:
    """Largest margin the clipped link can produce."""
    return float(link.link(1.0))


def expected_score(rule: ScoringRule, true_prob, forecast):
    """Expected score of announcing ``forecast`` at true chance ``true_prob``."""
    true_prob = np.asarray(true_prob, dtype=float)
    return _scalarize(true_prob * rule.event_score(forecast)
                      + (1.0 - true_prob) * rule.nonevent_score(forecast))


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
    return _scalarize(prob * loss(link, margin) + (1.0 - prob) * loss(link, -margin))
