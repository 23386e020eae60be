"""Matched loss/link families and the proper scoring rules they induce.

A family ties together the pieces that belong to one margin loss, each a
method of `LinkSpec`:

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
forecasting.  Each loss family induces one: the Savage pair of the negated
minimum conditional risk.  The paper's theory that the commands do not run
(the loss itself, the conditional risk, the loss rebuilt from the risk
side and the general Savage construction) is ``tests/link_reference.py``,
and the theory tests check this module against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["LinkSpec", "ScoringRule", "matched_scoring_rule"]

CLIP = 1e-6

_FAMILY_NAMES = ("exponential", "linear")


def _scalarize(x):
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class LinkSpec:
    """One matched family: optimal link, inverse link, minimum risk.

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


@dataclass(frozen=True)
class ScoringRule:
    """The per-outcome score functions of one proper rule.

    ``event_score(p)`` is earned by forecast p when the event happens,
    ``nonevent_score(p)`` when it does not, and ``honest_score(p)`` is the
    expected score of forecast p at true chance p, which no other forecast
    exceeds.  Each takes a scalar, giving a float, or an array.
    """

    honest_score: Callable
    event_score: Callable
    nonevent_score: Callable


def matched_scoring_rule(link: LinkSpec) -> ScoringRule:
    """Scoring rule induced by a loss family, with honest score
    h = -min_cond_risk and h' = -min_cond_risk_deriv on the clipped p:

        event_score(p)    = h(p) + (1 - p) h'(p)
        nonevent_score(p) = h(p) - p h'(p)

    The clip to [CLIP, 1 - CLIP] lets forecasts of exactly 0 or 1 score
    finitely.  For the exponential family event_score(p) = -exp(-link(p))
    and nonevent_score(p) = -exp(link(p)).
    """

    def honest(prob):
        return -link.min_cond_risk(link._clipped(prob))

    def event(prob):
        p = link._clipped(prob)
        return _scalarize(-link.min_cond_risk(p) + (1.0 - p) * -link.min_cond_risk_deriv(p))

    def nonevent(prob):
        p = link._clipped(prob)
        return _scalarize(-link.min_cond_risk(p) - p * -link.min_cond_risk_deriv(p))

    return ScoringRule(honest_score=honest, event_score=event, nonevent_score=nonevent)
