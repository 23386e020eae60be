"""Empirical forecaster evaluation under a proper scoring rule.

The headline number is the average realized score.  Its structure is
exposed by an exact split into a calibration part (non-positive, zero for a
perfectly calibrated forecaster) and a refinement part (how decisively the
forecaster commits to 0 or 1), estimated with equal-width probability bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .domain import POSITIVE, NEGATIVE
from .links import ScoringRule

__all__ = ["BinSummary", "ScoreReport", "empirical_score", "decompose"]


class BinSummary(NamedTuple):
    center: float
    count: int
    frequency: float  # NaN when the bin is empty


@dataclass(frozen=True)
class ScoreReport:
    """Average score split exactly as total = calibration + refinement.

    Calibration is never positive: it is the score lost to dishonest or
    distorted forecasts.  Refinement is the score a perfectly recalibrated
    version of the same forecasts would earn; it grows as the per-bin
    outcome frequencies concentrate near 0 and 1.
    """

    total: float
    calibration: float
    refinement: float
    bins: int
    per_bin: tuple[BinSummary, ...]


def _validated(forecasts, outcomes) -> tuple[np.ndarray, np.ndarray]:
    forecasts = np.asarray(forecasts, dtype=float)
    outcomes = np.asarray(outcomes, dtype=int)
    if forecasts.ndim != 1 or outcomes.shape != forecasts.shape:
        raise ValueError("forecasts and outcomes must be 1-d and of equal length")
    if forecasts.size == 0:
        raise ValueError("cannot score an empty forecast list")
    if np.any(np.isnan(forecasts)) or np.any((forecasts < 0) | (forecasts > 1)):
        raise ValueError("forecasts must lie in [0, 1]")
    if not np.isin(outcomes, (POSITIVE, NEGATIVE)).all():
        raise ValueError("outcomes must be +1 or -1")
    return forecasts, outcomes


def empirical_score(forecasts: Sequence[float], outcomes: Sequence[int],
                    rule: ScoringRule) -> float:
    """Average realized score: event_score for questions that resolved
    positive, nonevent_score otherwise."""
    forecasts, outcomes = _validated(forecasts, outcomes)
    scores = np.where(outcomes == POSITIVE,
                      rule.event_score(forecasts),
                      rule.nonevent_score(forecasts))
    return float(scores.mean())


def decompose(forecasts: Sequence[float], outcomes: Sequence[int],
              rule: ScoringRule, bins: int = 10) -> ScoreReport:
    """Split the average score into calibration and refinement parts.

    Forecasts are grouped into ``bins`` equal-width bins over [0, 1], with
    a forecast of exactly 1.0 assigned to the top bin.  Within bin b let
    n_b be the member count, f_b the empirical positive frequency, and m_b
    the mean member forecast.  Then

        refinement  = sum_b (n_b / n) * honest_score(f_b)
        calibration = sum_b (n_b / n) * [ f_b * (event_score(m_b) - event_score(f_b))
                                        + (1 - f_b) * (nonevent_score(m_b) - nonevent_score(f_b)) ]
        total       = calibration + refinement

    which equals the average score with every forecast replaced by its
    bin's mean forecast.  Bin representatives are member means rather than
    bin centers precisely so that this identity is exact; empty bins
    contribute nothing.

    Member counts, positive counts and forecast sums come from one
    ``np.bincount`` each over the bin index, and the rule is evaluated
    once per score function on the arrays of non-empty bins.  The bin
    terms are summed in bin order, as a running total over the bins would.
    """
    forecasts, outcomes = _validated(forecasts, outcomes)
    if bins < 1:
        raise ValueError("bin count must be at least 1")
    index = np.minimum((forecasts * bins).astype(int), bins - 1)
    counts = np.bincount(index, minlength=bins)
    positives = np.bincount(index, weights=outcomes == POSITIVE, minlength=bins)
    sums = np.bincount(index, weights=forecasts, minlength=bins)

    filled = counts > 0
    freq = positives[filled] / counts[filled]
    mean_forecast = sums[filled] / counts[filled]
    weight = counts[filled] / forecasts.size
    refinement = float(np.cumsum(weight * rule.honest_score(freq))[-1])
    calibration = float(np.cumsum(weight * (
        freq * (rule.event_score(mean_forecast) - rule.event_score(freq))
        + (1.0 - freq) * (rule.nonevent_score(mean_forecast) - rule.nonevent_score(freq))
    ))[-1])

    frequencies = np.full(bins, np.nan)
    frequencies[filled] = freq
    return ScoreReport(
        total=calibration + refinement,
        calibration=calibration,
        refinement=refinement,
        bins=bins,
        per_bin=tuple(BinSummary((b + 0.5) / bins, int(counts[b]), float(frequencies[b]))
                      for b in range(bins)),
    )
