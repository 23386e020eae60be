"""Per-forecaster reference implementation of the score split.

This is the package's `decompose` as it was before it split a whole table
in one pass, with the `score` subcommand's loop that called it once per
forecaster: three `np.bincount` calls over one forecaster's answered
cells, the rule evaluated on its filled bins only, and the bin terms
summed in bin order.  It pins `scoring.decompose_table` and
`scoring.decompose` down bit for bit.
"""

from __future__ import annotations

import numpy as np

from forecast_ensembles.scoring import BinSummary, ScoreReport

POSITIVE = 1


def decompose(forecasts, outcomes, rule, bins: int = 10) -> ScoreReport:
    forecasts = np.asarray(forecasts, dtype=float)
    outcomes = np.asarray(outcomes, dtype=int)
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


def score_table(forecasts, outcomes, rule, bins: int = 10) -> list[ScoreReport | None]:
    """One report per row of an (N, Q) matrix with NaN for an absent
    forecast, None for a row without forecasts."""
    forecasts = np.asarray(forecasts, dtype=float)
    outcomes = np.asarray(outcomes, dtype=int)
    answered_cells = ~np.isnan(forecasts)
    reports = []
    for i in range(forecasts.shape[0]):
        answered = answered_cells[i]
        if not answered.any():
            reports.append(None)
            continue
        reports.append(decompose(forecasts[i, answered], outcomes[answered], rule, bins))
    return reports
