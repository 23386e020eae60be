"""Empirical forecaster evaluation under a proper scoring rule.

The headline number is the average realized score.  Its structure is
exposed by an exact split into a calibration part (non-positive, zero for a
perfectly calibrated forecaster) and a refinement part (how decisively the
forecaster commits to 0 or 1), estimated with equal-width probability bins.

`decompose_table` splits every forecaster of a table in one pass and
returns only the per-forecaster parts; `decompose` splits one forecaster
by the same code, so both give the same bits, and adds its per-bin
counts and frequencies.  Each forecaster's bin totals add up its members
in question order, and its bin terms are summed in bin order; an empty
bin's term is -0.0, which leaves any running total unchanged
(x + -0.0 == x, also for x = -0.0), so the sum is the one over the
filled bins alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .domain import POSITIVE, NEGATIVE
from .links import ScoringRule

__all__ = ["MAX_BINS", "BinSummary", "ScoreReport", "TableSplit", "decompose",
           "decompose_table"]


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


class TableSplit(NamedTuple):
    """`decompose_table`'s split of every forecaster of a table: entry i
    is forecaster i.  A forecaster without forecasts has count 0 and NaN
    total, calibration and refinement.  Per-bin counts and frequencies
    are not kept; `decompose` gives them for one forecaster."""

    count: np.ndarray        # (N,) forecasts given
    total: np.ndarray        # (N,)
    calibration: np.ndarray  # (N,)
    refinement: np.ndarray   # (N,)


# Most bin cells (rows times bins plus one) split at once, and the most
# bins, with which a block holds one row.  Each per-bin array of a block
# takes 8 bytes a cell and lives only while its block is split, so memory
# stays at a few MiB a block whatever the bin count.
_BLOCK_CELLS = 1 << 20
MAX_BINS = _BLOCK_CELLS - 1


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

    This is `decompose_table`'s split of a one-row table, by the same
    code: member sums in forecast order, bin terms summed in bin order,
    -0.0 for an empty bin.  ``per_bin`` holds that row's bin counts and
    positive frequencies, NaN for an empty bin.
    """
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
    _check_bins(bins)
    split, counts, frequencies = _split_rows(forecasts[np.newaxis], outcomes == POSITIVE,
                                             rule, bins)
    return ScoreReport(
        total=float(split.total[0]),
        calibration=float(split.calibration[0]),
        refinement=float(split.refinement[0]),
        bins=bins,
        per_bin=tuple(BinSummary((b + 0.5) / bins, count, frequency)
                      for b, (count, frequency) in enumerate(zip(
                          counts[0].tolist(), frequencies[0].tolist()))),
    )


def decompose_table(forecasts, outcomes, rule: ScoringRule, bins: int = 10) -> TableSplit:
    """`decompose` for every forecaster of an (N, Q) forecast matrix at
    once, NaN marking an absent forecast; ``outcomes`` are the Q labels.

    Each answered cell gets the key ``forecaster * (bins + 1) + bin``, an
    absent one the spare bin ``bins`` of its row.  One `np.bincount` over
    the row-major keys each gives the member counts, positive counts and
    forecast sums of every (forecaster, bin), adding each forecaster's
    members in question order as a bincount of its forecasts alone would.
    The rule is evaluated once on the (N, bins) arrays, elementwise and
    so bit for bit as on one row, and the bin terms are summed in bin
    order by a cumulative sum along each row, with -0.0 in every empty
    bin.  Blocks of rows are split in turn and only their (N,) parts
    are kept, so that memory stays small whatever ``bins`` is.
    """
    forecasts = np.ascontiguousarray(forecasts, dtype=float)
    outcomes = np.asarray(outcomes, dtype=int)
    if forecasts.ndim != 2 or outcomes.shape != forecasts.shape[1:]:
        raise ValueError("forecasts must be (N, Q) and outcomes of length Q")
    if np.any((forecasts < 0) | (forecasts > 1)):
        raise ValueError("forecasts must lie in [0, 1] or be NaN")
    if not np.isin(outcomes, (POSITIVE, NEGATIVE)).all():
        raise ValueError("outcomes must be +1 or -1")
    _check_bins(bins)
    positive = outcomes == POSITIVE
    rows = _BLOCK_CELLS // (bins + 1)
    blocks = [_split_rows(forecasts[start:start + rows], positive, rule, bins)[0]
              for start in range(0, max(len(forecasts), 1), rows)]
    return TableSplit(*map(np.concatenate, zip(*blocks)))


def _check_bins(bins: int) -> None:
    if not 1 <= bins <= MAX_BINS:
        raise ValueError(f"bin count must lie in [1, {MAX_BINS}]")


def _split_rows(forecasts: np.ndarray, positive: np.ndarray, rule: ScoringRule,
                bins: int) -> tuple[TableSplit, np.ndarray, np.ndarray]:
    """`decompose_table` of a block of rows, with the block's (rows, bins)
    member counts and positive frequencies (NaN in an empty bin);
    ``positive`` marks the questions that resolved positive."""
    n, width = forecasts.shape[0], bins + 1
    scaled = forecasts * bins
    np.minimum(scaled, bins - 1, out=scaled)
    scaled[np.isnan(scaled)] = bins  # the spare bin
    keys = scaled.astype(np.intp)
    del scaled
    keys += np.arange(0, n * width, width)[:, np.newaxis]

    def totals(keys, weights=None):
        return np.bincount(keys.ravel(), weights, n * width).reshape(n, width)[:, :bins]

    counts = totals(keys)
    sums = totals(keys, forecasts.ravel())
    positives = totals(keys[:, positive])
    del keys

    count = counts.sum(axis=1)
    filled = counts > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        freq = positives / counts
        mean_forecast = sums / counts
        weight = counts / count[:, np.newaxis]
        refinement = weight * rule.honest_score(freq)
        calibration = weight * (
            freq * (rule.event_score(mean_forecast) - rule.event_score(freq))
            + (1.0 - freq) * (rule.nonevent_score(mean_forecast) - rule.nonevent_score(freq)))
    answered = count > 0
    refinement, calibration = (
        np.where(answered, np.cumsum(np.where(filled, terms, -0.0), axis=1)[:, -1], np.nan)
        for terms in (refinement, calibration))
    return (TableSplit(count, calibration + refinement, calibration, refinement),
            counts, np.where(filled, freq, np.nan))
