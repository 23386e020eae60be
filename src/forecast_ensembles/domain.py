"""Core value types: probabilities, outcomes, forecast tables, imputation.

A forecast table is the rectangular block of probability forecasts made by
N forecasters on Q resolved binary questions.  Cells are NaN-coded: a cell
holds either a probability in [0, 1] or NaN meaning the forecaster gave no
forecast for that question.  NaN can never silently act as a probability,
which is the point: anything that needs a dense matrix must go through
`impute` and say how absent cells are filled.

All values here are immutable after construction and safe to share between
concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "validate_probability",
    "validate_outcome",
    "ForecastTable",
    "ImputationPolicy",
    "impute",
]

POSITIVE = 1
NEGATIVE = -1

MAX_SEED = 2**64 - 1


def validate_probability(value: float) -> float:
    """Return ``value`` as a float, rejecting anything outside [0, 1]."""
    v = float(value)
    if not 0.0 <= v <= 1.0:  # also rejects NaN
        raise ValueError(f"probability must lie in [0, 1], got {value!r}")
    return v


def validate_outcome(label: int) -> int:
    """Return ``label`` as an int, accepting only +1 and -1."""
    v = int(label)
    if v not in (POSITIVE, NEGATIVE):
        raise ValueError(f"outcome must be +1 or -1, got {label!r}")
    return v


@dataclass(frozen=True, eq=False)
class ForecastTable:
    """Forecasts of N forecasters on Q resolved questions.

    ``forecasts[i, q]`` is forecaster i's probability that question q
    resolves positive, or NaN if no forecast was given.  Every question in
    the table is resolved to +1 or -1; unresolved questions must be dropped
    at ingestion, before construction.
    """

    question_ids: tuple[str, ...]
    forecaster_ids: tuple[str, ...]
    forecasts: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        question_ids = tuple(str(q) for q in self.question_ids)
        forecaster_ids = tuple(str(f) for f in self.forecaster_ids)
        if len(set(question_ids)) != len(question_ids):
            raise ValueError("question ids must be duplicate-free")
        if len(set(forecaster_ids)) != len(forecaster_ids):
            raise ValueError("forecaster ids must be duplicate-free")
        forecasts = np.array(self.forecasts, dtype=float)
        outcomes = np.array(self.outcomes, dtype=int)
        shape = (len(forecaster_ids), len(question_ids))
        if forecasts.shape != shape:
            raise ValueError(f"forecast matrix has shape {forecasts.shape}, expected {shape}")
        if outcomes.shape != (shape[1],):
            raise ValueError(f"outcomes have shape {outcomes.shape}, expected ({shape[1]},)")
        present = ~np.isnan(forecasts)
        if np.any(present & ((forecasts < 0.0) | (forecasts > 1.0))):
            raise ValueError("forecasts must lie in [0, 1] (or be NaN for absent)")
        if not np.isin(outcomes, (POSITIVE, NEGATIVE)).all():
            raise ValueError("outcomes must be +1 or -1")
        forecasts.setflags(write=False)
        outcomes.setflags(write=False)
        object.__setattr__(self, "question_ids", question_ids)
        object.__setattr__(self, "forecaster_ids", forecaster_ids)
        object.__setattr__(self, "forecasts", forecasts)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def n_forecasters(self) -> int:
        return len(self.forecaster_ids)

    @property
    def n_questions(self) -> int:
        return len(self.question_ids)

    @property
    def answered(self) -> np.ndarray:
        """Boolean (N, Q) mask, True where a forecast is present."""
        return ~np.isnan(self.forecasts)

    def without_question(self, index: int) -> ForecastTable:
        """Copy of the table with question ``index`` removed (used for
        leave-one-out training folds)."""
        if not 0 <= index < self.n_questions:
            raise IndexError(f"question index {index} out of range")
        keep = [q for q in range(self.n_questions) if q != index]
        return ForecastTable(
            question_ids=tuple(self.question_ids[q] for q in keep),
            forecaster_ids=self.forecaster_ids,
            forecasts=self.forecasts[:, keep],
            outcomes=self.outcomes[keep],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForecastTable):
            return NotImplemented
        return (
            self.question_ids == other.question_ids
            and self.forecaster_ids == other.forecaster_ids
            and np.array_equal(self.forecasts, other.forecasts, equal_nan=True)
            and np.array_equal(self.outcomes, other.outcomes)
        )


@dataclass(frozen=True)
class ImputationPolicy:
    """How absent forecasts are treated.

    half:    substitute 0.5
    random:  substitute a seeded uniform draw
    """

    mode: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("half", "random"):
            raise ValueError(f"unknown imputation mode {self.mode!r}")
        if not 0 <= int(self.seed) <= MAX_SEED:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def impute(table: ForecastTable, policy: ImputationPolicy) -> np.ndarray:
    """Dense (N, Q) probability matrix with absent cells filled per ``policy``.

    Present cells pass through unchanged.  Random mode is deterministic:
    the same seed and table shape always produce the same draws.
    """
    if policy.mode == "half":
        fill = np.full(table.forecasts.shape, 0.5)
    else:
        fill = np.random.default_rng(policy.seed).random(table.forecasts.shape)
    return np.where(table.answered, table.forecasts, fill)
