"""Ensemble constructions over a forecast table.

Three combiners are provided:

* bagging: the ensemble forecast is the plain average of all forecasters'
  probabilities, with absent forecasts counted as 0.5.
* adaboost: stagewise selection of sign predictors (forecast above 0.5
  means the event side).  Each round picks the forecaster with the least
  weighted error mass, weights it by half the log odds of its error rate,
  and upweights the questions it got wrong.
* realboost: stagewise selection of log-odds predictors.  Each round picks
  the forecaster minimizing the weighted exponential objective
  sum_i w_i * exp(-y_i * m_ij) and reweights by the same factors; selected
  predictors enter with unit weight.

A trained model applies to one question's forecast vector and yields a
margin plus a probability; boosting models recover the probability through
the exponential family's inverse link, bagging reports the mean forecast
directly.  A model is its rounds plus the link, imputation policy and
forecaster ids needed to apply them; it keeps nothing of the training
table.

Every boosting round is an argmin over forecasters of a weighted total
over questions.  The trainers build their per-question factors once,
question-major (Q, N), and `_ordered_totals` sums them row after row into
one buffer reused every round, so each total is accumulated in question
order: tied forecasters tie exactly and the lowest index wins.

Training is inherently sequential (weights depend on previous rounds), but
trained models are immutable and safe to share across threads.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    NEGATIVE,
    POSITIVE,
    ForecastTable,
    ImputationPolicy,
    impute,
)
from .links import LinkSpec

__all__ = [
    "METHODS",
    "DEFAULT_ITERATIONS",
    "EnsembleModel",
    "bag",
    "adaboost_train",
    "realboost_train",
    "ensemble_predict",
    "classify",
    "stage_weight",
    "weighted_error_argmin",
    "exponential_objective_argmin",
]

logger = logging.getLogger(__name__)

# The link and imputation mode each method trains with, and predicts by.
_METHOD_LINK_AND_IMPUTATION = {
    "bagging": ("linear", "half"),
    "adaboost": ("exponential", "random"),
    "realboost": ("exponential", "half"),
}

METHODS = tuple(_METHOD_LINK_AND_IMPUTATION)

# Iteration counts used when the caller does not choose.
DEFAULT_ITERATIONS = {"adaboost": 800, "realboost": 70}

# Error rates are clamped away from 0 and 1 so the stage weight stays finite.
_ERROR_CLAMP = 1e-8


@dataclass(frozen=True)
class EnsembleModel:
    """A trained combiner.

    ``rounds`` lists (forecaster index, stage weight) in selection order;
    bagging uses every forecaster once with weight 1/N.  ``imputation`` is
    the policy captured at training time; `ensemble_predict` fills absent
    forecasts by it, on training questions and new ones alike.  ``link``
    and ``imputation`` must be the ones the method trains with.
    """

    method: str
    rounds: tuple[tuple[int, float], ...]
    link: LinkSpec
    imputation: ImputationPolicy
    forecaster_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        link_name, mode = _METHOD_LINK_AND_IMPUTATION[self.method]
        if (self.link.name, self.imputation.mode) != (link_name, mode):
            raise ValueError(f"a {self.method} model needs the {link_name} link and "
                             f"{mode!r} imputation, got {self.link.name} and "
                             f"{self.imputation.mode!r}")
        if len(self.rounds) < 1:
            raise ValueError("a model must contain at least one round")
        n = len(self.forecaster_ids)
        for index, weight in self.rounds:
            if not 0 <= index < n:
                raise ValueError(f"round references forecaster {index}, table has {n}")
            if not math.isfinite(weight):
                raise ValueError("stage weights must be finite")
            if self.method == "adaboost" and weight < 0:
                raise ValueError("adaboost stage weights must be non-negative")

    @property
    def n_forecasters(self) -> int:
        return len(self.forecaster_ids)

    @property
    def unique_forecasters(self) -> int:
        """Number of distinct forecasters the model actually uses."""
        return len({index for index, _ in self.rounds})


def stage_weight(error_rate: float) -> float:
    """Half the log odds of being right: log((1 - e) / e) / 2, with the
    rate clamped to [1e-8, 1 - 1e-8] so the weight stays finite."""
    e = min(max(float(error_rate), _ERROR_CLAMP), 1.0 - _ERROR_CLAMP)
    return 0.5 * math.log((1.0 - e) / e)


def _ordered_totals(factors: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Column totals of ``factors * weights[:, None]``, each accumulated
    strictly in question order.

    ``factors`` is question-major, (Q, N): one row per question, one
    column per forecaster; the trainers keep it C-contiguous so the
    multiply streams.  ``out`` is a C-contiguous (Q, N) float buffer that
    receives the products, so a trainer allocates it once and reuses it
    every round.  Only its layout sets the order: summing ``out`` over its
    outer axis makes numpy add whole rows one after another, which gives
    every column the rounding of a plain left-to-right scalar loop;
    mathematically tied columns therefore tie exactly and the argmin goes
    to the lowest index.

    Blocked summations break that: BLAS ``F @ w`` rounds in blocks, a sum
    along a contiguous axis is pairwise, and ``np.einsum`` may use fused
    multiply-adds depending on how numpy was built.  For the same reason a
    lone column (N == 1) takes ``np.cumsum``: numpy collapses a (Q, 1)
    reduction to one axis and would sum it pairwise.
    """
    np.multiply(factors, weights[:, np.newaxis], out=out)
    if out.shape[1] == 1 and len(out):
        return np.cumsum(out, axis=0)[-1]
    return out.sum(axis=0)


def _ordered_sum(values: np.ndarray) -> float:
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _least_total(factors: np.ndarray, weights: np.ndarray,
                 out: np.ndarray) -> tuple[int, np.float64]:
    totals = _ordered_totals(factors, weights, out)
    j = int(np.argmin(totals))
    return j, totals[j]


def weighted_error_argmin(weights: np.ndarray, mispredictions: np.ndarray) -> tuple[int, float]:
    """Forecaster with the least weighted error mass.

    ``mispredictions`` is an (N, n) 0/1 matrix over forecasters and
    questions.  Returns (index, error rate), the rate normalized by the
    total weight; ties resolve to the lowest index, with totals accumulated
    in question order so ties are exact.  Both the selection and the rate
    are invariant to scaling all weights by a positive constant.
    """
    mistakes = mispredictions.T
    j, mass = _least_total(mistakes, weights, np.empty(mistakes.shape))
    return j, float(mass / _ordered_sum(weights))


def exponential_objective_argmin(weights: np.ndarray, margins: np.ndarray,
                                 outcomes: np.ndarray) -> tuple[int, float]:
    """Forecaster minimizing sum_i w_i * exp(-y_i * m_ij).

    ``margins`` is (N, n); ties resolve to the lowest index, with totals
    accumulated in question order so ties are exact.  A forecaster that
    abstains everywhere (all-zero margins) scores exactly the total weight,
    i.e. 1.0 under normalized weights.
    """
    factors = np.exp(-outcomes[:, np.newaxis] * margins.T)
    j, objective = _least_total(factors, weights, np.empty(factors.shape))
    return j, float(objective)


def _check_trainable(table: ForecastTable, iterations: int) -> None:
    if table.n_forecasters < 1 or table.n_questions < 1:
        raise ValueError("cannot train on an empty table")
    if iterations < 1:
        raise ValueError("iteration count must be at least 1")


def bag(table: ForecastTable) -> EnsembleModel:
    """Equal-weight average of all forecasters (absent cells read as 0.5)."""
    if table.n_forecasters < 1 or table.n_questions < 1:
        raise ValueError("cannot bag an empty table")
    n = table.n_forecasters
    return EnsembleModel(
        method="bagging",
        rounds=tuple((j, 1.0 / n) for j in range(n)),
        link=LinkSpec("linear"),
        imputation=ImputationPolicy("half"),
        forecaster_ids=table.forecaster_ids,
    )


def adaboost_train(table: ForecastTable, iterations: int, seed: int = 0) -> EnsembleModel:
    """Stagewise boosting of sign predictors.

    Absent forecasts are filled once with seeded uniform draws over the
    whole table (`impute`).  The draws are not kept: predictions, on the
    training questions too, fill absent cells by the rule of
    `ensemble_predict`.  Each round selects the forecaster with the least
    weighted error mass (ties to the lowest index), then reweights the
    training questions; weights are renormalized every round, which leaves
    both the selection and the stage weight unchanged.  Rounds stop early
    once no forecaster beats chance under the current weights; if that
    happens on the very first round the best forecaster is kept with a
    zero stage weight so the model still exists (it then always predicts a
    margin of zero).
    """
    _check_trainable(table, iterations)
    policy = ImputationPolicy("random", seed)
    dense = impute(table, policy)
    base = np.where(dense.T > 0.5, POSITIVE, NEGATIVE)
    mistaken = base != table.outcomes[:, np.newaxis]  # (Q, N)
    wrong = mistaken.astype(float, order="C")
    scratch = np.empty_like(wrong)
    weights = np.full(table.n_questions, 1.0 / table.n_questions)

    rounds: list[tuple[int, float]] = []
    for round_index in range(iterations):
        picked, mass = _least_total(wrong, weights, scratch)
        error_rate = mass / _ordered_sum(weights)
        if error_rate >= 0.5:
            if not rounds:
                logger.warning("no forecaster beats chance; emitting a single "
                               "zero-weight round")
                rounds.append((picked, 0.0))
            else:
                logger.info("stopping after %d rounds: no forecaster beats "
                            "chance under the current weights", round_index)
            break
        alpha = stage_weight(error_rate)
        rounds.append((picked, alpha))
        # math.exp rounds as the scalar reference does; only the questions
        # the pick got wrong are scaled
        np.multiply(weights, math.exp(alpha), out=weights, where=mistaken[:, picked])
        weights /= _ordered_sum(weights)

    return EnsembleModel(
        method="adaboost",
        rounds=tuple(rounds),
        link=LinkSpec("exponential"),
        imputation=policy,
        forecaster_ids=table.forecaster_ids,
    )


def realboost_train(table: ForecastTable, iterations: int) -> EnsembleModel:
    """Stagewise boosting of log-odds predictors.

    Absent forecasts read as 0.5, i.e. a zero-margin abstention.  Each
    round selects the forecaster minimizing the weighted exponential
    objective and reweights by its per-question factors; every selected
    predictor enters with unit weight.  A round whose best objective
    exceeds 1 means no forecaster beats the constant predictor under the
    current weights; it is kept but flagged, since it raises the ensemble's
    exponential risk.
    """
    _check_trainable(table, iterations)
    policy = ImputationPolicy("half")
    link = LinkSpec("exponential")
    margins = link.link(impute(table, policy))
    # (Q, N), fixed across rounds
    loss_factors = np.ascontiguousarray(np.exp(-table.outcomes[:, np.newaxis] * margins.T))
    scratch = np.empty_like(loss_factors)
    weights = np.full(table.n_questions, 1.0 / table.n_questions)

    rounds: list[tuple[int, float]] = []
    for round_index in range(iterations):
        picked, objective = _least_total(loss_factors, weights, scratch)
        # 1e-9 of slack so a plateau at exactly 1.0 does not warn on rounding
        if objective > 1.0 + 1e-9:
            logger.warning("round %d: best objective %.6g exceeds 1; no "
                           "forecaster beats the constant predictor",
                           round_index + 1, objective)
        rounds.append((picked, 1.0))
        weights = weights * loss_factors[:, picked]
        weights /= _ordered_sum(weights)

    return EnsembleModel(
        method="realboost",
        rounds=tuple(rounds),
        link=link,
        imputation=policy,
        forecaster_ids=table.forecaster_ids,
    )


def _filled_vector(model: EnsembleModel, forecasts: np.ndarray) -> np.ndarray:
    present = ~np.isnan(forecasts)
    if np.any(present & ((forecasts < 0) | (forecasts > 1))):
        raise ValueError("forecasts must lie in [0, 1] (or be NaN for absent)")
    if model.imputation.mode != "random":
        return np.where(present, forecasts, 0.5)
    fill = np.random.default_rng(model.imputation.seed).random(forecasts.shape)
    return np.where(present, forecasts, fill)


def ensemble_predict(model: EnsembleModel, forecasts) -> tuple[float, float]:
    """Apply the combiner to one question's length-N forecast vector.

    ``forecasts`` holds one entry per model forecaster, NaN where a
    forecaster abstained.  Absent cells read as 0.5 under the "half"
    policy; under "random" (adaboost) forecaster i's absent cell takes
    entry i of ``default_rng(seed).random(N)``, the same draw on every
    question.  Returns (margin, probability).
    """
    forecasts = np.asarray(forecasts, dtype=float)
    if forecasts.shape != (model.n_forecasters,):
        raise ValueError(f"expected {model.n_forecasters} forecasts, "
                         f"got shape {forecasts.shape}")
    filled = _filled_vector(model, forecasts)

    if model.method == "bagging":
        probability = float(filled.mean())
        return float(model.link.link(probability)), probability

    if model.method == "adaboost":
        base = np.where(filled > 0.5, 1.0, -1.0)
    else:
        base = np.asarray(model.link.link(filled), dtype=float)
    indices = np.fromiter((j for j, _ in model.rounds), dtype=int, count=len(model.rounds))
    alphas = np.fromiter((a for _, a in model.rounds), dtype=float, count=len(model.rounds))
    margin = float(alphas @ base[indices])
    return margin, float(model.link.inverse_link(margin))


def classify(margin: float) -> int:
    """Decision rule on the margin scale: strictly positive means the event
    side; zero does not (an abstaining ensemble predicts negative)."""
    m = float(margin)
    if not math.isfinite(m):
        raise ValueError(f"margin must be finite, got {margin!r}")
    return POSITIVE if m > 0 else NEGATIVE
