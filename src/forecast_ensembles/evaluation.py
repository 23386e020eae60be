"""Evaluation harness: individual baselines, leave-one-out ensembles, and a
seeded synthetic population of calibrated forecasters.

The decision rule is shared everywhere through ``classify``: a forecast is
a positive prediction only when it puts strictly more than 0.5 on the
event, and an absent forecast counts as an error for the individual
baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .combiners import (METHODS, _check_seed, _ordered_sum, classify, ensemble_predict_table,
                        train, train_folds)
from .domain import NEGATIVE, POSITIVE, ForecastTable

__all__ = [
    "QuestionResult",
    "EvalReport",
    "SyntheticSpec",
    "individual_baseline",
    "loo_evaluate",
    "generate_synthetic",
]


class QuestionResult(NamedTuple):
    question_id: str
    predicted: int
    actual: int
    probability: float


@dataclass(frozen=True)
class EvalReport:
    """Outcome of evaluating one combining method on a table; its counts come from its rows."""

    method: str
    avg_unique_forecasters: float
    per_question: tuple[QuestionResult, ...]
    best_individual_errors: int
    mean_individual_errors: float

    @property
    def questions(self) -> int:
        return len(self.per_question)

    @property
    def prediction_errors(self) -> int:
        return sum(r.predicted != r.actual for r in self.per_question)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for result in self.per_question:
            if result.predicted not in (POSITIVE, NEGATIVE) \
                    or result.actual not in (POSITIVE, NEGATIVE):
                raise ValueError("predicted and actual labels must be +1 or -1")
            if not 0.0 <= result.probability <= 1.0:  # NaN fails too
                raise ValueError("probabilities must lie in [0, 1]")
        # every model a run trains uses at least one forecaster
        if not 1.0 <= self.avg_unique_forecasters < math.inf:  # NaN fails too
            raise ValueError("average unique forecasters must be finite and at least 1")
        if not (0 <= self.best_individual_errors <= self.questions
                and 0 <= self.mean_individual_errors <= self.questions):
            raise ValueError("baseline error counts must lie in [0, questions]")


def individual_baseline(table: ForecastTable) -> tuple[np.ndarray, int, float]:
    """Error count per forecaster, plus the best and the mean.

    A forecaster errs on a question when its forecast is absent, or when
    the forecast is above 0.5 and the question resolved negative, or at or
    below 0.5 and the question resolved positive.
    """
    if table.n_forecasters < 1 or table.n_questions < 1:
        raise ValueError("cannot evaluate an empty table")
    predicted = np.where(table.forecasts > 0.5, POSITIVE, NEGATIVE)
    wrong = ~table.answered | (predicted != table.outcomes[np.newaxis, :])
    errors = wrong.sum(axis=1)
    return errors, int(errors.min()), float(errors.mean())


def loo_evaluate(table: ForecastTable, method: str, iterations: int | None = None,
                 seed: int = 0) -> EvalReport:
    """Leave-one-out evaluation: for each question, train on the others and
    predict the held-out one.

    Bagging has no trainable state, so one model predicts every question
    in one call.  The boosting methods train their fold models through
    `train_folds`, with the method's default rounds when ``iterations`` is
    None and a fold-local seed of ``seed XOR fold_index``; each model then
    predicts its held-out column.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "bagging":
        model = train(table, method)
        margins, probabilities = ensemble_predict_table(model, table.forecasts)
        unique_counts = [model.unique_forecasters] * table.n_questions
    else:
        margins, probabilities = np.empty((2, table.n_questions))
        unique_counts = []
        for q, model in enumerate(train_folds(table, method, iterations, seed)):
            margins[q:q + 1], probabilities[q:q + 1] = ensemble_predict_table(
                model, table.forecasts[:, [q]])
            unique_counts.append(model.unique_forecasters)

    per_question = tuple(map(QuestionResult, table.question_ids, map(classify, margins.tolist()),
                             table.outcomes.tolist(), probabilities.tolist()))

    _, best, mean = individual_baseline(table)
    return EvalReport(
        method=method,
        avg_unique_forecasters=float(np.mean(unique_counts)),
        per_question=per_question,
        best_individual_errors=best,
        mean_individual_errors=mean,
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic forecaster population.

    Each question carries a latent evidence signal; the outcome is the
    sign of that signal plus outcome noise, and every forecaster sees the
    signal through its own noisy channel and reports the exactly calibrated
    posterior for its observation.  ``noise`` scales both the outcome noise
    and the channels, so at noise 0 every forecaster is definite and right.
    Modes differ in where the channels come from: ``type2`` gives each
    forecaster independent observation noise, ``type1`` gives each
    forecaster a bootstrap resample of one shared pool of noisy
    observations, so forecasters differ only in which history they kept.
    ``coverage`` is the probability that a forecaster answers a question;
    ``seed``, in [0, 2**64 - 1], seeds every draw.

    Populations of two or more forecasters end with one uninformed member,
    the infinitely-noisy-channel limit, who honestly reports the prior 0.5
    wherever it answers; real pools contain such participants, and under
    boosting they anchor the constant predictor.
    """

    forecasters: int = 50
    questions: int = 200
    mode: str = "type2"
    noise: float = 1.0
    coverage: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.forecasters < 1 or self.questions < 1:
            raise ValueError("need at least one forecaster and one question")
        if self.mode not in ("type1", "type2"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (self.noise == 0 or (self.noise > 0 and 0 < self.noise * self.noise < np.inf)):
            raise ValueError("noise must be 0, or positive with a positive finite square")
        if not 0 < self.coverage <= 1:
            raise ValueError("coverage must lie in (0, 1]")
        _check_seed(self.seed)


# Prior scale of the latent signal, and the size of the shared observation
# pool resampled under type1.
_SIGNAL_SCALE = 2.0
_HISTORY_POOL = 8


def generate_synthetic(spec: SyntheticSpec) -> ForecastTable:
    """Seeded synthetic table of individually calibrated forecasters.

    Per question q: signal z_q ~ N(0, scale^2); the outcome is positive
    with probability Phi(z_q / noise) (exactly the sign of z_q at noise 0).
    Forecaster i observes z_q + nu_i * xi and reports the posterior

        Phi( k * obs / sqrt(k * nu_i^2 + noise^2) ),   k = scale^2 / (scale^2 + nu_i^2)

    which makes it calibrated with respect to its own channel.  Type2
    channels draw independent noise per forecaster with nu_i = noise;
    type1 channels average a multinomial resample of a shared pool of
    noisy observations, summed in pool order, giving correlated errors
    and per-forecaster nu_i in [noise / sqrt(pool), noise].  In
    populations of two or more the last member's channel is the nu ->
    infinity limit: its posterior is the prior 0.5 on every question (at
    noise 0 every channel, including that one, sees the signal exactly).
    """
    from scipy.special import ndtr  # imported here: only synth needs scipy

    rng = np.random.default_rng(spec.seed)
    n, q = spec.forecasters, spec.questions
    signal = rng.normal(0.0, _SIGNAL_SCALE, size=q)
    outcome_draws = rng.random(q)

    if spec.mode == "type2":
        observations = signal[np.newaxis, :] + spec.noise * rng.standard_normal((n, q))
        channel_scale = np.full(n, spec.noise)
    else:
        pool = rng.standard_normal((_HISTORY_POOL, q))
        counts = rng.multinomial(_HISTORY_POOL,
                                 [1.0 / _HISTORY_POOL] * _HISTORY_POOL, size=n)
        mix = _ordered_sum((counts.T[:, :, None] * pool[:, None, :]).reshape(_HISTORY_POOL, -1))
        observations = signal[np.newaxis, :] + (spec.noise / _HISTORY_POOL) * mix.reshape(n, q)
        channel_scale = spec.noise * np.sqrt((counts.astype(float) ** 2).sum(axis=1)) / _HISTORY_POOL

    coverage_draws = rng.random((n, q))

    if spec.noise == 0.0:
        true_prob = (signal > 0).astype(float)
        posterior = np.broadcast_to((signal > 0).astype(float), (n, q)).copy()
    else:
        true_prob = ndtr(signal / spec.noise)
        prior_var = _SIGNAL_SCALE**2
        shrink = prior_var / (prior_var + channel_scale**2)  # per forecaster
        total_sd = np.sqrt(shrink * channel_scale**2 + spec.noise**2)
        posterior = ndtr(shrink[:, np.newaxis] * observations / total_sd[:, np.newaxis])
        if n >= 2:
            posterior[-1, :] = 0.5  # the uninformed member

    outcomes = np.where(outcome_draws < true_prob, POSITIVE, NEGATIVE)
    forecasts = np.where(coverage_draws < spec.coverage, posterior, np.nan)

    width = max(4, len(str(max(n, q) - 1)))
    return ForecastTable(
        question_ids=tuple(f"q{j:0{width}d}" for j in range(q)),
        forecaster_ids=tuple(f"f{i:0{width}d}" for i in range(n)),
        forecasts=forecasts,
        outcomes=outcomes,
    )
