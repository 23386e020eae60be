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


# W. J. Cody's rational Chebyshev approximations to erf and erfc (Math.
# Comp. 23, 1969), with the coefficients of netlib's CALERF, each table in
# CALERF's order (`_ratio`): erf(x) / x in x^2 on |x| <= 0.46875,
# exp(x^2) erfc(x) in x on (0.46875, 4], and x exp(x^2) erfc(x) in 1 / x^2
# on (4, XBIG]; past XBIG erfc(x) / 2 is below the least normal double.
_ERF_NUM = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
            3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_DEN = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
            2.84423683343917062e03)
_ERFC_NUM = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
             2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
             2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_DEN = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
             1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
             3.43936767414372164e03, 1.23033935480374942e03)
_TAIL_NUM = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
             1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_TAIL_DEN = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
             6.05183413124413191e-2, 2.33520497626869185e-3)
_ERF_SWITCH = 0.46875
_TAIL_SWITCH = 4.0
_XBIG = 26.543
_INV_SQRT_PI = 5.6418958354775628695e-1
_SQRT_HALF = math.sqrt(0.5)

# fdlibm's exp (e_exp.c): x = k ln2 + r with ln2 split so that k * _LN2_HI
# is exact, and a degree-5 Remez polynomial in r^2 for the rest.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
_EXP_POLY = (1.66666666666666019037e-01, -2.77777777770155933842e-03,
             6.61375632143793436117e-05, -1.65339022054652515390e-06,
             4.13813679705723846039e-08)

# Cells evaluated at a time: enough that numpy's per-call cost is small,
# and few enough that `_ndtr`'s temporaries stay in the CPU's cache (8 Ki
# was the fastest of 2-32 Ki on the paper and panel tables).
_NDTR_BLOCK = 1 << 13


def _exp(a: np.ndarray, b: np.ndarray | float) -> np.ndarray:
    """exp(a + b) for a + b in [-708, 0] by fdlibm's method, within 1 ulp
    where the sum is a double.

    With k the integer nearest (a + b) / ln2 (rounding a + b only
    chooses k), b is added to a - k * _LN2_HI, which is below 4.4 in
    magnitude, so one exp of two parts loses less than a product of two
    exps would.  That difference must be exact: it is for any a when b
    is 0, and for a a multiple of 2^-8 when |b| <= 4."""
    k = np.rint((a + b) * _INV_LN2)
    hi = (a - k * _LN2_HI) + b
    lo = k * _LN2_LO
    r = hi - lo
    t = r * r
    poly = _EXP_POLY[-1]
    for coefficient in _EXP_POLY[-2::-1]:
        poly = coefficient + t * poly
    c = r - t * poly
    return np.ldexp(1.0 - ((lo - (r * c) / (2.0 - c)) - hi), k.astype(np.int32))


def _ratio(x: np.ndarray, numerator: tuple, denominator: tuple) -> np.ndarray:
    """CALERF's rational function in x: the last numerator coefficient
    leads, and the denominator is monic."""
    num, den = numerator[-1] * x, x.copy()
    for a, b in zip(numerator[:-2], denominator[:-1]):
        num += a
        num *= x
        den += b
        den *= x
    num += numerator[-2]
    den += denominator[-1]
    num /= den
    return num


def _ndtr(z: np.ndarray) -> np.ndarray:
    """The standard normal CDF of a 1-D array, Phi(z) = erfc(-z / sqrt(2)) / 2,
    within 9 ulp of ``0.5 * math.erfc(-z * sqrt(0.5))`` wherever that is
    at least the smallest normal double.

    erfc(x) comes from Cody's three ranges.  Past ``_XBIG`` it is 0, so
    Phi is 0.0 in the far lower tail and 1.0 in the far upper one.  The
    first two ranges are evaluated on every element and the right one
    kept, with each argument clamped into its range so that no step
    overflows; the third, beyond 5.6 standard deviations, only where it
    is needed.  Only +, -, *, / and operations with exact results
    (``abs``, ``clip``, ``trunc``, ``rint``, ``ldexp``, ``copysign``,
    ``where``) touch the data, and numpy rounds those the same at every
    SIMD level, so the bits do not depend on the CPU, as ``np.exp``'s do."""
    x = z * -_SQRT_HALF
    y = np.minimum(np.abs(x), _XBIG)
    near = np.clip(x, -_ERF_SWITCH, _ERF_SWITCH)
    erf_near = near * _ratio(near * near, _ERF_NUM, _ERF_DEN)
    scaled = _ratio(y, _ERFC_NUM, _ERFC_DEN)  # exp(y^2) erfc(y)
    tail = np.flatnonzero(y > _TAIL_SWITCH)
    far = y[tail]
    inverse = 1.0 / (far * far)
    scaled[tail] = (_INV_SQRT_PI - inverse * _ratio(inverse, _TAIL_NUM, _TAIL_DEN)) / far
    # exp(-y^2) as exp(-w^2 - (y - w)(y + w)), w = y rounded down to a
    # sixteenth, so that its first part is exact
    w = np.trunc(y * 16.0) / 16.0
    half_erfc_y = 0.5 * _exp(-w * w, -(y - w) * (y + w)) * scaled
    half_erfc_y[y >= _XBIG] = 0.0
    # Phi = erfc(x) / 2 is 1 - erfc(|x|) / 2 where x < 0, and each
    # halving below is exact, so 0.5 - erf / 2 is (1 - erf) / 2
    return np.where(y <= _ERF_SWITCH, 0.5 - 0.5 * erf_near,
                    (x < 0) + np.copysign(half_erfc_y, x))


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

    Phi is the package's own `_ndtr`, so the bits are the same at every
    SIMD level numpy runs at.  It is evaluated only on the cells a
    forecaster answers, after all of the draws, in blocks of
    ``_NDTR_BLOCK`` cells, into the buffer that held the observations.
    """
    rng = np.random.default_rng(spec.seed)
    n, q = spec.forecasters, spec.questions
    signal = rng.normal(0.0, _SIGNAL_SCALE, size=q)
    outcome_draws = rng.random(q)

    if spec.mode == "type2":
        observations = rng.standard_normal((n, q))
        observations *= spec.noise
        channel_scale = np.full(n, spec.noise)
    else:
        pool = rng.standard_normal((_HISTORY_POOL, q))
        counts = rng.multinomial(_HISTORY_POOL,
                                 [1.0 / _HISTORY_POOL] * _HISTORY_POOL, size=n)
        observations = _ordered_sum(counts[:, k, np.newaxis] * pool[k]
                                    for k in range(_HISTORY_POOL))
        observations *= spec.noise / _HISTORY_POOL
        channel_scale = spec.noise * np.sqrt((counts.astype(float) ** 2).sum(axis=1)) / _HISTORY_POOL
    observations += signal

    covered = rng.random((n, q)) < spec.coverage

    if spec.noise == 0.0:
        true_prob = (signal > 0).astype(float)
        forecasts = np.where(covered, true_prob, np.nan)
    else:
        true_prob = _ndtr(signal / spec.noise)
        prior_var = _SIGNAL_SCALE**2
        shrink = prior_var / (prior_var + channel_scale**2)  # per forecaster
        total_sd = np.sqrt(shrink * channel_scale**2 + spec.noise**2)
        observations *= shrink[:, np.newaxis]
        observations /= total_sd[:, np.newaxis]
        if n >= 2:
            observations[-1, :] = 0.0  # the uninformed member: Phi(0) is exactly 0.5
        forecasts = observations
        flat, flat_covered = forecasts.reshape(-1), covered.reshape(-1)  # views
        for start in range(0, flat.size, _NDTR_BLOCK):
            block = flat[start:start + _NDTR_BLOCK]
            answered = np.flatnonzero(flat_covered[start:start + _NDTR_BLOCK])
            posterior = _ndtr(block[answered])
            block.fill(np.nan)
            block[answered] = posterior

    outcomes = np.where(outcome_draws < true_prob, POSITIVE, NEGATIVE)

    width = max(4, len(str(max(n, q) - 1)))
    return ForecastTable(
        question_ids=tuple(f"q{j:0{width}d}" for j in range(q)),
        forecaster_ids=tuple(f"f{i:0{width}d}" for i in range(n)),
        forecasts=forecasts,
        outcomes=outcomes,
    )
