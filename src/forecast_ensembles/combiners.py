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

The method fixes the loss, the link (`_METHOD_LINK`), its clip and how
absent forecasts are filled (`ensemble_predict_table`), so a trained model
is its method, the forecaster ids, a boosting method's rounds, which
index them, and, for adaboost, the seed of its fill; it keeps nothing of
the training table.
`train` runs any method, with its default rounds when the caller does not
choose, and `train_folds` trains a boosting method's leave-one-out fold
models.  A model applies to an (N, Q) forecast table
(`ensemble_predict_table`) and yields a margin plus a probability per
question: boosting sums its rounds' terms in selection order and recovers
the probability through the exponential family's inverse link, bagging
sums the forecasts in order and divides by N.  No BLAS product or
pairwise sum decides a prediction's bits.

Every boosting round is an argmin over forecasters of a weighted total
over questions, and the specification is exact: each total is
accumulated in question order, as a left-to-right scalar loop would, and
ties go to the lowest index.  The trainers build their per-question
factors once, question-major (Q, N), and hand them to `_LeastTotal`,
which finds that argmin at BLAS speed without changing it.  Once per
training, or once per leave-one-out, it keeps only the first of each set
of identical columns.  Each round it screens all columns with one BLAS
matrix-vector product, keeps the few whose screened total lies within
the forward error bound of sums of non-negative terms (Higham 2002, sec.
4.2) of the least one, and sums only those in question order.  The
bound holds for any summation order, so picks and totals do not depend
on how BLAS sums or on how many threads it uses.

A round is a pure function of the question weights, so a round that
leaves them bit for bit as they were is repeated by every later one.  The
trainers stop computing there and fill the rounds left with copies of it
(one info line says where).  Adaboost tests for it when the pick's error
mass is 0.0 and the weights' ordered total is 1.0: the reweighting then
scales only zero weights and divides by 1.0.  Realboost tests for it when
the objective is 1.0 and the pick's factors leave every weight as it was;
any other round pays one scalar comparison.  Models are the same, bit for
bit, as those of training every round.

Realboost's factors of a fold are the full table's without the held-out
question's row, since an absent forecast reads as 0.5 whatever the fold.
So `train_folds` builds them and their column collapse once
(`_loss_factors`, the one builder, and `_LeastTotal`) and hands each fold
the kept columns without its row (`_LeastTotal.without_row`); columns
identical on the table are identical on every fold, and a tie on one fold
only is left to the ordered recheck.  Realboost reweights by the products
its objective summed.  Adaboost folds each draw their own fill from
``seed ^ q`` and build their own.

Training is inherently sequential (weights depend on previous rounds), but
trained models are immutable and safe to share across threads.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .domain import MAX_SEED, NEGATIVE, POSITIVE, ForecastTable
from .links import LinkSpec

__all__ = [
    "METHODS",
    "DEFAULT_ITERATIONS",
    "EnsembleModel",
    "train",
    "train_folds",
    "bag",
    "adaboost_train",
    "realboost_train",
    "ensemble_predict_table",
    "classify",
]

logger = logging.getLogger(__name__)

# The link each method trains with, and predicts by.
_METHOD_LINK = {
    "bagging": LinkSpec("linear"),
    "adaboost": LinkSpec("exponential"),
    "realboost": LinkSpec("exponential"),
}

METHODS = tuple(_METHOD_LINK)

# Rounds each boosting method trains for when the caller does not choose.
DEFAULT_ITERATIONS = {"adaboost": 800, "realboost": 70}

# Error rates are clamped away from 0 and 1 so the stage weight stays finite.
_ERROR_CLAMP = 1e-8

# Unit roundoff and smallest normal number of a float64.
_UNIT_ROUNDOFF = 2.0 ** -53
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class EnsembleModel:
    """A trained combiner.

    ``rounds`` lists a boosting model's (forecaster index, stage weight)
    pairs in selection order, at least one; bagging averages every
    forecaster, so it learns nothing and has none.  ``seed`` is the seed
    of adaboost's fill, and 0 for the other methods, which fill by a rule
    with no seed: `ensemble_predict_table` fills absent forecasts by the
    method's rule, on training questions and new ones alike.  The link is
    the method's own.
    """

    method: str
    rounds: tuple[tuple[int, float], ...]
    forecaster_ids: tuple[str, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.seed and self.method != "adaboost":
            raise ValueError(f"a {self.method} model has no seed: its seed must be 0")
        n = len(self.forecaster_ids)
        if n < 1 or len(set(self.forecaster_ids)) != n:
            raise ValueError("forecaster ids must be one or more, duplicate-free")
        if (self.method == "bagging") != (not self.rounds):
            raise ValueError("a boosting model has at least one round, a bagging model none")
        for index, weight in self.rounds:
            if not 0 <= index < n:
                raise ValueError(f"round references forecaster {index}, table has {n}")
            if not math.isfinite(weight):
                raise ValueError("stage weights must be finite")
            if self.method == "adaboost" and weight < 0:
                raise ValueError("adaboost stage weights must be non-negative")

    @property
    def link(self) -> LinkSpec:
        return _METHOD_LINK[self.method]

    @property
    def n_forecasters(self) -> int:
        return len(self.forecaster_ids)

    @property
    def unique_forecasters(self) -> int:
        """Number of distinct forecasters the model actually uses: all of
        them under bagging, which alone has no rounds."""
        return len({index for index, _ in self.rounds}) or self.n_forecasters


def stage_weight(error_rate: float) -> float:
    """Half the log odds of being right: log((1 - e) / e) / 2, with the
    rate clamped to [1e-8, 1 - 1e-8] so the weight stays finite."""
    e = min(max(float(error_rate), _ERROR_CLAMP), 1.0 - _ERROR_CLAMP)
    return 0.5 * math.log((1.0 - e) / e)


def _ordered_sum(values: np.ndarray):
    """Sum over axis 0 of 1-D or 2-D input, bit for bit a left-to-right
    loop from 0.0; a 1-D sum comes back as a Python float.  numpy adds
    the rows of a C-contiguous array with two or more columns one after
    another; it would sum a vector, a lone column or an F-ordered array
    pairwise, so those take a running sum: ``np.cumsum``, or for a vector
    the ufunc it calls, ``np.add.accumulate``, which skips the method's
    overhead.  Adding 0.0 turns a total of -0.0 into the loop's +0.0 and
    changes no other."""
    if values.ndim == 1:
        return float(np.add.accumulate(values)[-1]) + 0.0
    if values.shape[1] > 1 and values.flags.c_contiguous:
        total = values.sum(axis=0)
    else:
        total = values.cumsum(axis=0)[-1]
    total += 0.0
    return total


class _LeastTotal:
    """Exact argmin of the ordered column totals of one training's factors.

    Called with the round's question weights, it returns (index, total):
    the lowest column index among the least totals of
    ``factors * weights[:, None]``, each total accumulated strictly in
    question order (`_ordered_sum`), as if every column had been summed by
    a left-to-right scalar loop.  Only the work of finding that argmin is
    cut, in three ways.

    * Column collapse.  Byte-identical columns have identical ordered
      totals, so only the first of each is kept, once per training or,
      through `without_row`, once per leave-one-out; the lowest index of
      a tie stays the one returned.
    * Screen.  ``weights @ factors`` goes to BLAS, which may sum in any
      order, in blocks, with or without fused multiply-adds and on any
      number of threads.  All terms are non-negative, so every computed
      total, the screen's and the ordered one alike, lies within a
      relative gamma = (Q+2)u / (1 - (Q+2)u) of the exact sum, u being the
      unit roundoff (Higham 2002, *Accuracy and Stability of Numerical
      Algorithms*, sec. 4.2; Q + 2 rather than Q leaves room for the
      rounding of the threshold itself).  A product below the smallest
      normal number may lose up to that number whole (gradual underflow,
      or a flush to zero), which adds an absolute Q * tiny to each side.
      A column can therefore be the ordered minimum only if its screened
      total is at most ((1+gamma)/(1-gamma))**2 * (min + 4 Q tiny); every
      other column is dropped.
    * Recheck.  The columns under the limit are counted, not listed.  A
      lone one is the least screened column, and only its products are
      summed in question order; several are gathered and summed in
      question order.  A NaN screen puts no column under the limit, and
      then every column is a candidate.

    The screen only decides which columns get summed in order, and the
    bound holds for every summation order, so picks and totals do not
    depend on the BLAS build, its kernel or its thread count.  The
    instance counts the candidates it rechecked, and keeps as ``products``
    the pick's column of ``factors * weights[:, None]``, the terms its
    total summed.
    """

    def __init__(self, factors: np.ndarray) -> None:
        # each column's bytes as one void scalar, listed as bytes objects
        keys = np.ascontiguousarray(factors.T).view(
            np.dtype((np.void, factors.itemsize * factors.shape[0]))).ravel().tolist()
        first: dict[bytes, int] = {}
        for j, key in enumerate(keys):
            first.setdefault(key, j)
        self.columns = list(first.values())
        self.n_columns = factors.shape[1]
        if len(first) < self.n_columns:
            # the gather comes back in F order; keep the question-major
            # layout the trainers build
            factors = np.ascontiguousarray(factors[:, self.columns])
        self._bind(factors)

    def without_row(self, row: int) -> _LeastTotal:
        """The argmin of the same factors without row ``row``, for the
        leave-one-out fold without that question.  It keeps this
        instance's columns rather than collapsing again: columns identical
        on every row stay identical on any subset of the rows, and two
        kept columns that tie on the fold only both stay candidates, which
        the ordered recheck resolves to the lower index as a collapse
        would.  The bound is the fold's own, from its Q - 1 rows."""
        least = object.__new__(_LeastTotal)
        least.columns, least.n_columns = self.columns, self.n_columns
        least._bind(np.delete(self.factors, row, axis=0))
        return least

    def _bind(self, factors: np.ndarray) -> None:
        self.factors = factors
        n_questions = factors.shape[0]
        gamma = (n_questions + 2) * _UNIT_ROUNDOFF / (1.0 - (n_questions + 2) * _UNIT_ROUNDOFF)
        self.slack = ((1.0 + gamma) / (1.0 - gamma)) ** 2
        self.floor = 4 * n_questions * _TINY
        self.candidates = 0

    @property
    def shape(self) -> tuple[int, int]:
        """(Q, N) of the factors, counting the collapsed columns."""
        return self.factors.shape[0], self.n_columns

    def __call__(self, weights: np.ndarray) -> tuple[int, float]:
        factors = self.factors
        screen = weights @ factors
        j = screen.argmin()
        limit = self.slack * (float(screen[j]) + self.floor)
        under = screen <= limit
        count = np.count_nonzero(under)
        if count == 1:
            # the least screened total is the only column under its limit
            self.candidates += 1
            self.products = factors[:, j] * weights
            return self.columns[j], _ordered_sum(self.products)
        # a NaN screen makes the limit NaN: every column is a candidate
        candidates = under.nonzero()[0] if count else np.arange(len(screen))
        self.candidates += len(candidates)
        products = factors[:, candidates] * weights[:, np.newaxis]
        totals = _ordered_sum(products)
        j = totals.argmin()
        self.products = products[:, j]
        return self.columns[candidates[j]], totals[j]


def _log_argmin(method: str, rounds: int, n_forecasters: int, least: _LeastTotal) -> None:
    logger.debug("%s: %d rounds, %d of %d forecasters distinct, %d candidates "
                 "rechecked", method, rounds, len(least.columns), n_forecasters,
                 least.candidates)


def _repeat_to_the_end(method: str, rounds: list[tuple[int, float]], iterations: int) -> None:
    """Fill ``rounds`` up to ``iterations`` with copies of its last round,
    which left the weights bit for bit as they were: each round is a pure
    function of the weights, so every later one would repeat it."""
    repeats = iterations - len(rounds)
    logger.info("%s: round %d leaves the weights unchanged; %d later rounds "
                "repeat it", method, len(rounds), repeats)
    rounds.extend([rounds[-1]] * repeats)


def _check_trainable(table: ForecastTable, iterations: int) -> None:
    if table.n_forecasters < 1 or table.n_questions < 1:
        raise ValueError("cannot train on an empty table")
    if iterations < 1:
        raise ValueError("iteration count must be at least 1")


def bag(table: ForecastTable) -> EnsembleModel:
    """Equal-weight average of all forecasters (absent cells read as 0.5)."""
    if table.n_forecasters < 1 or table.n_questions < 1:
        raise ValueError("cannot bag an empty table")
    return EnsembleModel("bagging", (), table.forecaster_ids)


def adaboost_train(table: ForecastTable, iterations: int, seed: int = 0) -> EnsembleModel:
    """Stagewise boosting of sign predictors.

    Absent cell (i, q) is filled once with entry (i, q) of
    ``default_rng(seed).random((N, Q))``.  The draws are not kept:
    predictions, on the training questions too, fill absent cells by the
    rule of `ensemble_predict_table`.  Each round selects the forecaster
    with the least weighted error mass (ties to the lowest index), then
    reweights the training questions; weights are renormalized every
    round, which leaves both the selection and the stage weight unchanged.
    Rounds stop early once no forecaster beats chance under the current
    weights; if that happens on the very first round the best forecaster
    is kept with a zero stage weight so the model still exists (it then
    always predicts a margin of zero).  Reweighting scales the questions
    the pick got wrong through their indices, found the first time a
    forecaster is picked and kept for the training.  A round whose pick
    errs on no question of nonzero weight, under weights that sum to
    exactly 1.0, changes no weight, and it fills every round left.
    """
    _check_trainable(table, iterations)
    dense = np.where(table.answered, table.forecasts,
                     np.random.default_rng(seed).random(table.forecasts.shape))
    # (N, Q): forecaster i's sign is wrong on question q; the bool
    # transpose copies far faster than the float one
    mistaken = (dense > 0.5) != (table.outcomes == POSITIVE)
    least_mass = _LeastTotal(np.ascontiguousarray(mistaken.T).astype(float))
    weights = np.full(table.n_questions, 1.0 / table.n_questions)
    wrong: dict[int, np.ndarray] = {}  # each pick's mistaken questions

    rounds: list[tuple[int, float]] = []
    for round_index in range(iterations):
        picked, mass = least_mass(weights)
        total = _ordered_sum(weights)
        error_rate = mass / total
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
        if mass == 0.0 and total == 1.0:
            # the pick's wrong questions all weigh 0.0 and the weights
            # already sum to 1.0, so the reweighting below is a no-op
            _repeat_to_the_end("adaboost", rounds, iterations)
            break
        # math.exp rounds as the scalar reference does; only the questions
        # the pick got wrong are scaled
        rows = wrong.get(picked)
        if rows is None:
            rows = wrong[picked] = np.flatnonzero(mistaken[picked])
        weights[rows] *= math.exp(alpha)
        weights /= _ordered_sum(weights)
    _log_argmin("adaboost", len(rounds), table.n_forecasters, least_mass)

    return EnsembleModel("adaboost", tuple(rounds), table.forecaster_ids, seed)


def _loss_factors(table: ForecastTable) -> np.ndarray:
    """Realboost's per-question factors exp(-y_q * m_iq), question-major
    (Q, N) and C-contiguous, with absent forecasts read as 0.5 (margin 0).
    Row q depends only on question q, so a table's factors without row q
    are, bit for bit, those of the table without question q."""
    margins = LinkSpec("exponential").link(np.where(table.answered, table.forecasts, 0.5))
    return np.ascontiguousarray(np.exp(-table.outcomes[:, np.newaxis] * margins.T))


def realboost_train(table: ForecastTable, iterations: int, *,
                    least_objective: _LeastTotal | None = None) -> EnsembleModel:
    """Stagewise boosting of log-odds predictors.

    Absent forecasts read as 0.5, i.e. a zero-margin abstention.  Each
    round selects the forecaster minimizing the weighted exponential
    objective and reweights by its per-question factors; every selected
    predictor enters with unit weight.  A round whose best objective
    exceeds 1 means no forecaster beats the constant predictor under the
    current weights; it is kept but flagged, since it raises the ensemble's
    exponential risk.  A round whose objective is exactly 1.0 and whose
    factors leave every weight as it was (a constant 0.5 forecaster under
    weights that sum to 1.0) fills every round left.

    ``least_objective``, when given, must be the `_LeastTotal` of the
    table's own (Q, N) factors, as `_loss_factors` builds them;
    `train_folds` hands each fold the full table's without the held-out
    row (`_LeastTotal.without_row`).  A wrong shape raises ValueError.
    """
    _check_trainable(table, iterations)
    shape = (table.n_questions, table.n_forecasters)
    if least_objective is None:
        least_objective = _LeastTotal(_loss_factors(table))
    elif least_objective.shape != shape:
        raise ValueError(f"loss factors have shape {least_objective.shape}, expected {shape}")
    weights = np.full(table.n_questions, 1.0 / table.n_questions)

    rounds: list[tuple[int, float]] = []
    for round_index in range(iterations):
        picked, objective = least_objective(weights)
        # 1e-9 of slack so a plateau at exactly 1.0 does not warn on rounding
        if objective > 1.0 + 1e-9:
            logger.warning("round %d: best objective %.6g exceeds 1; no "
                           "forecaster beats the constant predictor",
                           round_index + 1, objective)
        rounds.append((picked, 1.0))
        # the objective is the ordered sum of these very products
        reweighted = least_objective.products
        if objective == 1.0 and np.array_equal(reweighted, weights):
            _repeat_to_the_end("realboost", rounds, iterations)
            break
        weights = reweighted / objective
    _log_argmin("realboost", iterations, table.n_forecasters, least_objective)

    return EnsembleModel("realboost", tuple(rounds), table.forecaster_ids)


def train(table: ForecastTable, method: str, iterations: int | None = None,
          seed: int = 0) -> EnsembleModel:
    """Train ``method`` on ``table``.  ``iterations`` defaults to
    `DEFAULT_ITERATIONS`; bagging takes no rounds, and only adaboost reads
    ``seed``.  The trainers are looked up as module globals at call time,
    so a caller that rebinds them sees every model trained."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "bagging":
        return bag(table)
    if iterations is None:
        iterations = DEFAULT_ITERATIONS[method]
    if method == "adaboost":
        return adaboost_train(table, iterations, seed)
    return realboost_train(table, iterations)


def train_folds(table: ForecastTable, method: str, iterations: int | None = None,
                seed: int = 0) -> Iterator[EnsembleModel]:
    """The leave-one-out fold models of a boosting ``method``, in fold
    order: model q is, bit for bit, ``train(table.without_question(q),
    method, iterations, seed ^ q)``.  The arguments are checked at the
    call; each fold is trained when the iterator is asked for it, so a
    caller that takes one model at a time holds one at a time.  Each fold
    goes through the module's trainer at that time, so a caller that
    rebinds it sees every fold.  Realboost builds the table's loss factors
    and their column collapse once, and hands fold q those rows but row
    q, the only one that reads question q's outcome.  One info line
    reports progress every tenth of the folds, rounded up."""
    if method not in DEFAULT_ITERATIONS:
        raise ValueError(f"unknown boosting method {method!r}; expected one of "
                         f"{tuple(DEFAULT_ITERATIONS)}")
    if iterations is None:
        iterations = DEFAULT_ITERATIONS[method]
    if iterations < 1:
        raise ValueError("iteration count must be at least 1")
    if table.n_questions < 2:
        raise ValueError("boosting needs at least two questions, one to hold out")
    return _trained_folds(table, method, iterations, seed)


def _trained_folds(table: ForecastTable, method: str, iterations: int,
                   seed: int) -> Iterator[EnsembleModel]:
    least = _LeastTotal(_loss_factors(table)) if method == "realboost" else None
    n_questions = table.n_questions
    every = -(-n_questions // 10)
    for q in range(n_questions):
        fold = table.without_question(q)
        if least is None:
            model = adaboost_train(fold, iterations, seed ^ q)
        else:
            model = realboost_train(fold, iterations, least_objective=least.without_row(q))
        if (q + 1) % every == 0:
            logger.info("%s: fold %d of %d", method, q + 1, n_questions)
        yield model


def ensemble_predict_table(model: EnsembleModel, forecasts) -> tuple[np.ndarray, np.ndarray]:
    """(margins, probabilities) of every question of an (N, Q) forecast
    matrix, NaN marking an absent forecast.  Absent cells read as 0.5,
    except under adaboost, where forecaster i's takes entry i of one
    ``default_rng(model.seed).random(N)`` draw.  Boosting reads only the
    rows its rounds pick, and a margin is ``0.0 + t_1 + ... + t_R``, its
    rounds' terms in selection order; bagging's probability is the ordered
    sum over forecasters, divided by N."""
    forecasts = np.asarray(forecasts, dtype=float)
    n = model.n_forecasters
    if forecasts.ndim != 2 or len(forecasts) != n:
        raise ValueError(f"expected {n} forecasts per question, got shape {forecasts.shape}")
    if np.any((forecasts < 0) | (forecasts > 1)):
        raise ValueError("forecasts must lie in [0, 1] (or be NaN for absent)")

    if model.method == "bagging":
        probabilities = _ordered_sum(np.where(np.isnan(forecasts), 0.5, forecasts)) / n
        return model.link.link(probabilities), probabilities

    rows, alphas = map(list, zip(*model.rounds))
    picked = forecasts[rows]  # (R, Q)
    if model.method == "adaboost":
        fill = np.random.default_rng(model.seed).random(n)[rows, np.newaxis]
        terms = np.where(np.where(np.isnan(picked), fill, picked) > 0.5, 1.0, -1.0)
    else:
        terms = model.link.link(np.where(np.isnan(picked), 0.5, picked))
    terms *= np.array(alphas)[:, np.newaxis]
    margins = _ordered_sum(terms)
    return margins, model.link.inverse_link(margins)


def classify(margin: float) -> int:
    """Decision rule on the margin scale: strictly positive means the event
    side; zero does not (an abstaining ensemble predicts negative)."""
    m = float(margin)
    if not math.isfinite(m):
        raise ValueError(f"margin must be finite, got {margin!r}")
    return POSITIVE if m > 0 else NEGATIVE
