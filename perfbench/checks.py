"""Checks of subcommand outputs against computations made apart from the
package.

Nothing here imports forecast_ensembles: the CSV files are parsed with
the csv module, the predictions and score splits are recomputed from
their closed forms, and boosting is replayed with numpy or with the
brute-force loops of tests/boost_reference.py.  Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

CLIP = 1e-6
ERROR_CLAMP = 1e-8
ITERATIONS = {"adaboost": 800, "realboost": 70}
# Boosting rounds of a trained model replayed by ``check_model``.
REPLAY_ROUNDS = 10


class Table:
    """A forecasts/outcomes CSV pair: questions in outcome-file order,
    forecasters in first-appearance order, absent cells NaN."""

    def __init__(self, prefix: str) -> None:
        with open(f"{prefix}.outcomes.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        self.question_ids = [q for q, _ in rows]
        self.outcomes = np.array([1 if o == "+1" else -1 for _, o in rows])
        column = {q: j for j, q in enumerate(self.question_ids)}
        self.forecaster_ids: list[str] = []
        row_of: dict[str, int] = {}
        # Question order of first appearance, which `predict` reports in.
        self.appearance: list[str] = []
        seen: set[str] = set()
        cells = []
        with open(f"{prefix}.forecasts.csv", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            for q, f, p in reader:
                if f not in row_of:
                    row_of[f] = len(self.forecaster_ids)
                    self.forecaster_ids.append(f)
                if q not in seen:
                    seen.add(q)
                    self.appearance.append(q)
                if p:
                    cells.append((row_of[f], column[q], float(p)))
        self.forecasts = np.full((len(self.forecaster_ids), len(self.question_ids)), np.nan)
        if cells:
            i, j, p = zip(*cells)
            self.forecasts[list(i), list(j)] = p

    @property
    def answered(self) -> np.ndarray:
        return ~np.isnan(self.forecasts)


def half_log_odds(p):
    p = np.clip(np.asarray(p, dtype=float), CLIP, 1.0 - CLIP)
    return 0.5 * np.log(p / (1.0 - p))


def probability(margin: float) -> float:
    """1 / (1 + exp(-2m)) without overflow."""
    if margin >= 0:
        return 1.0 / (1.0 + math.exp(-2.0 * margin))
    u = math.exp(2.0 * margin)
    return u / (1.0 + u)


def _label(value: float, threshold: float) -> int:
    return 1 if value > threshold else -1


def _baseline(table: Table) -> tuple[int, float]:
    wrong = ~table.answered | (np.where(table.forecasts > 0.5, 1, -1) != table.outcomes)
    errors = wrong.sum(axis=1)
    return int(errors.min()), float(errors.mean())


def check_loo(report: dict, table: Table, method: str) -> list[str]:
    """Every leave-one-out report: one row per question in table order,
    labels that agree with the probabilities, the error count, and the
    individual baseline.  Bagging probabilities are recomputed in full as
    the mean forecast with absent cells read as 0.5."""
    problems = []
    rows = report["per_question"]
    if report["method"] != method or [r["question_id"] for r in rows] != table.question_ids:
        return [f"loo {method}: report does not cover the table's questions in order"]
    bagged = np.where(table.answered, table.forecasts, 0.5).mean(axis=0)
    for j, r in enumerate(rows):
        p = r["probability"]
        if r["actual"] != table.outcomes[j]:
            problems.append(f"loo {method}: {r['question_id']} actual {r['actual']} is wrong")
        if method == "bagging" and abs(p - bagged[j]) > 1e-12:
            problems.append(f"loo bagging: {r['question_id']} probability {p!r}, "
                            f"mean forecast {bagged[j]!r}")
        if abs(p - 0.5) > 1e-12 and r["predicted"] != _label(p, 0.5):
            problems.append(f"loo {method}: {r['question_id']} predicted {r['predicted']} "
                            f"at probability {p!r}")
    errors = sum(r["predicted"] != r["actual"] for r in rows)
    if report["prediction_errors"] != errors:
        problems.append(f"loo {method}: {report['prediction_errors']} errors reported, "
                        f"{errors} in the rows")
    best, mean = _baseline(table)
    if report["baseline"]["best_individual_errors"] != best or \
            abs(report["baseline"]["mean_individual_errors"] - mean) > 1e-9:
        problems.append(f"loo {method}: baseline {report['baseline']}, expected best {best} "
                        f"and mean {mean!r}")
    return problems


def check_loo_reference(report: dict, table: Table, method: str, seed: int,
                        folds: list[int], models: list[list], reference) -> list[str]:
    """Sampled folds retrained by the brute-force reference.

    The fold's model, ``models[q]`` as [indices, stage weights] of its
    rounds, must have the reference's picks and stage weights to 1e-12,
    round for round, up to a tie broken by rounding (see ``_tied``);
    after such a tie the two runs part and are compared no further.  The
    held-out margin of the model's rounds must give the reported
    probability and label.  Adaboost's dense input comes from
    default_rng(seed ^ q), at training and at prediction; realboost reads
    absent cells as 0.5."""
    problems = []
    n, q_count = table.forecasts.shape
    adaboost = method == "adaboost"
    if len(models) != q_count:
        return [f"loo {method}: {len(models)} fold models for {q_count} questions"]
    for q in folds:
        keep = [j for j in range(q_count) if j != q]
        train = table.forecasts[:, keep]
        outcomes = table.outcomes[keep]
        held = table.forecasts[:, q]
        if adaboost:
            dense = np.where(np.isnan(train), np.random.default_rng(seed ^ q).random(train.shape),
                             train)
            rounds, _ = reference.adaboost_reference(dense.tolist(), outcomes.tolist(),
                                                     ITERATIONS[method])
            filled = np.where(np.isnan(held), np.random.default_rng(seed ^ q).random(n), held)
            base = np.where(filled > 0.5, 1.0, -1.0)
        else:
            dense = np.where(np.isnan(train), 0.5, train)
            picks, _ = reference.realboost_reference(dense.tolist(), outcomes.tolist(),
                                                     ITERATIONS[method])
            rounds = [(j, 1.0) for j in picks]
            base = half_log_odds(np.where(np.isnan(held), 0.5, held))
        indices, weights = models[q]
        common = min(len(indices), len(rounds))
        r = next((r for r in range(max(len(indices), len(rounds)))
                  if r >= common or indices[r] != rounds[r][0]
                  or abs(weights[r] - rounds[r][1]) > 1e-12), None)
        if r is not None and not (
                r < common and abs(weights[r] - rounds[r][1]) <= 1e-12
                and _tied(_factors(dense, outcomes, adaboost), rounds, r, indices[r], adaboost)):
            problems.append(f"loo {method}: fold {q} round {r + 1} is "
                            f"{[indices[r], weights[r]] if r < len(indices) else 'missing'}, "
                            f"the reference's {list(rounds[r]) if r < len(rounds) else 'missing'}")
        terms = [weight * base[j] for j, weight in zip(indices, weights)]
        margin = math.fsum(terms)
        row = report["per_question"][q]
        tolerance = 1e-11 * (1.0 + sum(abs(t) for t in terms))
        if abs(row["probability"] - probability(margin)) > tolerance:
            problems.append(f"loo {method}: fold {q} probability {row['probability']!r}, "
                            f"model margin {margin!r}")
        if abs(margin) > tolerance and row["predicted"] != _label(margin, 0.0):
            problems.append(f"loo {method}: fold {q} predicted {row['predicted']}, "
                            f"model margin {margin!r}")
    return problems


def check_paper(reports: dict[str, dict]) -> list[str]:
    """The paper's claims on its own table: realboost uses fewer distinct
    forecasters than adaboost, and no ensemble errs more often than the
    best individual forecaster."""
    problems = []
    if not reports["realboost"]["avg_unique_forecasters"] < \
            reports["adaboost"]["avg_unique_forecasters"]:
        problems.append("realboost does not use fewer distinct forecasters than adaboost")
    for method, report in reports.items():
        if report["prediction_errors"] > report["baseline"]["best_individual_errors"]:
            problems.append(f"{method} makes more errors than the best individual")
    return problems


def _ordered_sum(values) -> float:
    """Left-to-right sum, the order the selection rule is specified in."""
    total = 0.0
    for value in values:
        total += value
    return total


def _factors(dense: np.ndarray, y: np.ndarray, adaboost: bool) -> np.ndarray:
    """(N, Q) factors of the selection rule: 0/1 mistakes for adaboost,
    exp(-y m) for realboost."""
    if adaboost:
        return (np.where(dense > 0.5, 1, -1) != y).astype(float)
    return np.exp(-y * half_log_odds(dense))


def _ordered_totals(factors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted totals per forecaster, accumulated question by question,
    strictly in order."""
    totals = factors[:, 0] * weights[0]
    for j in range(1, len(weights)):
        totals = totals + factors[:, j] * weights[j]
    return totals


def _reweight(weights: np.ndarray, factors: np.ndarray, alpha: float,
              adaboost: bool) -> np.ndarray:
    weights = weights * (np.exp(alpha * factors) if adaboost else factors)
    return weights / _ordered_sum(weights)


def _tied(factors: np.ndarray, rounds: list, r: int, index: int, adaboost: bool) -> bool:
    """Whether forecaster ``index`` ties the pick of round ``r + 1`` of
    ``rounds``: under the weights the earlier rounds leave, its total is
    within 1e-11 of the pick's, and when the two are exactly equal its
    index is the lower.  Two implementations that round differently can
    break such a tie apart (seen after 650 adaboost rounds on 40×15)."""
    weights = np.full(factors.shape[1], 1.0 / factors.shape[1])
    for j, alpha in rounds[:r]:
        weights = _reweight(weights, factors[j], alpha, adaboost)
    mine, theirs = _ordered_totals(factors[[index, rounds[r][0]]], weights)
    return abs(mine - theirs) <= 1e-11 and (mine != theirs or index < rounds[r][0])


def _replay(factors: np.ndarray, rounds: int, adaboost: bool) -> list[tuple[int, float]]:
    """Stagewise selection over an (N, Q) factor matrix from ``_factors``,
    ties to the lowest index."""
    weights = np.full(factors.shape[1], 1.0 / factors.shape[1])
    picks = []
    for _ in range(rounds):
        totals = _ordered_totals(factors, weights)
        best = int(np.argmin(totals))
        alpha = 1.0
        if adaboost:
            rate = totals[best] / _ordered_sum(weights)
            if rate >= 0.5:
                picks.append((best, None))
                break
            e = min(max(float(rate), ERROR_CLAMP), 1.0 - ERROR_CLAMP)
            alpha = 0.5 * math.log((1.0 - e) / e)
        weights = _reweight(weights, factors[best], alpha, adaboost)
        picks.append((best, alpha))
    return picks


def check_model(model: dict, table: Table, method: str, seed: int,
                iterations: int | None = None) -> list[str]:
    """A trained model: valid rounds and stage weights, and its first
    rounds equal to a numpy replay of the selection rule."""
    iterations = iterations or ITERATIONS[method]
    problems = []
    rounds = model["rounds"]
    n = len(table.forecaster_ids)
    if model["method"] != method or model["forecaster_ids"] != table.forecaster_ids:
        return [f"model {method}: method or forecaster ids do not match the table"]
    if not 1 <= len(rounds) <= iterations:
        problems.append(f"model {method}: {len(rounds)} rounds")
    for index, weight in rounds:
        if not 0 <= index < n:
            problems.append(f"model {method}: round index {index} outside [0, {n})")
        if method == "adaboost" and not weight >= 0:
            problems.append(f"model {method}: stage weight {weight!r} is negative")
        if method == "realboost" and weight != 1.0:
            problems.append(f"model {method}: stage weight {weight!r} is not 1")
    if method == "adaboost":
        fill = np.random.default_rng(seed).random(table.forecasts.shape)
        dense = np.where(table.answered, table.forecasts, fill)
    else:
        dense = np.where(table.answered, table.forecasts, 0.5)
    factors = _factors(dense, table.outcomes, method == "adaboost")
    replay = _replay(factors, min(REPLAY_ROUNDS, len(rounds) + 1), method == "adaboost")
    for r, (expected, got) in enumerate(zip(replay, rounds + [None])):
        if expected[1] is None:
            # Nobody beats chance: the first round is kept at weight 0,
            # a later one ends training.
            if got is not None and (r > 0 or got != [expected[0], 0.0]):
                problems.append(f"model {method}: round {r + 1} exists, but no forecaster "
                                "beats chance there")
            break
        if got is None:
            if len(rounds) < iterations:
                problems.append(f"model {method}: stopped after {r} rounds, replay goes on")
            break
        if got[0] != expected[0] or abs(got[1] - expected[1]) > 1e-12:
            problems.append(f"model {method}: round {r + 1} is {got}, replay gives "
                            f"{list(expected)}")
            break
    return problems


def check_predict(report: dict, model: dict, table: Table) -> list[str]:
    """Every margin and probability recomputed from the model file and the
    forecasts CSV.  Realboost sums the half log odds of the clipped
    forecasts of its picks; adaboost sums alpha * sign(forecast > 0.5),
    with absent cells taken from the draws frozen in the model, or from
    default_rng(seed) for questions the model has none for."""
    problems = []
    method = model["method"]
    ids = model["forecaster_ids"]
    position = {f: i for i, f in enumerate(table.forecaster_ids)}
    if set(position) - set(ids):
        return ["predict: the table has forecasters the model does not"]
    rows = [position.get(f) for f in ids]
    matrix = np.full((len(ids), len(table.question_ids)), np.nan)
    present = [i for i, row in enumerate(rows) if row is not None]
    matrix[present] = table.forecasts[[rows[i] for i in present]]
    column = {q: j for j, q in enumerate(table.question_ids)}
    outcomes = {q: int(table.outcomes[j]) for q, j in column.items()}

    per_question = report["per_question"]
    if [r["question_id"] for r in per_question] != table.appearance:
        return [f"predict {method}: questions are not in first-appearance order"]
    picks = np.array([index for index, _ in model["rounds"]])
    alphas = np.array([weight for _, weight in model["rounds"]])
    if method == "adaboost":
        frozen: dict[str, dict[int, float]] = {}
        wanted = set(table.question_ids)
        for index, question_id, value in model.get("frozen_imputations", []):
            if question_id in wanted:
                frozen.setdefault(question_id, {})[index] = value
        fresh = np.random.default_rng(model["imputation"]["seed"]).random(len(ids))
    errors = 0
    for r in per_question:
        forecasts = matrix[:, column[r["question_id"]]]
        if method == "adaboost":
            fill = fresh.copy()
            for index, value in frozen.get(r["question_id"], {}).items():
                fill[index] = value
            base = np.where(np.where(np.isnan(forecasts), fill, forecasts) > 0.5, 1.0, -1.0)
        else:
            base = half_log_odds(np.where(np.isnan(forecasts), 0.5, forecasts))
        terms = alphas * base[picks]
        margin = math.fsum(terms)
        tolerance = 1e-11 * (1.0 + float(np.abs(terms).sum()))
        if abs(r["margin"] - margin) > tolerance:
            problems.append(f"predict {method}: {r['question_id']} margin {r['margin']!r}, "
                            f"recomputed {margin!r}")
        if abs(r["probability"] - probability(margin)) > tolerance:
            problems.append(f"predict {method}: {r['question_id']} probability "
                            f"{r['probability']!r}, recomputed {probability(margin)!r}")
        if abs(margin) > tolerance and r["predicted"] != _label(margin, 0.0):
            problems.append(f"predict {method}: {r['question_id']} predicted {r['predicted']} "
                            f"at margin {margin!r}")
        actual = outcomes[r["question_id"]]
        if r.get("actual") != actual:
            problems.append(f"predict {method}: {r['question_id']} actual {r.get('actual')}")
        errors += r["predicted"] != actual
    if report.get("prediction_errors") != errors:
        problems.append(f"predict {method}: {report.get('prediction_errors')} errors "
                        f"reported, {errors} recomputed")
    return problems


def _exp_scores(p):
    p = np.clip(p, CLIP, 1.0 - CLIP)
    return -np.sqrt((1.0 - p) / p), -np.sqrt(p / (1.0 - p))


def score_split(forecasts: np.ndarray, outcomes: np.ndarray, bins: int = 10):
    """(total, calibration, refinement) of the exponential rule,
    event = -sqrt((1-p)/p) and nonevent = -sqrt(p/(1-p)), over
    equal-width bins represented by their mean forecast."""
    index = np.minimum((forecasts * bins).astype(int), bins - 1)
    calibration = refinement = 0.0
    for b in range(bins):
        members = index == b
        if not members.any():
            continue
        weight = members.sum() / forecasts.size
        f = float((outcomes[members] == 1).mean())
        m = float(forecasts[members].mean())
        event_m, nonevent_m = _exp_scores(m)
        event_f, nonevent_f = _exp_scores(f)
        refinement += weight * (-2.0 * math.sqrt(min(max(f, CLIP), 1 - CLIP)
                                                 * (1 - min(max(f, CLIP), 1 - CLIP))))
        calibration += weight * (f * (event_m - event_f) + (1 - f) * (nonevent_m - nonevent_f))
    return calibration + refinement, calibration, refinement


_SCORE_ROW = re.compile(r"^(\S+)\s+(\d+)\s+(\S+)\s+(\S+)\s+(\S+)$")


def check_score(stdout: str, table: Table, sample: list[int]) -> list[str]:
    """One row per forecaster in table order, Total = Calibration +
    Refinement to print precision, Calibration <= 0, and for the sampled
    forecasters the split recomputed in closed form."""
    problems = []
    lines = stdout.splitlines()
    if len(lines) != 1 + len(table.forecaster_ids):
        return [f"score: {len(lines) - 1} rows for {len(table.forecaster_ids)} forecasters"]
    half_digit = 0.5e-4
    for i, line in enumerate(lines[1:]):
        match = _SCORE_ROW.match(line)
        if match is None or match.group(1) != table.forecaster_ids[i]:
            problems.append(f"score: row {i + 1} is malformed: {line!r}")
            continue
        answered = table.answered[i]
        if int(match.group(2)) != answered.sum():
            problems.append(f"score: {match.group(1)} count {match.group(2)}")
        if not answered.any():
            continue
        total, calibration, refinement = (float(v) for v in match.group(3, 4, 5))
        if abs(total - (calibration + refinement)) > 3 * half_digit + 1e-12:
            problems.append(f"score: {match.group(1)} total {total} is not "
                            f"{calibration} + {refinement}")
        if calibration > 0:
            problems.append(f"score: {match.group(1)} calibration {calibration} is positive")
        if i in sample:  # a set of row indices
            expected = score_split(table.forecasts[i, answered], table.outcomes[answered])
            for name, got, want in zip(("total", "calibration", "refinement"),
                                       (total, calibration, refinement), expected):
                if abs(got - want) > half_digit + 1e-9:
                    problems.append(f"score: {match.group(1)} {name} {got}, "
                                    f"recomputed {want!r}")
    return problems
