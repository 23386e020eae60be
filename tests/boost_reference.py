"""Brute-force reference implementations of the two boosting loops.

Pure-Python scalar arithmetic with no code shared with the package: these
pin the vectorized implementations down to exact selection indices and
1e-12 numeric agreement.  Inputs are dense probability matrices given as
nested lists indexed [forecaster][question].

Every total is accumulated left to right by `ordered_sum`, never by the
builtin ``sum``, which uses compensated summation from Python 3.12 on:
ordered summation is what the package specifies, so the oracle gives the
same answers on every supported Python.
"""

from __future__ import annotations

import math

ERROR_CLAMP = 1e-8
PROB_CLIP = 1e-6


def ordered_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def adaboost_reference(probabilities, outcomes, iterations):
    """Returns (rounds as [(index, alpha)], final margins per question).

    Round selection minimizes the weighted error mass with ties to the
    lowest index; weights renormalize each round; training stops early
    when no forecaster beats chance, emitting a single zero-weight round
    if that happens immediately.
    """
    n = len(outcomes)
    base = [[1 if p > 0.5 else -1 for p in row] for row in probabilities]
    weights = [1.0 / n] * n
    rounds = []
    for _ in range(iterations):
        masses = []
        for row in base:
            masses.append(ordered_sum(w for w, p, y in zip(weights, row, outcomes) if p != y))
        best = 0
        for j in range(1, len(masses)):
            if masses[j] < masses[best]:
                best = j
        rate = masses[best] / ordered_sum(weights)
        if rate >= 0.5:
            if not rounds:
                rounds.append((best, 0.0))
            break
        clamped = min(max(rate, ERROR_CLAMP), 1.0 - ERROR_CLAMP)
        alpha = 0.5 * math.log((1.0 - clamped) / clamped)
        rounds.append((best, alpha))
        weights = [
            w * math.exp(alpha if p != y else 0.0)
            for w, p, y in zip(weights, base[best], outcomes)
        ]
        total = ordered_sum(weights)
        weights = [w / total for w in weights]
    margins = [
        ordered_sum(alpha * base[j][i] for j, alpha in rounds) for i in range(n)
    ]
    return rounds, margins


def realboost_reference(probabilities, outcomes, iterations, clip=PROB_CLIP):
    """Returns (selected indices per round, final margins per question).

    Base predictors are half the log odds of the clipped probability;
    round selection minimizes the weighted exponential objective with ties
    to the lowest index; weights renormalize each round.
    """
    n = len(outcomes)
    base = []
    for row in probabilities:
        margins_row = []
        for p in row:
            clipped = min(max(p, clip), 1.0 - clip)
            margins_row.append(0.5 * math.log(clipped / (1.0 - clipped)))
        base.append(margins_row)
    weights = [1.0 / n] * n
    picks = []
    for _ in range(iterations):
        objectives = []
        for row in base:
            objectives.append(ordered_sum(w * math.exp(-y * m)
                                          for w, m, y in zip(weights, row, outcomes)))
        best = 0
        for j in range(1, len(objectives)):
            if objectives[j] < objectives[best]:
                best = j
        picks.append(best)
        weights = [w * math.exp(-y * m)
                   for w, m, y in zip(weights, base[best], outcomes)]
        total = ordered_sum(weights)
        weights = [w / total for w in weights]
    margins = [ordered_sum(base[j][i] for j in picks) for i in range(n)]
    return picks, margins
