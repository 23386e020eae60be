import os

import numpy as np
import pytest

from forecast_ensembles import ForecastTable, ensemble_predict_table


@pytest.fixture
def toy_table() -> ForecastTable:
    """3 forecasters x 4 questions with two absent cells."""
    return ForecastTable(
        question_ids=("a", "b", "c", "d"),
        forecaster_ids=("x", "y", "z"),
        forecasts=np.array([
            [0.9, 0.2, 0.8, 0.4],
            [0.6, np.nan, 0.3, 0.9],
            [0.1, 0.7, np.nan, 0.2],
        ]),
        outcomes=np.array([1, -1, 1, -1]),
    )


def random_table(rng: np.random.Generator, n_forecasters: int, n_questions: int,
                 missing: float = 0.0) -> ForecastTable:
    forecasts = rng.random((n_forecasters, n_questions))
    if missing > 0:
        forecasts = np.where(rng.random(forecasts.shape) < missing, np.nan, forecasts)
    outcomes = rng.choice([1, -1], size=n_questions)
    return ForecastTable(
        question_ids=tuple(f"q{j}" for j in range(n_questions)),
        forecaster_ids=tuple(f"f{i}" for i in range(n_forecasters)),
        forecasts=forecasts,
        outcomes=outcomes,
    )


def predict_column(model, forecasts) -> tuple[float, float]:
    """(margin, probability) of one question's length-N forecast vector:
    `ensemble_predict_table` on its one-column matrix."""
    column = np.asarray(forecasts, dtype=float)[:, np.newaxis]
    margins, probabilities = ensemble_predict_table(model, column)
    return float(margins[0]), float(probabilities[0])


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True
