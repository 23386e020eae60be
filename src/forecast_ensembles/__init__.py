"""Combine probability forecasters into ensemble forecasters.

Forecasters answer binary questions with probabilities.  This package
builds combined forecasters from a panel of them (bagging by plain
averaging, adaboost over sign predictors, realboost over log-odds
predictors), evaluates forecasters with proper scoring rules split into
calibration and refinement, and ships a leave-one-out evaluation harness
plus a seeded synthetic population generator and a CLI.
"""

__version__ = "0.1.0"

from .combiners import (
    DEFAULT_ITERATIONS,
    EnsembleModel,
    adaboost_train,
    bag,
    classify,
    ensemble_predict_table,
    realboost_train,
    train,
    train_folds,
)
from .dataio import (
    DataFormatError,
    load_eval_report,
    load_model,
    load_table,
    save_eval_report,
    save_model,
    write_table,
)
from .domain import NEGATIVE, POSITIVE, ForecastTable
from .evaluation import (
    EvalReport,
    QuestionResult,
    SyntheticSpec,
    generate_synthetic,
    individual_baseline,
    loo_evaluate,
)
from .links import LinkSpec, ScoringRule, matched_scoring_rule
from .scoring import (
    BinSummary,
    ScoreReport,
    TableSplit,
    decompose,
    decompose_table,
)

__all__ = [
    "__version__",
    "POSITIVE",
    "NEGATIVE",
    "ForecastTable",
    "LinkSpec",
    "ScoringRule",
    "matched_scoring_rule",
    "BinSummary",
    "ScoreReport",
    "decompose",
    "TableSplit",
    "decompose_table",
    "EnsembleModel",
    "DEFAULT_ITERATIONS",
    "train",
    "train_folds",
    "bag",
    "adaboost_train",
    "realboost_train",
    "ensemble_predict_table",
    "classify",
    "EvalReport",
    "QuestionResult",
    "SyntheticSpec",
    "individual_baseline",
    "loo_evaluate",
    "generate_synthetic",
    "DataFormatError",
    "load_table",
    "write_table",
    "save_model",
    "load_model",
    "save_eval_report",
    "load_eval_report",
]
