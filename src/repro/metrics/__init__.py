"""Objective functions and analysis metrics."""

from .prediction import (
    mean_absolute_error,
    mean_loss,
    prediction_errors,
    prediction_report,
    under_prediction_rate,
)
from .slowdown import (
    DEFAULT_TAU,
    average_bounded_slowdown,
    bounded_slowdowns,
)

__all__ = [
    "mean_absolute_error",
    "mean_loss",
    "prediction_errors",
    "prediction_report",
    "under_prediction_rate",
    "DEFAULT_TAU",
    "average_bounded_slowdown",
    "bounded_slowdowns",
]
