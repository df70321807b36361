"""Objective functions and analysis metrics."""

from .correlation import correlation_summary, pairwise_correlations, pearson
from .ecdf import ascii_ecdf_chart, ecdf, ecdf_at
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
    "correlation_summary",
    "pairwise_correlations",
    "pearson",
    "ascii_ecdf_chart",
    "ecdf",
    "ecdf_at",
    "mean_absolute_error",
    "mean_loss",
    "prediction_errors",
    "prediction_report",
    "under_prediction_rate",
    "DEFAULT_TAU",
    "average_bounded_slowdown",
    "bounded_slowdowns",
]
