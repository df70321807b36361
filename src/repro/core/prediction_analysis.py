"""Prediction-quality analysis (paper Section 6.4: Table 8, Figs 4-5).

Runs the main prediction techniques on one log (the paper uses Curie)
inside the winning scheduling context and collects the submission-time
predictions, so MAE / mean E-Loss and the ECDFs of errors and predicted
values can be compared across techniques.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..predict.loss import E_LOSS
from ..sim.results import SimulationResult
from ..spec import CellSpec, WorkloadSpec
from .run import run_spec_result
from .triples import ELOSS_TRIPLE

__all__ = ["PredictionAnalysis", "analyze_predictions", "DEFAULT_TECHNIQUES"]

#: The four prediction techniques of Figures 4 and 5; E-Loss regression
#: is the winning triple's predictor.
DEFAULT_TECHNIQUES: dict[str, str] = {
    "E-Loss Regression": ELOSS_TRIPLE.split("|")[0],
    "Squared Loss Regression": "ml:sq-sq-constant",
    "Requested Time": "requested",
    "AVE2": "ave2",
}


@dataclass
class PredictionAnalysis:
    """Per-technique prediction vectors on a common trace."""

    log: str
    runtimes: np.ndarray
    #: predictions[technique] = submission-time predictions, seconds.
    predictions: dict[str, np.ndarray]

    def errors(self, technique: str) -> np.ndarray:
        """Signed prediction errors f - p for one technique (Figure 4)."""
        return self.predictions[technique] - self.runtimes

    def mae(self, technique: str) -> float:
        return float(np.abs(self.errors(technique)).mean())

    def mean_eloss(self, technique: str, processors: np.ndarray) -> float:
        total = 0.0
        preds = self.predictions[technique]
        for f, p, q in zip(preds, self.runtimes, processors, strict=True):
            total += E_LOSS.value(float(f), float(p), float(q))
        return total / len(preds)


def analyze_predictions(
    log: str = "Curie",
    n_jobs: int = 2000,
    seed: int | None = None,
    techniques: dict[str, str] | None = None,
    corrector: str = "incremental",
    scheduler: str = "easy-sjbf",
) -> tuple[PredictionAnalysis, SimulationResult, np.ndarray]:
    """Run each technique on the same trace; return predictions + context.

    Returns ``(analysis, last_result, processors)`` where ``processors``
    is the per-job width vector used by the E-Loss weights.
    """
    techniques = dict(techniques or DEFAULT_TECHNIQUES)
    workload = WorkloadSpec.make(log, n_jobs=n_jobs, seed=seed)
    predictions: dict[str, np.ndarray] = {}
    result: SimulationResult | None = None
    for label, predictor_key in techniques.items():
        needs_correction = predictor_key not in ("requested", "clairvoyant")
        result = run_spec_result(
            CellSpec.make(
                workload,
                predictor_key,
                corrector if needs_correction else None,
                scheduler,
            )
        )
        predictions[label] = result.initial_predictions
    assert result is not None
    analysis = PredictionAnalysis(
        log=log,
        runtimes=result.runtimes,
        predictions=predictions,
    )
    return analysis, result, result.array("processors")


def table8_rows(
    analysis: PredictionAnalysis, processors: np.ndarray
) -> list[tuple[str, float, float]]:
    """(technique, MAE, mean E-Loss) rows, AVE2 and E-Loss learning first."""
    order = [
        name
        for name in ("AVE2", "E-Loss Regression")
        if name in analysis.predictions
    ]
    order += [n for n in analysis.predictions if n not in order]
    return [
        (name, analysis.mae(name), analysis.mean_eloss(name, processors))
        for name in order
    ]
