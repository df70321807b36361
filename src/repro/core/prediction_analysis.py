"""Prediction-quality analysis (paper Section 6.4: Table 8, Figs 4-5).

Runs the main prediction techniques on one log (the paper uses Curie)
inside the winning scheduling context and collects the submission-time
predictions, so MAE / mean E-Loss and the ECDFs of errors and predicted
values can be compared across techniques.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics.prediction import mean_absolute_error, mean_loss, prediction_errors
from ..predict.loss import E_LOSS
from ..sim.results import SimulationResult
from ..spec import expand_spec_obj
from .run import run_spec
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
    """Each technique's run of a common trace; every measure reads
    through :mod:`repro.metrics.prediction`."""

    log: str
    #: results[technique] = the run under that technique's predictor.
    results: dict[str, SimulationResult]

    @property
    def runtimes(self) -> np.ndarray:
        return next(iter(self.results.values())).runtimes

    @property
    def predictions(self) -> dict[str, np.ndarray]:
        """Submission-time predictions per technique, seconds."""
        return {name: result.initial_predictions for name, result in self.results.items()}

    def errors(self, technique: str) -> np.ndarray:
        """Signed prediction errors f - p for one technique (Figure 4)."""
        return prediction_errors(self.results[technique])

    def mae(self, technique: str) -> float:
        return mean_absolute_error(self.results[technique])

    def mean_eloss(self, technique: str) -> float:
        return mean_loss(self.results[technique], E_LOSS)


def analyze_predictions(
    log: str = "Curie",
    n_jobs: int = 2000,
    seed: int | None = None,
    techniques: dict[str, str] | None = None,
    corrector: str = "incremental",
    scheduler: str = "easy-sjbf",
) -> PredictionAnalysis:
    """Run each technique on the same trace inside one scheduling context
    (techniques that never under-predict run uncorrected).

    A bad log, size or component name is a
    :class:`~repro.spec.SpecFileError`, raised before any run.
    """
    techniques = dict(techniques or DEFAULT_TECHNIQUES)
    seeds = {} if seed is None else {"seeds": [seed]}  # one replica: stable_seed(log)
    grid = [
        {
            "predictor": [key],
            "corrector": ["none" if key in ("requested", "clairvoyant") else corrector],
            "scheduler": [scheduler],
        }
        for key in techniques.values()
    ]
    cells = expand_spec_obj(
        {"campaign": {"logs": [log], "n_jobs": n_jobs, **seeds}, "grid": grid},
        source="prediction analysis",
    )
    runs = {label: run_spec(cell) for label, cell in zip(techniques, cells, strict=True)}
    return PredictionAnalysis(log=log, results=runs)


def table8_rows(analysis: PredictionAnalysis) -> list[tuple[str, float, float]]:
    """(technique, MAE, mean E-Loss) rows, AVE2 and E-Loss learning first."""
    order = [name for name in ("AVE2", "E-Loss Regression") if name in analysis.results]
    order += [n for n in analysis.results if n not in order]
    return [(name, analysis.mae(name), analysis.mean_eloss(name)) for name in order]
