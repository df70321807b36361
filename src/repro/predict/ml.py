"""The paper's online machine-learning predictor (Section 4.2).

Pipeline: Table 2 features -> degree-2 polynomial basis -> linear model
fitted online by NAG under an asymmetric weighted loss.

Design notes:

* **Training happens at completion time** -- the only moment ``p_j``
  becomes observable -- in completion order, which is how an on-line
  deployment would see the data.  The feature vector is the one captured
  at submission.
* **Targets are learned in hours** (``target_scale`` = 3600 by default):
  NAG normalises feature scales but not the target, and second-scale
  targets need thousands of examples for the weights to grow; hour-scale
  targets converge within a few hundred jobs, which simulation-sized
  traces require.  Loss *reporting* (Table 8, the E-Loss column) is
  always done in seconds via :meth:`repro.predict.loss.LossSpec.value`.
* Predictions are clamped to ``[0, requested_time]`` here and to at
  least ``min_prediction`` by the engine; the raw model output is kept
  on the record for the prediction-analysis figures.
"""

from __future__ import annotations

import numpy as np

from ..sim.results import JobRecord
from ..workload.job import Job
from .base import Predictor, UserHistoryTracker
from .basis import PolynomialBasis
from .features import N_FEATURES, extract_features
from .loss import LossSpec
from .nag import NagOptimizer

__all__ = ["MLPredictor"]


class MLPredictor(Predictor):
    """Online polynomial regression on SWF features under a custom loss."""

    def __init__(
        self,
        loss: LossSpec,
        eta: float = 0.5,
        l2: float = 1e-6,
        target_scale: float = 3600.0,
        forgetting: float = 1.0,
    ) -> None:
        if target_scale <= 0:
            raise ValueError("target_scale must be positive")
        self.loss = loss
        self.target_scale = float(target_scale)
        self.name = f"ml:{loss.key}"
        self._tracker = UserHistoryTracker()
        self._basis = PolynomialBasis(N_FEATURES)
        self._optimizer = NagOptimizer(
            self._basis.dim, eta=eta, l2=l2, forgetting=forgetting
        )
        #: submission-time basis vectors awaiting their completion label.
        self._pending: dict[int, np.ndarray] = {}
        self.n_updates = 0

    # -- Predictor protocol ----------------------------------------------------
    def _evaluate(self, job: Job, now: float) -> tuple[np.ndarray, float]:
        """Basis row of ``job`` at ``now`` and the clamped model output."""
        phi = self._basis.expand(extract_features(job, self._tracker, now))
        raw = self._optimizer.predict(phi) * self.target_scale
        # max/min in this order let a NaN through to the engine's check
        return phi, min(max(raw, 0.0), job.requested_time)

    def predict(self, record: JobRecord, now: float) -> float:
        job = record.job
        phi, prediction = self._evaluate(job, now)
        self._tracker.on_submit(job, now)
        self._pending[job.job_id] = phi
        return prediction

    def estimate(self, record: JobRecord, now: float) -> float:
        # read-only twin of predict(): the features are extracted against
        # the current user history but no submission is registered and no
        # pending label slot is created.
        return self._evaluate(record.job, now)[1]

    def on_start(self, record: JobRecord, now: float) -> None:
        self._tracker.on_start(record.job, now)

    def on_finish(self, record: JobRecord, now: float) -> None:
        job = record.job
        # record.runtime honours externally-observed completions
        runtime = record.runtime
        self._tracker.on_finish(job, now, runtime)
        phi = self._pending.pop(job.job_id, None)
        if phi is None:  # job predates this predictor (warm-started runs)
            return
        # The loss (and hence the gradient) lives in *seconds*, the paper's
        # units: the squared/linear branch crossover sits at a 1-second
        # error, so a squared-over/linear-under mix biases the model toward
        # under-prediction (paper Figs. 4-5).  Evaluating the branches in
        # rescaled units would move that crossover and can flip the bias.
        # The constant 1/target_scale chain factor is absorbed by NAG's
        # AdaGrad normalisation.
        f_seconds = self._optimizer.predict(phi) * self.target_scale
        _value, grad = self.loss.value_and_gradient(
            f_seconds, runtime, float(job.processors)
        )
        try:
            self._optimizer.update(phi, grad)
        except ValueError as exc:
            raise ValueError(f"job {job.job_id}: {exc}") from None
        self.n_updates += 1

    # -- diagnostics -----------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """Current model weights (copy)."""
        return self._optimizer.w.copy()
