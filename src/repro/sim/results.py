"""Per-job records and the result object returned by a simulation run.

A :class:`JobRecord` is the engine's mutable view of one job: static
description (from the trace), the evolving prediction, and the schedule
outcome.  :class:`SimulationResult` freezes the records after the run and
exposes the arrays the metrics layer consumes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..workload.job import Job

if TYPE_CHECKING:  # imported for type hints only; avoids an import cycle
    from .engine import EngineStats

__all__ = ["JobRecord", "SimulationResult"]


@dataclass(slots=True, eq=False)
class JobRecord:
    """Mutable simulation state for one job.

    ``job_id``, ``submit_time``, ``processors`` and ``requested_time``
    are copied from ``job`` at construction (the schedulers' scans read
    them per candidate per pass), so a fed :class:`Job` is treated as
    immutable: editing it afterwards does not reach the record.  Records
    compare and hash by identity (two of one job differ): their fields
    change as the job runs, so value equality is neither stable nor cheap,
    and a scheduler's ``list.remove`` of a started one is a C pointer scan.
    """

    job: Job
    #: prediction as returned by the predictor, before engine clamping.
    raw_prediction: float = 0.0
    #: prediction of the running time made at submission (seconds),
    #: clamped to [min_prediction, requested_time].
    initial_prediction: float = 0.0
    #: current predicted running time, updated by corrections.
    predicted_runtime: float = 0.0
    #: number of times the correction mechanism fired for this job.
    corrections: int = 0
    #: prediction version; bumped on every correction (staleness checks).
    version: int = 0
    start_time: float = -1.0
    end_time: float = -1.0
    #: actual runtime reported from *outside* the simulation (a live
    #: session's ``complete`` command); None on the batch path, where the
    #: trace's a-posteriori runtime is authoritative.
    observed_runtime: float | None = None
    job_id: int = field(init=False)
    submit_time: float = field(init=False)
    processors: int = field(init=False)
    requested_time: float = field(init=False)

    def __post_init__(self) -> None:
        job = self.job
        self.job_id = job.job_id
        self.submit_time = job.submit_time
        self.processors = job.processors
        self.requested_time = job.requested_time

    @property
    def runtime(self) -> float:
        if self.observed_runtime is not None:
            return self.observed_runtime
        return self.job.runtime

    # -- schedule-derived quantities ---------------------------------------
    @property
    def started(self) -> bool:
        return self.start_time >= 0

    @property
    def finished(self) -> bool:
        return self.end_time >= 0

    @property
    def wait_time(self) -> float:
        """Time spent in the queue; requires the job to have started."""
        if not self.started:
            raise ValueError(f"job {self.job_id} never started")
        return self.start_time - self.submit_time

    @property
    def predicted_end(self) -> float:
        """Predicted completion time; requires the job to have started."""
        if not self.started:
            raise ValueError(f"job {self.job_id} has no predicted end before start")
        return self.start_time + self.predicted_runtime


class SimulationResult:
    """Immutable outcome of one simulation run."""

    def __init__(
        self,
        records: Iterable[JobRecord],
        machine_processors: int,
        trace_name: str = "",
        scheduler_name: str = "",
        predictor_name: str = "",
        corrector_name: str = "",
        stats: EngineStats | None = None,
    ) -> None:
        self._records = sorted(records, key=lambda r: (r.submit_time, r.job_id))
        for rec in self._records:
            if not rec.finished:
                raise ValueError(
                    f"job {rec.job_id} did not finish; the simulation is incomplete"
                )
        self.machine_processors = machine_processors
        self.trace_name = trace_name
        self.scheduler_name = scheduler_name
        self.predictor_name = predictor_name
        self.corrector_name = corrector_name
        #: run-level counters of the session that produced this result
        #: (None for results assembled by hand).
        self.stats = stats

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.trace_name!r}, n={len(self)}, "
            f"sched={self.scheduler_name!r}, pred={self.predictor_name!r}, "
            f"corr={self.corrector_name!r})"
        )

    # -- arrays for the metrics layer --------------------------------------
    def array(self, attribute: str) -> np.ndarray:
        """Per-job attribute values as a float array, in submit order."""
        return np.array([getattr(r, attribute) for r in self._records], dtype=float)

    @property
    def wait_times(self) -> np.ndarray:
        return self.array("wait_time")

    @property
    def runtimes(self) -> np.ndarray:
        return self.array("runtime")

    @property
    def initial_predictions(self) -> np.ndarray:
        return self.array("initial_prediction")

    def bounded_slowdowns(self, tau: float = 10.0) -> np.ndarray:
        """Per-job bounded slowdowns (paper Section 5.3), by
        :func:`repro.metrics.slowdown.bounded_slowdowns` and its checks."""
        from ..metrics.slowdown import bounded_slowdowns

        return bounded_slowdowns(self.wait_times, self.runtimes, tau)

    def avebsld(self, tau: float = 10.0) -> float:
        """AVEbsld, the paper's headline objective
        (:func:`repro.metrics.slowdown.average_bounded_slowdown`)."""
        from ..metrics.slowdown import average_bounded_slowdown

        return average_bounded_slowdown(self, tau)

    def utilization(self) -> float:
        """Fraction of processor-time used between first start and last end."""
        if not self._records:
            return 0.0
        start = min(r.start_time for r in self._records)
        end = max(r.end_time for r in self._records)
        if end <= start:
            return 0.0
        area = 0.0  # left to right: the builtin sum compensates from Python 3.12
        for r in self._records:
            area += r.runtime * r.processors
        return area / (self.machine_processors * (end - start))

    def total_corrections(self) -> int:
        """How many prediction-expiry corrections happened over the run."""
        return sum(r.corrections for r in self._records)
