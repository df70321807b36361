"""Job model for parallel workloads.

A job is the unit of work scheduled by the batch system.  The attributes
follow the paper's problem formulation (Section 2.3):

* ``submit_time`` (``r_j``) -- release date, seconds;
* ``processors``  (``q_j``) -- rigid resource requirement, processor count;
* ``runtime``     (``p_j``) -- actual running time, seconds, known only
  a posteriori;
* ``requested_time`` (``p~_j``) -- user-requested upper bound on ``p_j``.
  Jobs are killed when they reach it, so ``runtime <= requested_time``
  always holds for the part of the job that actually executes.

Extra descriptive attributes (user, executable, ...) mirror the Standard
Workload Format and feed the learning features of the paper's Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["Job", "validate_job"]


@dataclass(slots=True)
class Job:
    """A rigid parallel job.

    Only ``job_id``, ``submit_time``, ``processors``, ``runtime`` and
    ``requested_time`` are required by the simulator; the remaining fields
    carry SWF metadata used by the prediction features.
    """

    job_id: int
    submit_time: float
    runtime: float
    processors: int
    requested_time: float
    user: int = 0
    group: int = 0
    executable: int = 0
    queue: int = 0
    partition: int = 0
    status: int = 1
    #: average CPU time per processor (SWF field 6); -1 when unknown.
    cpu_time: float = -1.0
    #: memory per processor (SWF field 7); -1 when unknown.
    memory: float = -1.0
    #: requested number of processors if it differs from allocated; -1 unknown.
    requested_processors: int = -1
    #: requested memory (SWF field 10); -1 when unknown.
    requested_memory: float = -1.0
    #: id of the job this one depends on (SWF field 17); -1 when none.
    preceding_job: int = -1
    #: think time after the preceding job completed (SWF field 18).
    think_time: float = -1.0

    def __post_init__(self) -> None:
        validate_job(self)

    @property
    def area(self) -> float:
        """Job area ``p_j * q_j`` (processor-seconds), the paper's job size."""
        return self.runtime * self.processors

    @property
    def overestimation_factor(self) -> float:
        """Ratio ``p~_j / p_j`` measuring user over-estimation (>= 1)."""
        return self.requested_time / max(self.runtime, 1e-12)

    def with_updates(self, **changes) -> Job:
        """Return a copy of the job with the given fields replaced."""
        return replace(self, **changes)


def validate_job(job: Job) -> None:
    """Raise :class:`ValueError` if the job violates the problem model.

    The model requires a positive processor count, a non-negative submit
    time, a strictly positive runtime and a requested time that upper
    bounds the runtime (jobs are killed at it); a NaN fails every check.
    """
    if not job.processors > 0:
        raise ValueError(f"job {job.job_id}: processors must be > 0, got {job.processors}")
    if not job.submit_time >= 0:
        raise ValueError(f"job {job.job_id}: submit_time must be >= 0, got {job.submit_time}")
    if not job.runtime > 0:
        raise ValueError(f"job {job.job_id}: runtime must be > 0, got {job.runtime}")
    if not job.requested_time > 0:
        raise ValueError(
            f"job {job.job_id}: requested_time must be > 0, got {job.requested_time}"
        )
    if job.runtime > job.requested_time * (1 + 1e-9):
        raise ValueError(
            f"job {job.job_id}: runtime {job.runtime} exceeds requested_time "
            f"{job.requested_time}; jobs are killed at their requested time"
        )
