"""Machine model: a pool of ``m`` identical processors.

The paper's platform model has no interconnect topology; a job needs
``q_j`` processors for ``p_j`` seconds.  State is therefore count-based
(O(running jobs), never O(m)), which keeps 80k-processor machines free.

The machine tracks, for every running job, both the *actual* end time
(engine-side omniscience, used to fire FINISH events) and the *predicted*
end time (scheduler-side knowledge, used for shadow/reservation
computations).  Schedulers only ever read the predicted side, most often
through :attr:`Machine.releases`, which the machine keeps in step with
every start, finish and correction itself.
"""

from __future__ import annotations

from .results import JobRecord

__all__ = ["Machine"]


class Machine:
    """A pool of identical processors with running-job book-keeping."""

    def __init__(self, processors: int) -> None:
        from ..sched.profile_structure import ReleaseTable  # sched imports this module

        if processors <= 0:
            raise ValueError(f"machine must have > 0 processors, got {processors}")
        self.processors = int(processors)
        self.free = int(processors)
        #: processors taken offline by drain events (live sessions only).
        self.drained = 0
        #: jobs that really ended here, simulated or externally completed.
        self.n_finished = 0
        #: the running jobs' records (each carries its ``start_time``), by id
        self._running: dict[int, JobRecord] = {}
        #: the running jobs' predicted releases, soonest first
        self.releases = ReleaseTable()

    def __repr__(self) -> str:
        return (
            f"Machine(m={self.processors}, free={self.free}, "
            f"drained={self.drained}, running={len(self._running)})"
        )

    @property
    def running(self) -> list[JobRecord]:
        """The running jobs' records (no ordering guarantee)."""
        return list(self._running.values())

    def start(self, record: JobRecord, now: float) -> None:
        """Allocate processors to a job. The caller pushes FINISH/EXPIRE."""
        if record.job_id in self._running:
            raise ValueError(f"job {record.job_id} is already running")
        if record.processors > self.free:
            raise ValueError(
                f"job {record.job_id} needs {record.processors} processors, "
                f"only {self.free} free"
            )
        if not record.predicted_runtime > 0:  # NaN too: it would break the release order
            raise ValueError(
                f"job {record.job_id} has no positive predicted runtime; "
                "predict before starting"
            )
        self.free -= record.processors
        record.start_time = now
        self._running[record.job_id] = record
        self.releases.add(record.job_id, now + record.predicted_runtime, record.processors)

    def finish(self, job_id: int, now: float) -> JobRecord:
        """Release a job's processors and stamp its end time."""
        try:
            record = self._running.pop(job_id)
        except KeyError:
            raise ValueError(f"job {job_id} is not running") from None
        self.releases.discard(job_id)
        self.free += record.processors
        if self.free > self.processors:
            raise AssertionError("machine freed more processors than it has")
        record.end_time = now
        self.n_finished += 1
        return record

    def repredict(self, record: JobRecord, predicted_runtime: float) -> None:
        """Correct a running job's ``predicted_runtime``: its release moves
        to the new predicted end (applied at the table's next read)."""
        self.releases.move(record.job_id, record.start_time + predicted_runtime)
        record.predicted_runtime = predicted_runtime

    # -- capacity events (live sessions) ------------------------------------
    def drain(self, processors: int) -> None:
        """Take currently-*free* processors offline (node drain).

        Mirrors a resource manager that waits for nodes to empty before
        draining them: a drain wider than the free pool is rejected.
        """
        if processors <= 0:
            raise ValueError(f"drained processors must be > 0, got {processors}")
        if processors > self.free:
            raise ValueError(
                f"cannot drain {processors} processors: only {self.free} free "
                f"(drain waits for busy nodes to empty)"
            )
        self.free -= processors
        self.drained += processors

    def restore(self, processors: int) -> None:
        """Bring drained processors back online."""
        if processors <= 0:
            raise ValueError(f"restored processors must be > 0, got {processors}")
        if processors > self.drained:
            raise ValueError(
                f"cannot restore {processors} processors: only "
                f"{self.drained} drained"
            )
        self.drained -= processors
        self.free += processors

    def is_running(self, job_id: int) -> bool:
        return job_id in self._running

    def predicted_releases(self, now: float) -> list[tuple[float, int]]:
        """(predicted end, processors) per running job, soonest first.

        A sort of its own, independent of :attr:`releases` (the oracle the
        ``legacy-*`` schedulers and the tests check the table with).
        Predicted ends are clamped to ``now``: a job whose prediction just
        expired is treated as "about to finish" until its correction lands,
        which is the most optimistic consistent view.
        """
        releases = [
            (max(record.start_time + record.predicted_runtime, now), record.processors)
            for record in self._running.values()
        ]
        releases.sort()
        return releases

    def check_invariants(self) -> None:
        """Assert conservation of processors (used by tests)."""
        used = sum(record.processors for record in self._running.values())
        if used + self.free + self.drained != self.processors:
            raise AssertionError(
                f"processor leak: used={used} free={self.free} "
                f"drained={self.drained} m={self.processors}"
            )
