"""Multifactor priority queue ordering (SLURM-style extension).

The paper (Section 2.1) notes that SLURM "includes the possibility to
sort the waiting jobs according to various priorities (like by increasing
age, size or share factors)" and that its analysis "can be extended
easily to other scheduling policies".  This module provides that
extension: an EASY-style scheduler whose *queue priority* (who holds the
reservation) is a weighted multifactor score rather than plain FCFS,
while the backfill scan order stays pluggable.

Factors (all normalised to [0, 1] at evaluation time):

* ``age``   -- waiting time relative to the longest current wait;
* ``size``  -- small jobs first (1 - q/m), SLURM's "job size" factor can
  be flipped with a negative weight;
* ``short`` -- short *predicted* jobs first.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.machine import Machine
from ..sim.results import JobRecord
from .easy import EasyScheduler

__all__ = ["PriorityWeights", "MultifactorScheduler"]


@dataclass(frozen=True)
class PriorityWeights:
    """Relative weights of the multifactor priority terms."""

    age: float = 1.0
    size: float = 0.0
    short: float = 0.0

    def __post_init__(self) -> None:
        if self.age < 0 or self.size < 0 or self.short < 0:
            raise ValueError("priority weights must be non-negative")
        if self.age == self.size == self.short == 0:
            raise ValueError("at least one priority weight must be positive")


class MultifactorScheduler(EasyScheduler):
    """EASY backfilling with a multifactor queue priority.

    The highest-priority waiting job holds the single reservation; the
    backfill phase is inherited from :class:`EasyScheduler`.
    """

    def __init__(
        self,
        weights: PriorityWeights | None = None,
        backfill_order: str = "fcfs",
    ) -> None:
        super().__init__(backfill_order=backfill_order)
        self.weights = weights or PriorityWeights()
        self.name = f"multifactor-{backfill_order}"

    def select_jobs(self, now: float, machine: Machine) -> list[JobRecord]:
        # Re-rank the queue by multifactor priority, then run the standard
        # EASY phases on the re-ranked queue.  Both normalisers are taken
        # once, before the sort: inside it the list being sorted is empty.
        queue = self._queue
        if queue:
            w = self.weights
            longest_wait = max(now - r.submit_time for r in queue)
            longest_pred = max(r.predicted_runtime for r in queue)

            def rank(r: JobRecord) -> tuple[float, float, int]:
                age = (now - r.submit_time) / longest_wait if longest_wait > 0 else 0.0
                size = 1.0 - r.processors / machine.processors
                short = 1.0 - r.predicted_runtime / longest_pred if longest_pred > 0 else 0.0
                return (-(w.age * age + w.size * size + w.short * short), r.submit_time, r.job_id)

            queue.sort(key=rank)
        return super().select_jobs(now, machine)
