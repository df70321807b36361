"""Scheduling objectives: bounded slowdown and friends (paper Section 5.3).

The paper's sole reported objective is AVEbsld with tau = 10 s.  The
per-job bounded slowdown is

    bsld_j = max( (wait_j + p_j) / max(p_j, tau), 1 )

where ``tau`` prevents second-long jobs from producing unbounded values.
"""

from __future__ import annotations

import numpy as np

from ..sim.results import SimulationResult

__all__ = [
    "DEFAULT_TAU",
    "bounded_slowdowns",
    "average_bounded_slowdown",
]

#: The literature's standard threshold, used in all the paper's tables.
DEFAULT_TAU = 10.0


def bounded_slowdowns(
    wait_times: np.ndarray, runtimes: np.ndarray, tau: float = DEFAULT_TAU
) -> np.ndarray:
    """Vector of per-job bounded slowdowns.

    Raises :class:`ValueError` on negative waits or non-positive runtimes
    (both indicate a simulation bug, not a workload property).
    """
    wait_times = np.asarray(wait_times, dtype=float)
    runtimes = np.asarray(runtimes, dtype=float)
    if wait_times.shape != runtimes.shape:
        raise ValueError("wait_times and runtimes must have the same shape")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if wait_times.size and wait_times.min() < 0:
        raise ValueError("negative wait time")
    if runtimes.size and runtimes.min() <= 0:
        raise ValueError("non-positive runtime")
    return np.maximum((wait_times + runtimes) / np.maximum(runtimes, tau), 1.0)


def average_bounded_slowdown(result: SimulationResult, tau: float = DEFAULT_TAU) -> float:
    """AVEbsld of a simulation run (the paper's headline metric)."""
    if not len(result):
        raise ValueError("AVEbsld is undefined for a run with no finished job")
    return float(bounded_slowdowns(result.wait_times, result.runtimes, tau).mean())
