"""The discrete-event scheduling simulator (batch entry point).

Drives a trace through a scheduler with a predictor and a correction
mechanism -- the "heuristic triple" of the paper.  The engine is the only
component that knows actual runtimes; schedulers see predictions, and
predictors learn only from completions.

The event loop itself lives in :class:`repro.sim.session.SimSession`,
the incremental streaming API; :func:`simulate` is the batch helper that
feeds a whole trace into a fresh session and drains it.  The loop
semantics (matching pyss and the paper's on-line setting):

* all events at one timestamp are processed before any scheduling
  decision, in FINISH < EXPIRE < SUBMIT < MACHINE order;
* one scheduling pass runs after each batch of events;
* a running job whose *predicted* end passes without completion triggers
  the correction mechanism, bumping its prediction version, and the
  scheduler hears of the correction at that EXPIRE
  (:meth:`repro.sched.base.Scheduler.on_corrections`); stale expiry
  events are dropped;
* predictions are clamped to ``[min_prediction, requested_time]``; jobs
  reaching their requested time finish there (SWF semantics guarantee
  ``runtime <= requested_time``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..workload.trace import Trace
from .results import SimulationResult
from .session import SimSession

if TYPE_CHECKING:  # imported for type hints only; avoids an import cycle
    from ..correct.base import Corrector
    from ..obs.telemetry import Telemetry
    from ..predict.base import Predictor
    from ..sched.base import Scheduler

__all__ = ["EngineStats", "simulate", "ENGINE_VERSION"]

#: Bumped whenever engine or scheduler semantics could change simulation
#: outcomes; campaign cache keys embed it so stale results never survive
#: an engine change.  Version 2: incremental profile-based scheduling
#: (the session refactor kept schedules byte-identical, so no bump).
ENGINE_VERSION = 2


@dataclass
class EngineStats:
    """Run-level counters (not per-job)."""

    n_events: int = 0
    n_scheduling_passes: int = 0
    n_corrections: int = 0
    max_queue_length: int = 0


def simulate(
    trace: Trace,
    scheduler: Scheduler,
    predictor: Predictor,
    corrector: Corrector | None = None,
    min_prediction: float = 60.0,
    telemetry: Telemetry | None = None,
) -> SimulationResult:
    """One batch run: feed the whole trace into a fresh session, drain it.

    The single construct/feed/drain helper every non-incremental caller
    shares; code that needs incremental feeding, live queries or machine
    events holds a :class:`~repro.sim.session.SimSession` directly.
    """
    session = SimSession(
        trace.processors,
        scheduler,
        predictor,
        corrector,
        min_prediction=min_prediction,
        trace_name=trace.name,
        telemetry=telemetry,
    )
    session.feed(trace)
    session.drain()
    return session.result()
