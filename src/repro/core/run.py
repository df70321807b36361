"""Single-simulation entry points used by the campaign runner.

The primitive is spec-shaped: :func:`run_spec` (and its score-only form
:func:`run_cell`) takes one :class:`repro.spec.CellSpec` -- the
declarative description that also keys the cache and identifies cells on
the distributed queue -- so every execution path (local pool, fsqueue
worker, CLI one-offs) consumes the same object it is keyed by.  Each
helper here is a thin preparation step in front of the one batch run
helper, :func:`repro.sim.engine.simulate`.

Kept as module-level functions with picklable signatures so
:class:`concurrent.futures.ProcessPoolExecutor` can dispatch them.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from ..metrics.slowdown import average_bounded_slowdown
from ..obs.telemetry import Telemetry
from ..sim.engine import simulate
from ..sim.results import SimulationResult
from ..spec import (
    CellSpec,
    WorkloadSpec,
    corrector_registry,
    filter_registry,
    predictor_registry,
    scheduler_registry,
)
from ..workload.archive import get_trace
from ..workload.trace import Trace
from .batch import get_bundle

__all__ = [
    "RunOutcome",
    "build_workload",
    "run_spec",
    "run_spec_result",
    "run_cell",
    "run_cell_report",
    "run_components_on_trace",
]


@dataclass(frozen=True)
class RunOutcome:
    """Small, picklable summary of one simulation."""

    log: str
    triple_key: str
    seed: int
    avebsld: float
    utilization: float
    corrections: int
    max_queue_length: int
    #: content digest of the spec that produced this outcome ("" for
    #: outcomes built by pre-spec callers).
    spec_digest: str = ""


def build_workload(workload: WorkloadSpec) -> Trace:
    """Materialise a workload spec: synthesise (or load) the base trace,
    apply its filters in order, then any machine-size override.

    A ``processors`` override that leaves jobs wider than the new
    machine is a :class:`ValueError` (add a ``max-width`` filter to
    shrink the workload first) -- never a silent drop.
    """
    trace = get_trace(workload.log, n_jobs=workload.n_jobs, seed=workload.seed)
    registry = filter_registry()
    for filter_spec in workload.filters:
        trace = registry.build(filter_spec)(trace)
    if workload.processors is not None:
        try:
            trace = Trace(
                trace.jobs,
                processors=workload.processors,
                name=f"{trace.name}/m{workload.processors}",
                unix_start_time=trace.unix_start_time,
            )
        except ValueError as exc:
            raise ValueError(
                f"processors override {workload.processors} is too small for "
                f"workload {workload.log!r}: {exc} (add a "
                f'{{"name": "max-width", "params": {{"processors": '
                f"{workload.processors}}}}} filter to shrink it)"
            ) from exc
    return trace


def _cell_inputs(spec: CellSpec) -> tuple:
    """``(trace, scheduler, predictor, corrector)`` of one cell: the trace
    from the shared per-process bundle cache (same-trace cells of a
    batched campaign pay the materialisation once) and fresh components.
    """
    return (get_bundle(spec.workload), *spec.build_components())


def run_spec(spec: CellSpec, telemetry: Telemetry | None = None) -> RunOutcome:
    """Run one fully-specified cell.  Deterministic in the spec.

    ``telemetry`` (optional) receives the engine/predictor counters of
    the run plus the cell's wall/build time split; passing one never
    changes the schedule (instrumentation is observation-only).
    """
    tele = telemetry
    t0 = perf_counter() if tele is not None and tele.enabled else 0.0
    trace, *components = _cell_inputs(spec)
    if tele is not None and tele.enabled:
        tele.inc("engine.time.build.seconds", perf_counter() - t0)
        with tele.span(
            "engine.cell",
            log=spec.workload.log,
            label=spec.label,
            seed=spec.workload.seed,
        ):
            result = simulate(
                trace, *components,
                min_prediction=spec.min_prediction, telemetry=tele,
            )
        tele.inc("engine.cells")
        tele.inc("engine.time.wall.seconds", perf_counter() - t0)
    else:
        result = simulate(
            trace, *components, min_prediction=spec.min_prediction, telemetry=tele
        )
    assert result.stats is not None  # session results always carry them
    return RunOutcome(
        log=spec.workload.log,
        triple_key=spec.label,
        seed=spec.workload.seed,
        avebsld=average_bounded_slowdown(result, spec.tau),
        utilization=result.utilization(),
        corrections=result.total_corrections(),
        max_queue_length=result.stats.max_queue_length,
        spec_digest=spec.digest(),
    )


def run_spec_result(spec: CellSpec) -> SimulationResult:
    """Run one cell and return the full per-job :class:`SimulationResult`.

    The analysis-friendly sibling of :func:`run_spec`: same declarative
    input and the same schedule, but instead of collapsing to a scored
    :class:`RunOutcome` it hands back the complete result (per-job
    starts, predictions, corrections) for plotting, metrics and
    timelines.  Deterministic in the spec.
    """
    trace, *components = _cell_inputs(spec)
    return simulate(trace, *components, min_prediction=spec.min_prediction)


def run_cell(spec: CellSpec) -> float:
    """One campaign cell -> its AVEbsld score.

    The single-cell execution primitive shared by the local process-pool
    fan-out (:mod:`repro.core.campaign`) and the distributed worker loop
    (:mod:`repro.dist.worker`).  Module-level and picklable so any
    executor can dispatch it; deterministic in its argument.
    """
    return run_spec(spec).avebsld


def run_cell_report(
    spec: CellSpec, with_telemetry: bool = False
) -> tuple[float, dict]:
    """:func:`run_cell` plus a picklable sidecar report.

    The report always carries ``seconds`` (cell wall time); with
    ``with_telemetry`` it also carries ``telemetry`` -- the snapshot of
    a cell-local registry, ready for the coordinator process to fold in
    with :meth:`repro.obs.telemetry.Telemetry.merge_snapshot`.  Pool
    executors ship this dict home instead of a live registry because
    worker processes share no memory with the coordinator.
    """
    tele = Telemetry(component="cell") if with_telemetry else None
    t0 = perf_counter()
    outcome = run_spec(spec, telemetry=tele)
    report: dict = {"seconds": perf_counter() - t0}
    if tele is not None:
        report["telemetry"] = tele.snapshot()
    return outcome.avebsld, report


def run_components_on_trace(
    trace: Trace,
    predictor: str | dict,
    corrector: str | dict | None,
    scheduler: str | dict,
    min_prediction: float = 60.0,
) -> SimulationResult:
    """Run a registry-spelled component triple on an existing trace.

    Components are anything the spec registries accept -- a family name
    (``"ave2"``, ``"easy-sjbf"``, ``"ml:sq-lin-large-area"``) or a
    parameterized mapping (``{"name": "rl-backfill", "params":
    {"policy": digest}}``) -- so pre-built traces (filtered, SWF-loaded,
    hand-crafted) run through the exact component stack that spec files
    and campaign cells use.  ``corrector=None`` (or ``"none"``) runs
    uncorrected.
    """
    return simulate(
        trace,
        scheduler_registry().build(scheduler),
        predictor_registry().build(predictor),
        None if corrector in (None, "none") else corrector_registry().build(corrector),
        min_prediction=min_prediction,
    )
