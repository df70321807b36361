"""One cell, run one way.

:func:`run_spec` turns a :class:`repro.spec.CellSpec` -- the declarative
description that also keys the cache and identifies cells on the
distributed queue -- into its :class:`~repro.sim.results.SimulationResult`
through the one batch run helper, :func:`repro.sim.engine.simulate`.
:func:`run_cell_report` is the one scorer: the cell's AVEbsld plus a
picklable report, shared by the local pool (through
:func:`repro.core.batch.run_batch_report`) and the fsqueue worker.

Module-level functions with picklable signatures, so
:class:`concurrent.futures.ProcessPoolExecutor` can dispatch them.
"""

from __future__ import annotations

from time import perf_counter

from ..metrics.slowdown import average_bounded_slowdown
from ..obs.telemetry import NOOP, Telemetry
from ..sim.engine import simulate
from ..sim.results import SimulationResult
from ..spec import CellSpec, WorkloadSpec, filter_registry
from ..workload.archive import get_trace
from ..workload.trace import Trace
from .batch import get_bundle

__all__ = ["build_workload", "run_spec", "run_cell_report"]


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


def run_spec(spec: CellSpec, telemetry: Telemetry | None = None) -> SimulationResult:
    """Run one cell and return its full per-job result.  Deterministic in
    the spec.

    The trace comes from the shared per-process bundle cache (same-trace
    cells of a batched campaign pay the materialisation once), the
    components are built fresh.  ``telemetry`` (optional) receives the
    engine/predictor counters of the run plus the cell's wall/build time
    split; passing one never changes the schedule.
    """
    tele = telemetry if telemetry is not None else NOOP
    t0 = perf_counter()
    trace = get_bundle(spec.workload)
    components = spec.build_components()
    tele.inc("engine.time.build.seconds", perf_counter() - t0)
    label = spec.label if tele.enabled else None  # three registry lookups; a NOOP span drops it
    with tele.span("engine.cell", log=spec.workload.log, label=label, seed=spec.workload.seed):
        result = simulate(
            trace, *components, min_prediction=spec.min_prediction, telemetry=telemetry
        )
    tele.inc("engine.cells")
    tele.inc("engine.time.wall.seconds", perf_counter() - t0)
    return result


def run_cell_report(
    spec: CellSpec, with_telemetry: bool = False
) -> tuple[float, dict]:
    """One campaign cell -> ``(AVEbsld, report)``.

    The report always carries ``seconds`` (cell wall time); with
    ``with_telemetry`` it also carries ``telemetry`` -- the snapshot of
    a cell-local registry, ready for the coordinator process to fold in
    with :meth:`repro.obs.telemetry.Telemetry.merge_snapshot`.  Pool
    executors ship this dict home instead of a live registry because
    worker processes share no memory with the coordinator.
    """
    tele = Telemetry(component="cell") if with_telemetry else None
    t0 = perf_counter()
    score = average_bounded_slowdown(run_spec(spec, telemetry=tele), spec.tau)
    report: dict = {"seconds": perf_counter() - t0}
    if tele is not None:
        report["telemetry"] = tele.snapshot()
    return score, report
