"""Batched campaign execution: share traces and their digests.

The paper's campaign is a 128+2-cell matrix replayed over a handful of
workloads, so most cells differ only in their component triple while the
trace underneath is identical.  Regenerating (or re-parsing) and
re-digesting the trace per cell would dominate small cells, so that
cost is paid **once per trace identity per process** and shared:

* :func:`workload_key` names a trace identity: the canonical JSON of the
  workload spec (log, n_jobs, seed, filters, processors override).  Two
  cells with equal keys replay byte-identical job streams.
* :class:`BundleCache` is a small per-process LRU of materialised
  :class:`~repro.workload.trace.Trace` objects (a "bundle" is one such
  trace) plus a ``workload key -> digest`` memo that survives eviction.
  :func:`run_spec <repro.core.run.run_spec>` sources every trace
  through it, so the sharing works identically in the serial path, pool
  children and ``repro worker`` processes.
* :func:`group_cells` / :func:`plan_batches` organise a cell list into
  trace-pure groups (and bounded chunks of them) so dispatch layers can
  keep same-trace cells adjacent in one process.
* :func:`run_batch_report` runs one such batch through the shared cell
  runner; it is module-level, so process pools can pickle it.

Schedules are **byte-identical** to the unbatched path: a shared trace
only changes *when* it is built (once per group instead of once per
cell), never what a cell computes -- every predictor extracts its
features live.  Memory cost is bounded by the LRU capacity (a few
simulation-sized traces, a handful of MB).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..spec import CellSpec, WorkloadSpec, canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workload.trace import Trace

__all__ = [
    "DEFAULT_BUNDLE_CAPACITY",
    "DEFAULT_MAX_BATCH",
    "workload_key",
    "BundleCache",
    "bundle_cache",
    "get_bundle",
    "clear_bundle_cache",
    "group_cells",
    "plan_batches",
    "run_batch_report",
]

#: How many materialised traces one process keeps alive at once.  Grouped
#: dispatch sends same-trace cells adjacently, so even capacity 1 would
#: amortise; a little headroom also serves interleaved direct callers.
DEFAULT_BUNDLE_CAPACITY = 4

#: Ceiling on how many same-trace cells ride one pool submission.  Large
#: enough to amortise the per-process bundle build, small enough that one
#: big group still spreads over the pool.
DEFAULT_MAX_BATCH = 8


def workload_key(workload: WorkloadSpec) -> str:
    """The trace-identity key: canonical JSON of the workload spec.

    Cells whose workloads render to the same key replay byte-identical
    job streams, so their trace (and every schedule-independent artifact
    derived from it) can be shared.
    """
    return canonical_json(workload.to_obj())


class BundleCache:
    """Bounded per-process LRU of materialised traces, plus a digest memo.

    A bundle is one workload's :class:`~repro.workload.trace.Trace`,
    shared read-only by every cell that replays it -- cells never mutate
    a trace.  The ``workload key -> digest`` memo is unbounded and
    outlives eviction: digests are 16-hex strings the campaign layer
    asks for constantly (every cache token embeds one), while the trace
    itself is only needed when a cell actually simulates.
    """

    def __init__(self, capacity: int = DEFAULT_BUNDLE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"bundle cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._traces: OrderedDict[str, Trace] = OrderedDict()
        #: workload key -> trace digest, kept across eviction.
        self._digests: dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._traces)

    def get(self, workload: WorkloadSpec) -> Trace:
        """The (shared) trace of a workload, materialising on miss."""
        key = workload_key(workload)
        trace = self._traces.get(key)
        if trace is not None:
            self._traces.move_to_end(key)
            self.hits += 1
            return trace
        from .run import build_workload

        self.misses += 1
        trace = self._traces[key] = build_workload(workload)
        while len(self._traces) > self.capacity:
            self._traces.popitem(last=False)
        return trace

    def digest_of(self, workload: WorkloadSpec) -> str:
        """Trace content digest for a workload (memo survives eviction)."""
        key = workload_key(workload)
        digest = self._digests.get(key)
        if digest is None:
            digest = self._digests[key] = self.get(workload).digest()
        return digest

    def clear(self) -> None:
        """Drop every trace *and* the digest memo (cold-start state)."""
        self._traces.clear()
        self._digests.clear()


#: The process-wide cache every execution path shares.  Pool children and
#: distributed workers each hold their own (module state is per process).
_CACHE = BundleCache()


def bundle_cache() -> BundleCache:
    """The process-global bundle cache."""
    return _CACHE


def get_bundle(workload: WorkloadSpec) -> Trace:
    """Shared trace of a workload from the process-global cache."""
    return _CACHE.get(workload)


def clear_bundle_cache() -> None:
    """Reset the process-global cache (tests / cold-cost measurement)."""
    _CACHE.clear()


def group_cells(
    cells: Sequence[CellSpec],
) -> list[tuple[str, list[CellSpec]]]:
    """Group cells by trace identity, order-preserving.

    Groups appear in first-cell order and cells keep their relative
    order inside each group, so regrouping an already group-major list
    is the identity.
    """
    groups: dict[str, list[CellSpec]] = {}
    order: list[str] = []
    for cell in cells:
        key = workload_key(cell.workload)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = bucket = []
            order.append(key)
        bucket.append(cell)
    return [(key, groups[key]) for key in order]


def plan_batches(
    cells: Sequence[CellSpec], max_batch: int = DEFAULT_MAX_BATCH
) -> list[list[CellSpec]]:
    """Trace-pure batches of at most ``max_batch`` cells.

    Every batch holds cells of exactly one trace identity, so a process
    running it materialises one bundle; groups larger than ``max_batch``
    split into several batches to keep a pool balanced.  Deterministic
    and order-preserving (group-major, campaign order within).
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    batches: list[list[CellSpec]] = []
    for _key, group in group_cells(cells):
        for start in range(0, len(group), max_batch):
            batches.append(group[start : start + max_batch])
    return batches


def run_batch_report(
    cells: Sequence[CellSpec], with_telemetry: bool = False
) -> list[tuple[CellSpec, float, dict]]:
    """Run one batch; ``(spec, score, report)`` triples in input order.

    One pool submission carries a whole trace-pure batch, so the child
    process pays the bundle build once and every other cell of the batch
    rides the warm cache.  Each cell goes through
    :func:`repro.core.run.run_cell_report`.
    """
    from .run import run_cell_report

    results: list[tuple[CellSpec, float, dict]] = []
    for spec in cells:
        score, report = run_cell_report(spec, with_telemetry=with_telemetry)
        results.append((spec, score, report))
    return results
