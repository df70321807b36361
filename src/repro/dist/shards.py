"""Shard planning: partition a campaign's cell specs into balanced units.

A *shard* is the unit of distributed dispatch: a named batch of
:class:`repro.spec.CellSpec` cells that one worker claims, simulates and
reports as a whole.  Shards should be

* **coarse enough** that queue overhead (claim, lease renewal, result
  files) is amortised over many simulations, and
* **balanced enough** that the campaign's wall time is not dominated by
  one unlucky worker.

Balance needs per-cell cost estimates.  Simulation time scales with the
job count and differs by scheduler variant and by whether a correction
mechanism is active (EXPIRE storms); :class:`CellCostModel` holds those
ratios as constants, so a plan is a pure function of the cell list.
Cells are then distributed with the classic LPT (longest processing time
first) greedy heuristic -- applied to **trace-pure chunks**
(:func:`repro.core.batch.plan_batches`) rather than single cells, so every
shard keeps same-trace cells together and the worker's shared
:class:`repro.core.batch.BundleCache` pays each trace materialisation
once per shard instead of once per cell.

Shard manifests -- the JSON documents enqueued for workers -- carry each
cell in its canonical spec encoding plus the coordinator's
``CACHE_VERSION`` / ``ENGINE_VERSION`` / ``SPEC_VERSION``, so
version-skewed workers refuse the work instead of producing
mis-keyed results.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from ..core.batch import plan_batches, workload_key
from ..spec import SPEC_VERSION, CellSpec

__all__ = [
    "Shard",
    "CellCostModel",
    "plan_shards",
    "DEFAULT_CELLS_PER_SHARD",
]

#: Default shard granularity when the caller does not fix a shard count.
DEFAULT_CELLS_PER_SHARD = 16


@dataclass(frozen=True)
class Shard:
    """A named, costed batch of campaign cell specs."""

    shard_id: str
    cells: tuple[CellSpec, ...]
    est_cost: float
    #: distinct trace-identity keys (canonical workload JSON, see
    #: :func:`repro.core.batch.workload_key`) in shard cell order --
    #: how many traces a worker materialises to run this shard.
    trace_keys: tuple[str, ...] = ()

    def manifest(self) -> dict:
        """The JSON document enqueued for workers.

        Each cell travels in its canonical spec form -- everything a
        worker needs to recompute the cache token and run the cell, with
        no side-channel campaign config.  ``trace_keys`` names the
        shard's trace-identity groups so workers (and humans reading the
        queue) see the batching structure without re-deriving it.
        """
        from ..core.campaign import CACHE_VERSION
        from ..sim.engine import ENGINE_VERSION

        return {
            "shard_id": self.shard_id,
            "cells": [cell.to_obj() for cell in self.cells],
            "est_cost": round(self.est_cost, 4),
            "trace_keys": list(self.trace_keys),
            "cache_version": CACHE_VERSION,
            "engine_version": ENGINE_VERSION,
            "spec_version": SPEC_VERSION,
        }


@dataclass(frozen=True)
class CellCostModel:
    """Relative simulation cost by scheduler and correction load.

    Units are arbitrary (only ratios matter for balance): ``weight(cell)
    = scheduler_weight * n_jobs * correction_factor``.
    """

    #: per-job weight by scheduler key (fallback used for unknown ones).
    scheduler_weights: dict[str, float] = field(
        default_factory=lambda: {"easy": 1.0, "easy-sjbf": 1.0, "conservative": 1.6}
    )
    #: multiplier when the cell runs a correction mechanism.
    correction_factor: float = 3.0

    def cell_cost(self, cell: CellSpec) -> float:
        """Estimated cost of one cell."""
        scheduler = cell.scheduler
        order = scheduler.param_dict.get("order", "fcfs")
        key = scheduler.name if order == "fcfs" else f"{scheduler.name}-{order}"
        base = self.scheduler_weights.get(
            key,
            self.scheduler_weights.get(
                scheduler.name, max(self.scheduler_weights.values())
            ),
        )
        factor = self.correction_factor if cell.corrector is not None else 1.0
        return base * cell.workload.n_jobs * factor


def plan_shards(
    cells: Iterable[CellSpec] | Sequence[CellSpec],
    n_shards: int | None = None,
    cost_model: CellCostModel | None = None,
    prefix: str = "shard",
    cells_per_shard: int = DEFAULT_CELLS_PER_SHARD,
) -> list[Shard]:
    """Partition ``cells`` into cost-balanced, trace-grouped shards.

    ``n_shards`` fixes the shard count; by default it is derived from
    ``cells_per_shard``.  Cells are first grouped by trace identity
    (:func:`repro.core.batch.workload_key`) and each group split into
    consecutive chunks small enough to keep the pool balanced; the
    chunks are then sorted by descending estimated cost and assigned
    greedily to the least-loaded shard (LPT, within 4/3 of the optimal
    makespan).  Same-trace cells therefore land adjacently in one shard
    whenever balance allows, so the worker's shared bundle cache pays
    each trace materialisation once per chunk.  When every cell has a
    distinct trace (chunks are all singletons) the plan is exactly the
    classic per-cell LPT.  Deterministic: the same inputs always produce
    the same shards, and cells inside a shard are emitted in campaign
    order within each group.
    """
    cells = list(cells)
    if not cells:
        return []
    if cost_model is None:
        cost_model = CellCostModel()
    if n_shards is None:
        n_shards = max(1, (len(cells) + cells_per_shard - 1) // cells_per_shard)
    n_shards = min(n_shards, len(cells))

    # trace-pure chunks, capped so that none exceeds the per-shard
    # granularity or starves other shards; each is ranked and emitted by
    # the campaign position of its first cell
    chunk_cap = max(1, min(cells_per_shard, -(-len(cells) // n_shards)))
    position = {id(cell): index for index, cell in enumerate(cells)}
    chunks = [
        (
            reduce(add, (cost_model.cell_cost(cell) for cell in chunk), 0.0),
            position[id(chunk[0])],
            chunk,
        )
        for chunk in plan_batches(cells, max_batch=chunk_cap)
    ]
    n_shards = min(n_shards, len(chunks))

    costed = sorted(chunks, key=lambda item: (-item[0], item[1]))
    # (load, shard_index) min-heap; ties resolve to the lowest index so
    # the plan is stable across runs and platforms.
    heap: list[tuple[float, int]] = [(0.0, idx) for idx in range(n_shards)]
    heapq.heapify(heap)
    buckets: list[list[tuple[int, list[CellSpec]]]] = [
        [] for _ in range(n_shards)
    ]
    loads = [0.0] * n_shards
    for cost, first_position, chunk in costed:
        load, idx = heapq.heappop(heap)
        buckets[idx].append((first_position, chunk))
        loads[idx] = load + cost
        heapq.heappush(heap, (loads[idx], idx))

    width = max(4, len(str(n_shards - 1)))
    shards = []
    for idx, bucket in enumerate(buckets):
        if not bucket:
            continue
        # chunk-major, chunks by campaign position of their first cell:
        # singleton chunks reproduce the classic campaign-order emit
        bucket.sort(key=lambda item: item[0])
        shard_cells: list[CellSpec] = []
        trace_keys: list[str] = []
        for _first, chunk in bucket:
            key = workload_key(chunk[0].workload)
            if key not in trace_keys:
                trace_keys.append(key)
            shard_cells.extend(chunk)
        shards.append(
            Shard(
                shard_id=f"{prefix}-{idx:0{width}d}",
                cells=tuple(shard_cells),
                est_cost=loads[idx],
                trace_keys=tuple(trace_keys),
            )
        )
    return shards
