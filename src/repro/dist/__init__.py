"""Distributed campaign dispatch.

A campaign's cell matrix -- :class:`repro.spec.CellSpec` cells, e.g. the
paper's 128+ triples by 6 logs by N replicas, or any grid expanded from
an experiment spec file -- is embarrassingly parallel, and the JSONL
cell cache (:mod:`repro.core.campaign`) was designed to be
merge-friendly.  This package turns the single-host process-pool fan-out
into a sharded, restartable, multi-host system:

* :mod:`repro.dist.shards`  -- partitions the cell matrix into balanced
  shards using constant per-cell cost weights;
* :mod:`repro.dist.fsqueue` -- a serverless work queue in a shared
  directory: atomic claim-by-rename, mtime-heartbeat leases, capped
  retries.  N workers on N hosts cooperate with no coordinator server;
* :mod:`repro.dist.worker`  -- the worker loop behind ``repro worker``:
  claims shards, streams cells through the shared cell runner, renews
  its lease, appends per-shard JSONL result caches;
* :mod:`repro.dist.broker`  -- the dispatch abstraction behind
  ``run_cells``: :class:`LocalBroker` (in-process pool, the classic
  path) and :class:`FsQueueBroker` (the fault-tolerant coordinator:
  enqueue, monitor, re-enqueue expired leases, merge shard caches);
* :mod:`repro.dist.merge`   -- shard-cache merging with duplicate-cell
  dedup and ``CACHE_VERSION``/``ENGINE_VERSION`` conflict detection.
"""

from .broker import Broker, FsQueueBroker, LocalBroker
from .fsqueue import FsQueue, Lease, LeaseLost, QueueVersionError
from .merge import (
    CellConflictError,
    MergeReport,
    MergeVersionError,
    iter_cache_records,
    merge_caches,
)
from .shards import CellCostModel, Shard, plan_shards
from .worker import WorkerStats, run_worker

__all__ = [
    "Broker",
    "FsQueueBroker",
    "LocalBroker",
    "FsQueue",
    "Lease",
    "LeaseLost",
    "QueueVersionError",
    "CellConflictError",
    "MergeReport",
    "MergeVersionError",
    "iter_cache_records",
    "merge_caches",
    "CellCostModel",
    "Shard",
    "plan_shards",
    "WorkerStats",
    "run_worker",
]
