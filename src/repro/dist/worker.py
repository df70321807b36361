"""The distributed worker loop behind ``repro worker --queue DIR``.

A worker is a dumb, stateless claimer: point any number of them (on any
number of hosts) at a queue directory and they cooperatively drain it.

Per shard, a worker

1. **claims** it by atomic rename (:meth:`repro.dist.fsqueue.FsQueue.claim`);
2. **skips** cells already proven by earlier attempts (it re-reads every
   result file of the shard, so a crashed predecessor's partial work is
   kept, not redone);
3. **streams** the remaining cells through the shared cell scorer
   (:func:`repro.core.run.run_cell_report`), appending each result to its own
   per-attempt JSONL cache the moment it finishes;
4. **renews** its lease after every cell -- if the renewal discovers the
   lease was re-queued (this worker was presumed dead), it abandons the
   shard immediately; everything already written remains harvestable;
5. **completes** the shard by renaming the lease into ``done/``.

Workers exit when the coordinator posts a ``DONE``/``STOP`` marker, when
``max_shards`` is reached, or after ``max_idle`` seconds without
claimable work.  Every lifecycle step is a :meth:`Telemetry.event
<repro.obs.Telemetry.event>` appended to the worker's own stream,
``progress/<worker>.jsonl`` on the queue's filesystem, which ``repro
metrics QUEUE/progress`` renders from any host.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field

from ..core.campaign import iter_cache_records
from ..obs import JsonlTraceSink, Telemetry, get_logger
from .fsqueue import (
    DEFAULT_LEASE_TTL,
    FsQueue,
    Lease,
    LeaseLost,
    QueueVersionError,
    sanitize_id,
)

__all__ = ["WorkerStats", "run_worker", "default_worker_id"]

_log = get_logger("dist.worker")


def default_worker_id() -> str:
    """``<host>-<pid>``: unique enough for a queue directory."""
    return sanitize_id(f"{socket.gethostname()}-{os.getpid()}")


@dataclass
class WorkerStats:
    """What one worker did before exiting."""

    worker_id: str = ""
    shards: int = 0
    cells: int = 0
    cached_cells: int = 0
    abandoned: int = 0
    reason: str = ""
    #: shard_ids completed, in order.
    completed: list[str] = field(default_factory=list)


class _Heartbeat(threading.Thread):
    """Renews one lease in the background while cells simulate.

    Per-cell renewals alone would let any *single* cell longer than
    ``lease_ttl`` look like a worker death (the coordinator would steal
    the shard from under a perfectly healthy simulation); the heartbeat
    thread keeps the claimed file's mtime fresh for as long as the cell
    takes.  A renewal that discovers the lease was re-queued anyway sets
    :attr:`lost`, which the cell loop converts into an orderly abandon.
    """

    def __init__(
        self,
        queue: FsQueue,
        lease: Lease,
        interval: float,
        telemetry: Telemetry,
    ) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{lease.shard_id}")
        self.queue = queue
        self.lease = lease
        self.interval = interval
        self.telemetry = telemetry
        self.lost = False
        # NB: not named _stop -- that would shadow threading.Thread's
        # internal _stop() method and break join()
        self._halt = threading.Event()

    def run(self) -> None:
        last_beat = time.monotonic()
        while not self._halt.wait(self.interval):
            try:
                self.queue.renew(self.lease)
            except LeaseLost:
                self.lost = True
                return
            except OSError:
                continue  # transient fs hiccup; retry next beat
            now = time.monotonic()
            # age of the heartbeat when it landed: how close the lease's
            # mtime came to looking dead before this renewal
            self.telemetry.observe("worker.heartbeat.age.seconds", now - last_beat)
            self.telemetry.inc("worker.lease.renewals")
            last_beat = now

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


def run_worker(
    queue_dir: str,
    worker_id: str | None = None,
    poll_interval: float = 0.5,
    max_idle: float | None = None,
    max_shards: int | None = None,
    telemetry_dir: str | None = None,
) -> WorkerStats:
    """Claim-and-simulate until the queue is finished (see module doc).

    ``max_idle=None`` waits for a DONE/STOP marker forever; a float exits
    after that many seconds without claimable work (0 drains and exits).
    The worker's registry is always live: its events go to
    ``QUEUE/progress/<id>.jsonl`` as they happen, and its counters
    (claims, simulated vs cached cells, lease renewals, heartbeat ages,
    per-cell seconds) are written as ``metrics-worker-<id>.{json,prom}``
    under ``telemetry_dir``, when one is given, on clean exit -- a
    SIGKILLed worker leaves no snapshot, which is exactly the signal the
    smoke reconciliation relies on.
    """
    queue = FsQueue(queue_dir)
    # Workers may be launched before the coordinator initialises the
    # queue (common in scripted deployments): wait for it, bounded by
    # the same idle budget that bounds an empty queue.
    waited = 0.0
    while not os.path.exists(queue.meta_path):
        if max_idle is not None and waited >= max_idle:
            raise FileNotFoundError(
                f"no queue at {queue.root} after {waited:.0f}s "
                f"(is the coordinator running?)"
            )
        time.sleep(poll_interval)
        waited += poll_interval
    meta = queue.check_versions()  # refuse version-skewed queues up front
    worker_id = sanitize_id(worker_id or default_worker_id())
    stats = WorkerStats(worker_id=worker_id)
    progress_path = queue.progress_path(worker_id)
    tele = Telemetry(
        component=f"worker-{worker_id}", trace=JsonlTraceSink(progress_path)
    )
    tele.event("worker_start", queue=queue.root, lease_ttl=meta.get("lease_ttl"))
    _log.info("worker %s serving queue %s", worker_id, queue.root)
    # the progress file was just written on the *queue's* filesystem, so
    # its mtime is a start-of-service stamp on the same clock that
    # stamps DONE markers -- immune to cross-host wall-clock skew
    start_stamp = os.stat(progress_path).st_mtime
    idle_since: float | None = None
    try:
        while True:
            # Honour only a STOP posted after this worker started serving
            # (the same filesystem-stamp freshness rule DONE gets below).
            # A stale marker left by a failed campaign on a reused queue
            # directory is the next coordinator's to clear -- a worker
            # that deserts on sight of it races that cleanup and can
            # leave the new campaign with no one to drain the queue.
            stop_stamp = queue.signal_mtime("STOP")
            if stop_stamp is not None and stop_stamp > start_stamp:
                stats.reason = "stop"
                break
            lease = queue.claim(worker_id)
            if lease is None:
                done = queue.read_signal("DONE")
                if done is not None:
                    # Only honour a DONE that (a) was posted after this
                    # worker started serving -- judged by filesystem
                    # mtimes, both stamped by the shared queue fs, so
                    # host clock skew cannot confuse it -- and (b)
                    # concludes the newest planned generation.  A stale
                    # marker on a reused queue directory predates the
                    # worker: it must not make the fleet desert a
                    # campaign the coordinator is about to (re)enqueue;
                    # such workers keep waiting (bounded by max_idle).
                    done_stamp = queue.signal_mtime("DONE")
                    fresh = done_stamp is not None and done_stamp >= start_stamp - 1.0
                    meta_generation = int(queue.read_meta().get("generation", 0))
                    # A marker without a generation (legacy, or debris on
                    # a reused directory) cannot prove it concludes the
                    # current campaign; such workers keep waiting too.
                    # The coordinator always stamps the generation.
                    concluded = int(done.get("generation", -1)) >= meta_generation
                    if fresh and concluded:
                        stats.reason = "done"
                        break
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if max_idle is not None and now - idle_since >= max_idle:
                    stats.reason = "idle"
                    break
                time.sleep(poll_interval)
                continue
            idle_since = None
            # re-read per claim: a coordinator reopening the queue with a
            # different --lease-ttl rewrites the metadata, and heartbeats
            # must track the clock it actually reaps with
            try:
                lease_ttl = float(
                    queue.read_meta().get("lease_ttl", DEFAULT_LEASE_TTL)
                )
            except (OSError, ValueError):
                lease_ttl = float(meta.get("lease_ttl", DEFAULT_LEASE_TTL))
            _run_shard(
                queue, lease, stats,
                heartbeat_interval=max(0.05, lease_ttl / 4.0),
                telemetry=tele,
            )
            if max_shards is not None and stats.shards >= max_shards:
                stats.reason = "max-shards"
                break
    finally:
        tele.event(
            "worker_exit",
            reason=stats.reason or "error",
            shards=stats.shards,
            cells=stats.cells,
            cached=stats.cached_cells,
            abandoned=stats.abandoned,
        )
        _log.info(
            "worker %s exiting (%s): %d shard(s), %d cell(s) simulated",
            worker_id, stats.reason or "error", stats.shards, stats.cells,
        )
        if telemetry_dir:
            tele.write(telemetry_dir)
        tele.close()
    return stats


def _run_shard(
    queue: FsQueue,
    lease: Lease,
    stats: WorkerStats,
    heartbeat_interval: float,
    telemetry: Telemetry,
) -> None:
    """Simulate one claimed shard; never raises on a lost lease.

    Cells run in manifest order: the planner emits trace-grouped shards,
    so each shard pays one trace materialisation per group through the
    process-shared bundle cache.
    """
    from ..core.campaign import ResultCache, cell_token
    from ..core.run import run_cell_report
    from ..spec import SPEC_VERSION, CellSpec

    manifest = lease.spec
    shard_spec_version = manifest.get("spec_version", SPEC_VERSION)
    if shard_spec_version != SPEC_VERSION:
        # a manifest this code cannot faithfully re-key: abandoning the
        # lease lets the coordinator's retry/version machinery surface it
        raise QueueVersionError(
            f"shard {lease.shard_id} carries spec_version "
            f"{shard_spec_version!r}, this worker speaks {SPEC_VERSION}"
        )
    cells = [CellSpec.from_obj(cell) for cell in manifest["cells"]]
    trace_groups = len(manifest["trace_keys"])
    telemetry.inc("worker.claims")
    telemetry.event(
        "claim",
        shard=lease.shard_id,
        attempt=lease.attempt,
        cells=len(cells),
        trace_groups=trace_groups,
    )
    _log.debug(
        "claimed shard %s (attempt %d, %d cells in %d trace group(s))",
        lease.shard_id, lease.attempt, len(cells), trace_groups,
    )
    # Earlier attempts may have proved some cells before dying: harvest
    # every result file of this shard so retries only pay the remainder.
    proven: set[str] = set()
    for path in queue.result_paths(lease.shard_id):
        records, _torn = iter_cache_records(path)
        proven.update(token for _lineno, token, _value in records)

    cache = ResultCache(queue.result_path(lease.shard_id, lease.attempt))
    started = time.monotonic()
    ran = 0
    heartbeat = _Heartbeat(queue, lease, heartbeat_interval, telemetry)
    heartbeat.start()
    try:
        for spec in cells:
            if heartbeat.lost:
                raise LeaseLost(f"lease on {lease.shard_id} re-queued mid-shard")
            token = cell_token(spec)
            if token in proven or cache.get(token) is not None:
                stats.cached_cells += 1
                telemetry.inc("worker.cells.cached")
                continue
            value, report = run_cell_report(spec)
            cell_seconds = report["seconds"]
            cache.put(token, value)
            ran += 1
            stats.cells += 1
            telemetry.inc("worker.cells.simulated")
            telemetry.observe("worker.cell.seconds", cell_seconds)
            queue.renew(lease)  # heartbeat; raises LeaseLost if re-queued
            telemetry.inc("worker.lease.renewals")
            telemetry.event(
                "cell",
                shard=lease.shard_id,
                log=spec.workload.log,
                label=spec.label,
                seed=spec.workload.seed,
                avebsld=value,
                seconds=round(cell_seconds, 6),
            )
        heartbeat.stop()
        queue.complete(lease)
    except LeaseLost:
        stats.abandoned += 1
        telemetry.inc("worker.shards.abandoned")
        telemetry.event(
            "shard_abandoned",
            shard=lease.shard_id,
            attempt=lease.attempt,
            cells_run=ran,
        )
        _log.warning(
            "abandoning shard %s (attempt %d): lease re-queued",
            lease.shard_id, lease.attempt,
        )
        return
    finally:
        heartbeat.stop()
        cache.close()
    stats.shards += 1
    stats.completed.append(lease.shard_id)
    shard_seconds = time.monotonic() - started
    telemetry.inc("worker.shards.completed")
    telemetry.observe("worker.shard.seconds", shard_seconds)
    telemetry.event(
        "shard_done",
        shard=lease.shard_id,
        attempt=lease.attempt,
        cells_run=ran,
        cells_cached=len(cells) - ran,
        seconds=round(shard_seconds, 3),
    )
