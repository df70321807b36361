"""End-to-end distributed campaigns: workers + coordinator, including
the acceptance scenario -- a campaign split across >= 2 workers merges
byte-identical to a single-host run, and a worker killed mid-shard plus
a coordinator restart completes with no lost or duplicated cells."""

import os
import threading
import time

import pytest

from repro.core import run_cells
from repro.core.campaign import ResultCache
from repro.dist import (
    FsQueue,
    FsQueueBroker,
    LocalBroker,
    merge_caches,
    run_worker,
)
from repro.obs import JsonlTraceSink, Telemetry, format_events, load_events

from tests.helpers import triple_cells

#: Heterogeneous little triple set: plain, corrected, SJBF, clairvoyant.
TRIPLES = [
    "requested|none|easy",
    "requested|none|easy-sjbf",
    "ave2|incremental|easy-sjbf",
    "clairvoyant|none|easy",
]

CELLS = triple_cells(TRIPLES, logs=("KTH-SP2",), n_jobs=80, replicas=2)


def start_worker(queue_dir, worker_id, **kwargs):
    kwargs.setdefault("poll_interval", 0.05)
    kwargs.setdefault("max_idle", 60.0)
    results = {}

    def target():
        results["stats"] = run_worker(queue_dir, worker_id=worker_id, **kwargs)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, results


@pytest.fixture(scope="module")
def single_host(tmp_path_factory):
    """Reference run + canonical cache bytes."""
    tmp = tmp_path_factory.mktemp("single")
    cache = str(tmp / "cache.jsonl")
    result = run_cells(CELLS, cache_path=cache, workers=2)
    canonical = str(tmp / "canonical.jsonl")
    merge_caches([cache], out_path=canonical)
    with open(canonical, "rb") as fh:
        return result, fh.read()


class TestBackend:
    def test_none_is_a_local_pool(self, monkeypatch):
        used = []
        dispatch = LocalBroker.dispatch

        def spy(self, cells, on_result, telemetry=None):
            used.append(self.workers)
            dispatch(self, cells, on_result, telemetry=telemetry)

        monkeypatch.setattr(LocalBroker, "dispatch", spy)
        result = run_cells(CELLS[:2], workers=1)
        assert used == [1]
        assert len(result.scores) == 2

    def test_fsqueue_broker_requires_a_queue_directory(self):
        with pytest.raises(ValueError, match="queue directory"):
            FsQueueBroker("")


class TestTwoWorkerCampaign:
    def test_matches_single_host_byte_identical(self, tmp_path, single_host):
        reference, reference_bytes = single_host
        qdir = str(tmp_path / "q")
        cache = str(tmp_path / "cache.jsonl")
        threads = [start_worker(qdir, f"w{i}")[0] for i in range(2)]
        broker = FsQueueBroker(
            qdir, cells_per_shard=1, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        result = run_cells(CELLS, cache_path=cache, backend=broker)
        for thread in threads:
            thread.join(timeout=60)
        assert result.scores == reference.scores

        canonical = str(tmp_path / "canonical.jsonl")
        merge_caches([cache], out_path=canonical)
        with open(canonical, "rb") as fh:
            assert fh.read() == reference_bytes

        queue = FsQueue(qdir)
        assert queue.todo_ids() == set()
        assert queue.claimed_ids() == set()
        assert queue.has_signal("DONE")

    def test_both_workers_participated(self, tmp_path, single_host):
        qdir = str(tmp_path / "q")
        # poll far faster than a cell runs (~4 ms): at the default 50 ms one
        # worker can drain all eight shards inside the other's sleep
        threads_results = [
            start_worker(qdir, f"w{i}", poll_interval=0.001) for i in range(2)
        ]
        broker = FsQueueBroker(
            qdir, cells_per_shard=1, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        run_cells(CELLS, backend=broker)
        for thread, _ in threads_results:
            thread.join(timeout=60)
        shards = [results["stats"].shards for _, results in threads_results]
        # 8 single-cell shards across 2 workers; both must claim some
        assert sum(shards) == 8
        assert all(count > 0 for count in shards)


class TestGroupedShardCampaign:
    """Trace-pure (grouped) shards through the fsqueue path must merge
    byte-identical to the single-host canonical cache -- batching is an
    execution detail, never a result detail."""

    def test_grouped_shards_merge_identical_to_single_host(
        self, tmp_path, single_host
    ):
        reference, reference_bytes = single_host
        # the campaign's 8 cells form 2 trace groups (2 replica seeds x
        # 4 triples); cells_per_shard=4 lets the planner emit exactly
        # one trace-pure shard per group
        from repro.dist import plan_shards

        planned = plan_shards(CELLS, cells_per_shard=4)
        assert len(planned) == 2
        assert all(len(shard.trace_keys) == 1 for shard in planned)

        qdir = str(tmp_path / "q")
        cache = str(tmp_path / "cache.jsonl")
        threads = [start_worker(qdir, f"w{i}")[0] for i in range(2)]
        broker = FsQueueBroker(
            qdir, cells_per_shard=4, lease_ttl=60.0, poll_interval=0.05,
            timeout=300.0,
        )
        result = run_cells(CELLS, cache_path=cache, backend=broker)
        for thread in threads:
            thread.join(timeout=60)
        assert result.scores == reference.scores

        canonical = str(tmp_path / "canonical.jsonl")
        merge_caches([cache], out_path=canonical)
        with open(canonical, "rb") as fh:
            assert fh.read() == reference_bytes


class TestCrashRecovery:
    def test_killed_worker_and_coordinator_restart(self, tmp_path, single_host):
        """A worker dies mid-shard; its lease expires; the campaign is
        finished by another worker under a *restarted* coordinator with
        no lost or duplicated cells."""
        reference, reference_bytes = single_host
        qdir = str(tmp_path / "q")
        cache = str(tmp_path / "cache.jsonl")
        queue = FsQueue.create(qdir, lease_ttl=2.0)

        # Plan and enqueue exactly like a coordinator, then "crash" it:
        # claim one shard as a zombie worker that simulates one cell and
        # disappears without completing or renewing.
        from repro.dist import plan_shards

        # (bumping the generation as it does: otherwise the restarted one
        # reuses these shard ids, and a stale shard the worker grabs before
        # the re-plan completes under the id of a new one)
        prefix = f"g{queue.next_generation()}"
        for shard in plan_shards(CELLS, cells_per_shard=4, prefix=prefix):
            queue.enqueue(shard.manifest())
        zombie = queue.claim("zombie")
        assert zombie is not None
        from repro.core import run_cell_report
        from repro.core.campaign import cell_token
        from repro.spec import CellSpec

        zombie_cell = CellSpec.from_obj(zombie.spec["cells"][0])
        value, _report = run_cell_report(zombie_cell)
        zombie_cache = ResultCache(queue.result_path(zombie.shard_id, zombie.attempt))
        zombie_cache.put(cell_token(zombie_cell), value)
        zombie_cache.close()
        os.utime(zombie.path, (0, 0))  # heartbeat long dead

        # Restarted coordinator + one healthy worker finish the job.
        thread, results = start_worker(qdir, "healthy")
        broker = FsQueueBroker(
            qdir, cells_per_shard=4, lease_ttl=2.0, poll_interval=0.05, timeout=300.0
        )
        result = run_cells(CELLS, cache_path=cache, backend=broker)
        thread.join(timeout=60)

        assert result.scores == reference.scores
        stats = results["stats"]
        assert stats.shards > 0
        # the zombie's proven cell was harvested, not recomputed
        assert stats.cached_cells >= 1

        canonical = str(tmp_path / "canonical.jsonl")
        _, report = merge_caches([cache], out_path=canonical)
        assert report.duplicates == 0  # canonical cache has no dup cells
        with open(canonical, "rb") as fh:
            assert fh.read() == reference_bytes

    def test_attempts_exhausted_raises(self, tmp_path):
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=0.1)
        cells = triple_cells(TRIPLES[:1], logs=("KTH-SP2",), n_jobs=40)
        # a zombie claims the only shard and never works; with
        # max_attempts=1 the expiry fails the shard immediately
        broker = FsQueueBroker(
            qdir, cells_per_shard=64, lease_ttl=0.1, max_attempts=1,
            poll_interval=0.05, timeout=60.0,
        )

        def zombie_claimer():
            while True:
                lease = queue.claim("zombie")
                if lease is not None:
                    os.utime(lease.path, (0, 0))
                    return

        thread = threading.Thread(target=zombie_claimer, daemon=True)
        thread.start()
        with pytest.raises(RuntimeError, match="exhausted"):
            run_cells(cells, backend=broker)
        thread.join(timeout=10)


class TestOneEventStream:
    """Every lifecycle step is one record in one stream per component: the
    coordinator's wherever its caller traces to, a worker's always in
    ``QUEUE/progress/<id>.jsonl`` -- telemetry directory or not."""

    def test_coordinator_and_worker_streams(self, tmp_path):
        qdir = str(tmp_path / "q")
        trace = str(tmp_path / "coordinator.jsonl")
        thread, results = start_worker(qdir, "w0")  # no telemetry_dir
        broker = FsQueueBroker(
            qdir, n_shards=2, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        telemetry = Telemetry("campaign", trace=JsonlTraceSink(trace))
        run_cells(CELLS, backend=broker, telemetry=telemetry)
        telemetry.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        n_cells = len(CELLS)

        coordinator = load_events(trace)
        kinds = [e["kind"] for e in coordinator if e["kind"] != "span"]
        assert kinds == ["start", "enqueue"] + ["cell"] * n_cells + ["dist_done", "end"]
        cells = [e for e in coordinator if e["kind"] == "cell"]
        assert [e["done"] for e in cells] == list(range(1, n_cells + 1))
        assert {e["total"] for e in cells} == {n_cells}
        enqueue = coordinator[1]
        assert (enqueue["shards"], enqueue["cells"]) == (2, n_cells)
        assert len(enqueue["est_costs"]) == 2

        worker = load_events(FsQueue(qdir).progress_path("w0"))
        kinds = [e["kind"] for e in worker]
        assert kinds[0] == "worker_start"  # the start stamp: before any claim
        assert kinds[-1] == "worker_exit"
        assert kinds.count("claim") == kinds.count("shard_done") == 2
        assert kinds.count("cell") == results["stats"].cells == n_cells
        assert sorted(set(kinds)) == [
            "cell", "claim", "shard_done", "worker_exit", "worker_start",
        ]
        assert worker[-1]["reason"] == "done" and worker[-1]["cells"] == n_cells
        assert {e["shard"] for e in worker if e["kind"] == "cell"} == {
            e["shard"] for e in worker if e["kind"] == "claim"
        }

        for event in coordinator + worker:
            assert {"kind", "component", "elapsed"} <= set(event)
        assert {e["component"] for e in coordinator} == {"campaign"}
        assert {e["component"] for e in worker} == {"worker-w0"}
        # and nothing else was written on the worker's behalf
        assert os.listdir(os.path.join(qdir, "progress")) == ["w0.jsonl"]

        text = format_events(coordinator + worker)
        assert f"campaign: {n_cells} cells (0 cached, {n_cells} to simulate)" in text
        assert f"simulated: {n_cells}/{n_cells}" in text
        assert f"2 shard(s), {n_cells} cell(s) enqueued" in text
        assert f"  worker-w0: {n_cells} cell(s), 2/2 shard(s) done, exited (done)" in text

    def test_lease_expiry_shows_as_requeue_in_the_coordinator_stream(self, tmp_path):
        qdir = str(tmp_path / "q")
        trace = str(tmp_path / "coordinator.jsonl")
        queue = FsQueue.create(qdir, lease_ttl=5.0)
        cells = triple_cells(TRIPLES[:2], logs=("KTH-SP2",), n_jobs=40)
        broker = FsQueueBroker(
            qdir, cells_per_shard=64, lease_ttl=5.0, poll_interval=0.05, timeout=120.0
        )
        healthy = {}

        def zombie_then_healthy():
            # a zombie claims the only shard and its heartbeat dies at once;
            # only then does a worker that can finish the job show up
            while True:
                lease = queue.claim("zombie")
                if lease is not None:
                    os.utime(lease.path, (0, 0))
                    break
            healthy["thread"], _ = start_worker(qdir, "healthy")

        thread = threading.Thread(target=zombie_then_healthy, daemon=True)
        thread.start()
        telemetry = Telemetry("campaign", trace=JsonlTraceSink(trace))
        run_cells(cells, backend=broker, telemetry=telemetry)
        telemetry.close()
        thread.join(timeout=10)
        healthy["thread"].join(timeout=60)

        events = load_events(trace)
        requeues = [e for e in events if e["kind"] == "requeue"]
        assert [(e["shard"], e["attempt"]) for e in requeues] == [("g1-0000", 1)]
        assert "shard_failed" not in {e["kind"] for e in events}
        assert "lease expiries re-queued: 1 (g1-0000)" in format_events(events)


class TestSignalHygiene:
    def test_worker_ignores_stale_done_marker(self, tmp_path):
        """A DONE left by a finished campaign predates a newly started
        worker: the worker must keep waiting for the next campaign
        (bounded by max_idle), not exit with reason 'done'."""
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        generation = int(queue.read_meta().get("generation", 0))
        queue.signal("DONE", {"generation": generation})
        os.utime(os.path.join(qdir, "DONE"), (1.0, 1.0))  # ancient fs stamp
        stats = run_worker(qdir, worker_id="w0", poll_interval=0.05, max_idle=0.3)
        assert stats.reason == "idle"

    def test_worker_honours_fresh_done_marker(self, tmp_path):
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        generation = int(queue.read_meta().get("generation", 0))
        queue.signal("DONE", {"generation": generation})
        stats = run_worker(qdir, worker_id="w0", poll_interval=0.05, max_idle=30.0)
        assert stats.reason == "done"

    def test_worker_ignores_generation_less_done_marker(self, tmp_path):
        """Debris DONE written moments before the worker starts sits
        inside the mtime-freshness grace, but carries no generation: it
        cannot prove it concludes the campaign the coordinator is about
        to enqueue, so the worker keeps waiting."""
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        queue.signal("DONE")  # fresh mtime, no generation payload
        stats = run_worker(qdir, worker_id="w0", poll_interval=0.05, max_idle=0.3)
        assert stats.reason == "idle"

    def test_worker_ignores_stop_predating_start(self, tmp_path):
        """A STOP left by a failed campaign predates the worker: it is
        the next coordinator's to clear, not a desertion order."""
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        queue.signal("STOP")
        os.utime(os.path.join(qdir, "STOP"), (1.0, 1.0))  # ancient fs stamp
        stats = run_worker(qdir, worker_id="w0", poll_interval=0.05, max_idle=0.3)
        assert stats.reason == "idle"

    def test_worker_honours_stop_posted_after_start(self, tmp_path):
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        thread, results = start_worker(qdir, "w0")
        time.sleep(0.2)  # let the worker stamp its start and begin polling
        queue.signal("STOP")
        thread.join(timeout=30)
        assert results["stats"].reason == "stop"

    def test_stale_stop_signal_cleared_on_new_campaign(self, tmp_path, single_host):
        """A failed campaign leaves STOP behind; the next campaign on the
        same queue directory must clear it or workers exit instantly and
        the coordinator hangs."""
        reference, _ = single_host
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        queue.signal("STOP")
        queue.signal("DONE")
        thread, results = start_worker(qdir, "w0")
        broker = FsQueueBroker(
            qdir, cells_per_shard=2, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        result = run_cells(CELLS, backend=broker)
        thread.join(timeout=60)
        assert result.scores == reference.scores
        assert results["stats"].shards > 0


class TestWarmRestart:
    def test_finished_campaign_needs_no_workers(self, tmp_path, single_host):
        """With every cell already in the canonical cache the fsqueue
        backend must not enqueue anything or wait for workers."""
        reference, _ = single_host
        qdir = str(tmp_path / "q")
        cache = str(tmp_path / "cache.jsonl")
        threads = [start_worker(qdir, "w0")[0]]
        broker = FsQueueBroker(
            qdir, cells_per_shard=2, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        first = run_cells(CELLS, cache_path=cache, backend=broker)
        for thread in threads:
            thread.join(timeout=60)
        # no worker running now: must still return instantly from cache
        again = run_cells(CELLS, cache_path=cache, backend=broker)
        assert again.scores == first.scores == reference.scores

    def test_results_on_disk_survive_coordinator_loss(self, tmp_path, single_host):
        """Worker results that never reached the coordinator's canonical
        cache are harvested by the next coordinator before re-planning."""
        reference, _ = single_host
        qdir = str(tmp_path / "q")
        threads = [start_worker(qdir, "w0")[0]]
        broker = FsQueueBroker(
            qdir, cells_per_shard=2, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        # first coordinator writes NO canonical cache (simulates dying
        # before its cache hit disk -- results live only in the queue)
        first = run_cells(CELLS, cache_path=None, backend=broker)
        for thread in threads:
            thread.join(timeout=60)
        # second coordinator, fresh cache, no workers: everything must
        # come from the harvested shard results
        second = run_cells(
            CELLS, cache_path=str(tmp_path / "c2.jsonl"), backend=broker
        )
        assert second.scores == first.scores == reference.scores
