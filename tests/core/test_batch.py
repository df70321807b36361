"""Batched campaign execution (repro.core.batch).

The contract under test: sharing one materialised trace (and its
memoised digest) across every cell of a trace-identity group changes
**nothing** about the schedules -- cold per-cell runs and warm
shared-trace runs are byte-identical, for every scheduler family x
predictor family, and the batched campaign path writes exactly the
cache rows of the per-cell path.
"""

import json

import pytest

from repro.core import (
    BundleCache,
    bundle_cache,
    cell_token,
    clear_bundle_cache,
    get_bundle,
    group_cells,
    plan_batches,
    run_batch_report,
    run_cell_report,
    run_cells,
    workload_key,
)
from repro.dist import LocalBroker
from repro.spec import CellSpec, WorkloadSpec, expand_spec_file
from repro.workload import Trace

from tests.helpers import schedule_bytes

#: Every scheduler family x every predictor family, on one shared trace.
SCHEDULERS = ("easy", "easy-sjbf", "conservative")
PREDICTORS = (
    ("requested", "none"),
    ("clairvoyant", "none"),
    ("ave2", "incremental"),
    ("ml:sq-lin-large-area", "incremental"),
)

LOG = "KTH-SP2"
N_JOBS = 100
SEED = 7


def family_matrix(log=LOG, n_jobs=N_JOBS, seed=SEED):
    return [
        CellSpec.from_triple(
            log, f"{pred}|{corr}|{sched}", n_jobs=n_jobs, seed=seed
        )
        for sched in SCHEDULERS
        for pred, corr in PREDICTORS
    ]


class TestByteIdentity:
    def test_family_matrix_cold_vs_shared_bundle(self):
        """Every scheduler family x predictor family: a cold cache per
        cell (the old per-cell fixed-cost path) and one warm shared
        bundle produce byte-identical schedules."""
        cells = family_matrix()
        cold = []
        for spec in cells:
            clear_bundle_cache()
            cold.append(schedule_bytes(spec))
        clear_bundle_cache()
        cache = bundle_cache()
        misses0, hits0 = cache.misses, cache.hits
        warm = [schedule_bytes(spec) for spec in cells]
        assert cold == warm
        # one miss for the shared trace, everything else served warm
        assert cache.misses - misses0 == 1
        assert cache.hits - hits0 == len(cells) - 1

    def test_paper_spec_sampled_cells(self):
        """Deterministic sample of the paper's 128+2 matrix, shrunk to a
        test-sized trace: cold per-cell == warm shared-bundle."""
        expanded = expand_spec_file("experiments/paper.toml")
        sampled = expanded[:: max(1, len(expanded) // 6)][:6]
        assert len(sampled) == 6
        cells = [
            CellSpec.make(
                WorkloadSpec.make(spec.workload.log, n_jobs=N_JOBS, seed=SEED),
                spec.predictor,
                spec.corrector,
                spec.scheduler,
                min_prediction=spec.min_prediction,
                tau=spec.tau,
            )
            for spec in sampled
        ]
        cold = []
        for spec in cells:
            clear_bundle_cache()
            cold.append(schedule_bytes(spec))
        clear_bundle_cache()
        warm = [schedule_bytes(spec) for spec in cells]
        assert cold == warm


class TestGrouping:
    def cells(self):
        out = []
        for seed in (1, 2):
            for sched in ("easy", "easy-sjbf"):
                out.append(
                    CellSpec.from_triple(
                        LOG, f"requested|none|{sched}", n_jobs=50, seed=seed
                    )
                )
        return out

    def test_group_cells_by_trace_identity(self):
        cells = self.cells()
        groups = group_cells(cells)
        assert len(groups) == 2
        assert [len(group) for _key, group in groups] == [2, 2]
        for key, group in groups:
            assert {workload_key(spec.workload) for spec in group} == {key}
        # order-preserving: first group is the first cell's trace
        assert groups[0][1][0] is cells[0]

    def test_group_cells_idempotent_on_grouped_input(self):
        cells = self.cells()
        flat = [spec for _key, group in group_cells(cells) for spec in group]
        assert [spec for _k, g in group_cells(flat) for spec in g] == flat

    def test_plan_batches_trace_pure_and_capped(self):
        cells = self.cells() * 3  # 6 cells per trace group
        batches = plan_batches(cells, max_batch=4)
        assert sorted(len(b) for b in batches) == [2, 2, 4, 4]
        for batch in batches:
            assert len({workload_key(spec.workload) for spec in batch}) == 1
        # partition: every cell exactly once
        assert sorted(id(s) for b in batches for s in b) == sorted(
            id(s) for s in cells
        )

    def test_plan_batches_rejects_bad_cap(self):
        with pytest.raises(ValueError, match="max_batch"):
            plan_batches(self.cells(), max_batch=0)


class TestBundleCache:
    def workloads(self, n):
        return [WorkloadSpec.make(LOG, n_jobs=30 + i, seed=3) for i in range(n)]

    def test_lru_eviction_bounds_capacity(self):
        cache = BundleCache(capacity=2)
        for workload in self.workloads(3):
            cache.get(workload)
        assert len(cache) == 2
        assert cache.misses == 3

    def test_digest_survives_eviction(self):
        cache = BundleCache(capacity=1)
        workloads = self.workloads(2)
        first_digest = cache.digest_of(workloads[0])
        assert first_digest == cache.get(workloads[0]).digest()
        cache.get(workloads[1])  # evicts workloads[0]
        assert len(cache) == 1
        misses_before = cache.misses
        assert cache.digest_of(workloads[0]) == first_digest
        assert cache.misses == misses_before  # served from the memo

    def test_hit_returns_same_bundle_object(self):
        cache = BundleCache(capacity=2)
        workload = self.workloads(1)[0]
        trace = cache.get(workload)
        assert isinstance(trace, Trace)
        assert cache.get(workload) is trace
        assert cache.hits == 1

    def test_get_bundle_returns_the_shared_trace(self):
        clear_bundle_cache()
        workload = self.workloads(1)[0]
        assert get_bundle(workload) is bundle_cache().get(workload)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            BundleCache(capacity=0)

    def test_clear_resets_everything(self):
        cache = BundleCache(capacity=2)
        workload = self.workloads(1)[0]
        cache.digest_of(workload)
        cache.clear()
        assert len(cache) == 0
        misses_before = cache.misses
        cache.digest_of(workload)
        assert cache.misses == misses_before + 1  # truly cold again


class TestRunBatchReport:
    def test_scores_match_per_cell_scores(self):
        cells = family_matrix(n_jobs=60)[:6]
        clear_bundle_cache()
        misses_before = bundle_cache().misses
        results = run_batch_report(cells)
        assert bundle_cache().misses == misses_before + 1  # one trace, built once
        assert [spec for spec, _s, _r in results] == cells
        for spec, score, report in results:
            assert score == run_cell_report(spec)[0]
            assert report["seconds"] >= 0.0


class TestCampaignCacheRows:
    def test_batched_path_writes_the_per_cell_rows(self, tmp_path):
        """run_cells under the batched LocalBroker writes exactly the
        cache rows (same tokens, same values) that per-cell
        ``run_cell_report`` calls produce."""
        cells = family_matrix(n_jobs=60)[:8]
        batched = str(tmp_path / "batched.jsonl")
        got = run_cells(
            cells, cache_path=batched, backend=LocalBroker(workers=1)
        )
        per_cell = {spec.digest(): run_cell_report(spec)[0] for spec in cells}
        assert got.scores == per_cell

        with open(batched, encoding="utf-8") as fh:
            rows = sorted(
                (rec["token"], rec["value"]) for rec in map(json.loads, fh)
            )
        assert rows == sorted(
            (cell_token(spec), per_cell[spec.digest()]) for spec in cells
        )

    def test_pool_batched_matches_serial(self, tmp_path):
        cells = family_matrix(n_jobs=60)[:8]
        serial = run_cells(
            cells, cache_path=str(tmp_path / "s.jsonl"),
            backend=LocalBroker(workers=1),
        )
        pooled = run_cells(
            cells, cache_path=str(tmp_path / "p.jsonl"),
            backend=LocalBroker(workers=2),
        )
        assert pooled.scores == serial.scores
