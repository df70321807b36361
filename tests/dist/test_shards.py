"""Shard planning: balance, determinism, the constant cost model."""

import json

from repro.dist import CellCostModel, plan_shards
from repro.dist.shards import DEFAULT_CELLS_PER_SHARD
from repro.spec import CellSpec


def cell(log, key, seed, n_jobs=500):
    return CellSpec.from_triple(log, key, n_jobs=n_jobs, seed=seed)


def cells_for(n, logs=("KTH-SP2", "Curie"), seed0=100, n_jobs=500):
    keys = [
        "requested|none|easy",
        "ave2|incremental|easy-sjbf",
        "clairvoyant|none|easy",
    ]
    return [
        cell(logs[i % len(logs)], keys[i % len(keys)], seed0 + i, n_jobs)
        for i in range(n)
    ]


class TestCostModel:
    def test_corrected_triples_cost_more(self):
        model = CellCostModel()
        plain = model.cell_cost(cell("KTH-SP2", "requested|none|easy", 1, 1000))
        corrected = model.cell_cost(cell("KTH-SP2", "ave2|incremental|easy", 1, 1000))
        assert corrected > plain

    def test_cost_scales_with_jobs(self):
        model = CellCostModel()
        assert model.cell_cost(cell("KTH-SP2", "requested|none|easy", 1, 2000)) == (
            2 * model.cell_cost(cell("KTH-SP2", "requested|none|easy", 1, 1000))
        )

    def test_unknown_scheduler_uses_worst_weight(self):
        model = CellCostModel()
        exotic = model.cell_cost(cell("KTH-SP2", "requested|none|legacy-easy", 1, 100))
        assert exotic == max(model.scheduler_weights.values()) * 100

    def test_parameterized_scheduler_keys_match_weight_names(self):
        # easy(order=sjbf) must hit the "easy-sjbf" weight however the
        # spec was spelled
        model = CellCostModel(
            scheduler_weights={"easy": 1.0, "easy-sjbf": 7.0, "conservative": 2.0}
        )
        spec = CellSpec.make(
            workload={"log": "KTH-SP2", "n_jobs": 100},
            predictor="requested",
            corrector=None,
            scheduler={"name": "easy", "params": {"order": "sjbf"}},
        )
        assert model.cell_cost(spec) == 7.0 * 100


class TestPlanShards:
    def test_partition_is_exact(self):
        cells = cells_for(50)
        shards = plan_shards(cells, n_shards=7)
        flat = [c for shard in shards for c in shard.cells]
        assert sorted(c.digest() for c in flat) == sorted(c.digest() for c in cells)
        assert len({c.digest() for c in flat}) == len(cells)

    def test_default_granularity(self):
        shards = plan_shards(cells_for(100))
        expected = (100 + DEFAULT_CELLS_PER_SHARD - 1) // DEFAULT_CELLS_PER_SHARD
        assert len(shards) == expected

    def test_deterministic(self):
        a = plan_shards(cells_for(64), n_shards=5)
        b = plan_shards(cells_for(64), n_shards=5)
        assert a == b

    def test_balanced_loads(self):
        model = CellCostModel()
        shards = plan_shards(cells_for(90), n_shards=6, cost_model=model)
        costs = [shard.est_cost for shard in shards]
        # LPT guarantees max <= 4/3 * optimum; sanity-check a loose bound
        assert max(costs) <= 2.0 * min(costs)

    def test_more_shards_than_cells_collapses(self):
        shards = plan_shards(cells_for(3), n_shards=10)
        assert len(shards) == 3
        assert all(len(shard.cells) == 1 for shard in shards)

    def test_empty_cells(self):
        assert plan_shards([]) == []

    def test_prefix_in_shard_ids(self):
        shards = plan_shards(cells_for(4), n_shards=2, prefix="g7")
        assert all(shard.shard_id.startswith("g7-") for shard in shards)

    def test_manifest_carries_specs_and_versions(self):
        from repro.core.campaign import CACHE_VERSION
        from repro.sim.engine import ENGINE_VERSION
        from repro.spec import SPEC_VERSION

        shard = plan_shards(cells_for(4, n_jobs=123), n_shards=1)[0]
        manifest = shard.manifest()
        assert manifest["cache_version"] == CACHE_VERSION
        assert manifest["engine_version"] == ENGINE_VERSION
        assert manifest["spec_version"] == SPEC_VERSION
        # cells travel in canonical spec form and round-trip exactly
        rebuilt = [CellSpec.from_obj(obj) for obj in manifest["cells"]]
        assert rebuilt == list(shard.cells)
        assert all(obj["workload"]["n_jobs"] == 123 for obj in manifest["cells"])

    def test_mixed_workload_sizes_weighted(self):
        # per-cell n_jobs (impossible under the old shard-level config)
        big = cell("KTH-SP2", "requested|none|easy", 1, n_jobs=4000)
        small = cell("KTH-SP2", "requested|none|easy", 2, n_jobs=100)
        model = CellCostModel()
        assert model.cell_cost(big) == 40 * model.cell_cost(small)


class TestTraceGrouping:
    """Same-trace cells must land adjacently in one shard (batch unlock)."""

    def shared_trace_cells(self):
        """2 trace identities x 4 triples = the shape of a real campaign."""
        keys = [
            "requested|none|easy",
            "requested|none|easy-sjbf",
            "ave2|incremental|easy-sjbf",
            "clairvoyant|none|easy",
        ]
        return [
            cell("KTH-SP2", key, seed, n_jobs=200)
            for seed in (1, 2)
            for key in keys
        ]

    def test_shards_are_trace_pure_when_balance_allows(self):
        shards = plan_shards(self.shared_trace_cells(), cells_per_shard=4)
        assert len(shards) == 2
        for shard in shards:
            assert len(shard.trace_keys) == 1
            workload_objs = {
                json.dumps(c.workload.to_obj(), sort_keys=True)
                for c in shard.cells
            }
            assert len(workload_objs) == 1

    def test_manifest_carries_trace_keys(self):
        from repro.core.batch import workload_key

        shards = plan_shards(self.shared_trace_cells(), cells_per_shard=4)
        for shard in shards:
            manifest = shard.manifest()
            assert manifest["trace_keys"] == list(shard.trace_keys)
            assert manifest["trace_keys"] == [
                workload_key(shard.cells[0].workload)
            ]

    def test_oversized_group_splits_but_stays_grouped(self):
        cells = self.shared_trace_cells()  # 2 groups of 4
        shards = plan_shards(cells, n_shards=4)
        assert len(shards) == 4
        # every shard still holds cells of exactly one trace
        assert all(len(shard.trace_keys) == 1 for shard in shards)
        flat = [c.digest() for shard in shards for c in shard.cells]
        assert sorted(flat) == sorted(c.digest() for c in cells)

    def test_singleton_groups_degrade_to_classic_lpt(self):
        """Distinct-trace campaigns (the pre-batching shape) must plan
        exactly as before: chunking cannot change singleton-group LPT."""
        shards = plan_shards(cells_for(30), n_shards=4)
        assert len(shards) == 4
        assert all(len(shard.trace_keys) == len(shard.cells) for shard in shards)
        costs = [shard.est_cost for shard in shards]
        assert max(costs) <= 2.0 * min(costs)
