"""Unit tests for the campaign runner (small configurations)."""

import pytest

from repro.core import (
    EASY_TRIPLE,
    EASYPP_TRIPLE,
    ResultCache,
    SpecCampaignResult,
    cell_token,
    paper_cells,
    run_cells,
    run_spec,
    workload_digest,
)
from repro.spec import CellSpec, WorkloadSpec


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    """One tiny log, one replica; cached so all tests share the cost."""
    cache = tmp_path_factory.mktemp("cache") / "campaign.json"
    cells = paper_cells(logs=("KTH-SP2",), n_jobs=250, replicas=1)
    return run_cells(cells, cache_path=str(cache), workers=8), cache, cells


class TestRunTriple:
    def test_result_fields(self):
        result = run_spec(CellSpec.from_triple("KTH-SP2", EASY_TRIPLE, n_jobs=150))
        assert len(result) == 150
        assert result.avebsld() >= 1.0
        assert 0.0 < result.utilization() <= 1.0
        assert result.total_corrections() == 0  # requested time never under-predicts

    def test_deterministic(self):
        a = run_spec(CellSpec.from_triple("KTH-SP2", EASYPP_TRIPLE, n_jobs=150))
        b = run_spec(CellSpec.from_triple("KTH-SP2", EASYPP_TRIPLE, n_jobs=150))
        assert a.avebsld() == b.avebsld()


class TestCampaign:
    def test_all_triples_scored(self, small_campaign):
        result, _, cells = small_campaign
        assert result.logs() == ["KTH-SP2"]
        assert len(result.labels()) == 130  # 128 + 2 clairvoyant references
        assert len(result.scores) == len(cells) == 130  # one replica each
        assert all(score >= 1.0 for score in result.scores.values())

    def test_table1_rows(self, small_campaign):
        result, _, _ = small_campaign
        rows = result.table1_rows()
        assert len(rows) == 1
        log, easy, clair, reduction = rows[0]
        assert log == "KTH-SP2"
        assert easy >= 1.0 and clair >= 1.0

    def test_table6_rows(self, small_campaign):
        result, _, _ = small_campaign
        (log, cf, cs, easy, easypp, rng_f, rng_s) = result.table6_rows()[0]
        assert rng_f[0] <= rng_f[1]
        assert rng_s[0] <= rng_s[1]

    def test_learning_range_over_60_triples(self, small_campaign):
        result, _, _ = small_campaign
        best, worst = result.learning_range("KTH-SP2", "easy-sjbf")
        assert best <= worst
        learned = [
            result.mean("KTH-SP2", label)
            for label in result.labels()
            if label.startswith("ml:") and label.endswith("|easy-sjbf")
        ]
        assert len(learned) == 60
        assert (best, worst) == (min(learned), max(learned))

    def test_best_triple_minimises_sum(self, small_campaign):
        result, _, _ = small_campaign
        best = result.best_label()
        scores = [result.mean("KTH-SP2", t) for t in result.competing_labels()]
        assert result.mean("KTH-SP2", best) == pytest.approx(min(scores))

    def test_score_vector(self, small_campaign):
        result, _, _ = small_campaign
        keys = result.competing_labels()
        vec = result.score_vector("KTH-SP2", keys)
        assert vec.shape == (128,)

    def test_mean_averages_replicas(self):
        cells = [
            CellSpec.from_triple("KTH-SP2", EASY_TRIPLE, n_jobs=10, seed=seed)
            for seed in (1, 2)
        ]
        result = SpecCampaignResult(
            cells=cells, scores={cells[0].digest(): 2.0, cells[1].digest(): 4.0}
        )
        assert result.mean("KTH-SP2", EASY_TRIPLE) == 3.0
        with pytest.raises(KeyError):
            result.mean("KTH-SP2", EASYPP_TRIPLE)
        with pytest.raises(KeyError):
            result.table6_rows()

    def test_cache_reused(self, small_campaign):
        result, cache, cells = small_campaign
        # second run must be served from cache (no new entries appended)
        before = cache.read_text()
        again = run_cells(cells, cache_path=str(cache), workers=1)
        after = cache.read_text()
        assert before == after
        assert again.scores == result.scores

    def test_cache_token_distinguishes_inputs(self):
        def token(log="KTH-SP2", n_jobs=100, seed=1):
            return cell_token(
                CellSpec.from_triple(log, EASY_TRIPLE, n_jobs=n_jobs, seed=seed)
            )

        assert token() != token(n_jobs=200)
        assert token() != token(log="CTC-SP2")
        assert token() != token(seed=2)

    def test_cache_token_embeds_trace_digest_and_engine_version(self):
        from repro.sim.engine import ENGINE_VERSION

        def digest(seed):
            return workload_digest(WorkloadSpec.make("KTH-SP2", n_jobs=100, seed=seed))

        token = cell_token(
            CellSpec.from_triple("KTH-SP2", EASY_TRIPLE, n_jobs=100, seed=7)
        )
        assert digest(7) in token
        assert f"e{ENGINE_VERSION}" in token
        # different seeds draw different traces, so the digests differ too
        assert digest(7) != digest(8)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        cache = ResultCache(str(path))
        cache.put("k", 1.5)
        cache.flush()
        again = ResultCache(str(path))
        assert again.get("k") == 1.5

    def test_missing_returns_none(self, tmp_path):
        cache = ResultCache(str(tmp_path / "missing.json"))
        assert cache.get("k") is None

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        cache = ResultCache(str(path))
        assert cache.get("k") is None

    def test_none_path_noop(self):
        cache = ResultCache(None)
        cache.put("k", 1.0)
        cache.flush()  # must not raise
        assert cache.get("k") == 1.0
