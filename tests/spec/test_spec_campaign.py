"""The declarative campaign path end to end: cells expanded from a spec
document are the cells built from triple keys (same digests, same cache
rows), under the local pool and the fsqueue backend."""

import threading

import pytest

from repro.core import run_cells
from repro.spec import expand_spec_obj

from tests.helpers import triple_cells

TRIPLES = [
    "requested|none|easy",
    "requested|none|easy-sjbf",
    "ave2|incremental|easy-sjbf",
    "clairvoyant|none|easy",
]

KEYED_CELLS = triple_cells(TRIPLES, logs=("KTH-SP2",), n_jobs=80, replicas=2)

SPEC_DOC = {
    "campaign": {
        "name": "mini-paper",
        "logs": ["KTH-SP2"],
        "n_jobs": 80,
        "replicas": 2,
    },
    "grid": [
        {
            "predictor": ["requested"],
            "corrector": ["none"],
            "scheduler": ["easy", "easy-sjbf"],
        },
        {
            "predictor": ["ave2"],
            "corrector": ["incremental"],
            "scheduler": ["easy-sjbf"],
        },
        {
            "predictor": ["clairvoyant"],
            "corrector": ["none"],
            "scheduler": ["easy"],
        },
    ],
}


@pytest.fixture(scope="module")
def legacy_result(tmp_path_factory):
    cache = tmp_path_factory.mktemp("legacy") / "cache.jsonl"
    return run_cells(KEYED_CELLS, cache_path=str(cache), workers=2), cache


class TestSpecCampaignEquivalence:
    def test_scores_identical_to_legacy_path(self, legacy_result, tmp_path):
        reference, _ = legacy_result
        cells = expand_spec_obj(SPEC_DOC)
        result = run_cells(cells, cache_path=str(tmp_path / "c.jsonl"), workers=2)
        assert result.scores == reference.scores  # digest-keyed: same cells too
        assert result.labels() == TRIPLES
        for triple in TRIPLES:
            assert result.mean("KTH-SP2", triple) == reference.mean("KTH-SP2", triple)

    def test_shares_cache_with_legacy_path(self, legacy_result, monkeypatch):
        """Spec-file cells hit the very same cache rows the legacy
        campaign wrote -- zero simulations on a warm legacy cache."""
        import repro.core.run as run_mod

        _, cache = legacy_result

        def boom(_spec, with_telemetry=False):
            raise AssertionError("warm spec campaign must not simulate")

        monkeypatch.setattr(run_mod, "run_cell_report", boom)
        cells = expand_spec_obj(SPEC_DOC)
        result = run_cells(cells, cache_path=str(cache), workers=1)
        assert len(result.scores) == len(cells)

    def test_fsqueue_backend_matches(self, legacy_result, tmp_path):
        from repro.dist import FsQueueBroker, run_worker

        reference, _ = legacy_result
        qdir = str(tmp_path / "q")
        results = {}

        def target():
            results["stats"] = run_worker(
                qdir, worker_id="w0", poll_interval=0.05, max_idle=60.0
            )

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        broker = FsQueueBroker(
            qdir, cells_per_shard=2, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        cells = expand_spec_obj(SPEC_DOC)
        result = run_cells(
            cells, cache_path=str(tmp_path / "c.jsonl"), backend=broker
        )
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result.scores == reference.scores
        assert results["stats"].shards > 0

    def test_non_legacy_grid_gets_leaderboard_not_tables(self):
        doc = {
            "campaign": {"logs": ["KTH-SP2"], "n_jobs": 40, "replicas": 1},
            "grid": [
                {
                    "predictor": [
                        {"name": "ave", "params": {"k": 2}},
                        {"name": "ml", "params": {
                            "over": "sq", "under": "lin",
                            "weight": "large-area", "eta": 1.0}},
                    ],
                    "corrector": ["incremental"],
                    "scheduler": ["easy-sjbf"],
                }
            ],
        }
        cells = expand_spec_obj(doc)
        result = run_cells(cells, workers=1)
        with pytest.raises(KeyError):  # not the paper's matrix
            result.table6_rows()
        board = result.leaderboard()
        assert len(board) == 2
        assert all(row.mean_score >= 1.0 for row in board)
        # both cells were simulated this run, so timing columns are live
        assert all(row.n_cells == 1 for row in board)
        assert all(
            row.mean_seconds is None or row.mean_seconds > 0 for row in board
        )

    def test_heterogeneous_n_jobs_in_one_campaign(self, tmp_path):
        """Per-cell workload sizes -- impossible under the old positional
        API where n_jobs was campaign-global."""
        doc = {
            "campaign": {"logs": ["KTH-SP2"], "replicas": 1},
            "grid": [
                {"n_jobs": 30, "predictor": ["requested"], "scheduler": ["easy"]},
                {"n_jobs": 60, "predictor": ["requested"], "scheduler": ["easy"]},
            ],
        }
        cells = expand_spec_obj(doc)
        assert [c.workload.n_jobs for c in cells] == [30, 60]
        result = run_cells(cells, cache_path=str(tmp_path / "c.jsonl"), workers=1)
        assert len(result.scores) == 2
