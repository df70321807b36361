"""Cache-token identity, and the fence against foreign-version rows.

Tokens embed ``CACHE_VERSION`` and ``ENGINE_VERSION``; rows written by
another version (e.g. the pre-spec v4 tuple-keyed layout) are never
served and the merge tool refuses them loudly.
"""

import json

import pytest

from repro.core.campaign import (
    CACHE_VERSION,
    ResultCache,
    cell_token,
    workload_digest,
)
from repro.sim.engine import ENGINE_VERSION
from repro.spec import CellSpec

SPEC = CellSpec.from_triple("KTH-SP2", "requested|none|easy", n_jobs=60, seed=7)


def v4_token(spec):
    """A token exactly as CACHE_VERSION 4 wrote it (positional tuple)."""
    workload = spec.workload
    digest = workload_digest(workload)
    return (
        f"v4|e{ENGINE_VERSION}|{workload.log}@{digest}|{spec.triple_key}"
        f"|n={workload.n_jobs}|s={workload.seed}"
        f"|mp={spec.min_prediction:g}|tau={spec.tau:g}"
    )


def write_cache(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for token, value in rows:
            fh.write(json.dumps({"token": token, "value": value}) + "\n")


class TestMergeUpgradeLegacy:
    def test_merge_rejects_legacy_by_default(self, tmp_path):
        from repro.dist import merge_caches
        from repro.dist.merge import MergeVersionError

        path = tmp_path / "old.jsonl"
        write_cache(path, [(v4_token(SPEC), 1.0)])
        with pytest.raises(MergeVersionError):
            merge_caches([str(path)])

    def test_cache_never_serves_legacy_row(self, tmp_path):
        path = tmp_path / "old.jsonl"
        write_cache(path, [(v4_token(SPEC), 1.0)])
        assert ResultCache(str(path)).get(cell_token(SPEC)) is None


class TestCellTokenProperties:
    def test_token_embeds_spec_digest_and_versions(self):
        token = cell_token(SPEC)
        assert token.startswith(f"v{CACHE_VERSION}|e{ENGINE_VERSION}|KTH-SP2@")
        assert token.endswith(f"|spec:{SPEC.digest()}")

    def test_non_plain_workload_digest_differs(self):
        plain = CellSpec.make(
            workload={"log": "KTH-SP2", "n_jobs": 60, "seed": 7},
            predictor="requested", corrector=None, scheduler="easy",
        )
        filtered = CellSpec.make(
            workload={
                "log": "KTH-SP2", "n_jobs": 60, "seed": 7,
                "filters": [{"name": "max-width", "params": {"processors": 25}}],
            },
            predictor="requested", corrector=None, scheduler="easy",
        )
        assert cell_token(plain) != cell_token(filtered)
        # the filtered trace digest reflects the filtered jobs
        plain_digest = cell_token(plain).split("@")[1].split("|")[0]
        filtered_digest = cell_token(filtered).split("@")[1].split("|")[0]
        assert plain_digest != filtered_digest
