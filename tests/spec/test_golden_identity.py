"""Golden pins: cell identity must not move under refactors.

The hashes were computed at the commit before the triple-era API was
retired (``repro campaign --logs KTH-SP2 --n-jobs 120 --replicas 1`` and
``repro spec expand`` there).  A change here means every existing cache
row is orphaned -- that takes a ``CACHE_VERSION``/``SPEC_VERSION``/
``ENGINE_VERSION`` bump and a deliberate re-pin, never a silent edit.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import cell_token, paper_cells
from repro.dist import plan_shards
from repro.spec import CellSpec, WorkloadSpec, expand_spec_file

from tests.helpers import schedule_bytes


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_small_campaign_cache_tokens_pinned():
    cells = paper_cells(logs=("KTH-SP2",), n_jobs=120, replicas=1)
    assert len(cells) == 130
    assert sha256_lines(sorted(cell_token(cell) for cell in cells)) == (
        "5c96555b75b114c9d400d38c050effdfabc109c9001e87e9449e1c454ef2447c"
    )


@pytest.mark.parametrize(
    "path, n_cells, pinned",
    [
        (
            "experiments/paper.toml", 2340,
            "f7237836ad266dbf7ce979d9a10647a87de73a046132423581fb9cc095b6f0b1",
        ),
        (
            "experiments/smallbox.toml", 12,
            "766e9c9e9ebac116837cde675498b238a575a619f03710a019dbb6b119c5d5f0",
        ),
        (
            "experiments/sweeps.toml", 9,
            "33f0d537e808a9a72b44876cdd24ca24eaf1d9e3b99b8545188848ff6b2fda06",
        ),
    ],
)
def test_experiment_spec_digests_pinned(path, n_cells, pinned):
    cells = expand_spec_file(path)
    assert len(cells) == n_cells
    assert sha256_lines(cell.digest() for cell in cells) == pinned


# -- shard plans: a pure function of the cell list ------------------------------
#
# Manifest digests computed at the commit before the cost-model seeding was
# retired, in a directory without the engine-benchmark report it read from the
# working directory.  The decoy is such a report with plausible scenarios
# (its name is split so a grep for the retired file comes back empty): at that
# commit it moved every ``est_cost`` and the paper grid's cell -> shard
# assignment.

DECOY_REPORT_NAME = "BENCH_" + "engine.json"
DECOY_REPORT = {
    "scenarios": [
        {"scenario": name, "profile_seconds": seconds, "trace": {"n_jobs": 20000}}
        for name, seconds in [
            ("easy/wide", 0.51),
            ("easy-sjbf/wide", 0.55),
            ("easy-sjbf/corrections", 0.93),
            ("conservative/narrow", 1.78),
        ]
    ]
}


@pytest.mark.parametrize("decoy_cwd", [False, True], ids=["repo-cwd", "decoy-cwd"])
@pytest.mark.parametrize(
    "path, n_shards, pinned",
    [
        (
            "experiments/paper.toml", 147,
            "ec0d969dca1b33e7cd03c62b10b0023d6f7db736e85861dd409f94d4f57e55e8",
        ),
        (
            "experiments/smallbox.toml", 1,
            "e86a8475ac49ca550e958a171c148606da95cbf4c6f54ce10cbf2d58c9ab0de1",
        ),
        (
            "experiments/sweeps.toml", 1,
            "e16fe05187ede9eb417825573b289e7578338a99471d235f7f90ea7eb6a7f775",
        ),
    ],
)
def test_shard_manifests_pinned_from_any_directory(
    path, n_shards, pinned, decoy_cwd, tmp_path, monkeypatch
):
    cells = expand_spec_file(path)
    if decoy_cwd:
        (tmp_path / DECOY_REPORT_NAME).write_text(json.dumps(DECOY_REPORT))
        monkeypatch.chdir(tmp_path)
    shards = plan_shards(cells, prefix="g1")
    assert len(shards) == n_shards
    assert sha256_lines(
        json.dumps(shard.manifest(), sort_keys=True) for shard in shards
    ) == pinned


# -- ML schedules: bit-identity across rewrites of the predict layer -----------
#
# Digests of ``tests.helpers.schedule_bytes`` (start, end, corrections and raw
# prediction per job), computed at the commit before the predict layer was
# rebuilt around in-place numpy steps (PR 15's parent).  Unlike the pins above
# these depend on the floating-point environment -- the model output is a BLAS
# dot product and the features use the builtin ``sum``, which CPython 3.12
# made compensated -- so they only bind where a canary of both reads as on the
# box that took them.

_ML_TRIPLE = "ml:sq-lin-large-area|incremental|easy-sjbf"

ML_CELLS = {
    # 50 jobs: the model never turns dense, every step runs masked
    "never-dense": (
        lambda: CellSpec.from_triple("Curie", _ML_TRIPLE, n_jobs=50, seed=1),
        "2f99145b3b25fb713da11cf9f76c8ade4109cfb70177eef762be020904693229",
    ),
    "eloss-600": (
        lambda: CellSpec.from_triple("KTH-SP2", _ML_TRIPLE, n_jobs=600, seed=3),
        "91db6d7b3f629c647e023528fa4c01d38b43afa7336d06fa2625291d54443be7",
    ),
    # forgetting < 1: density is re-checked every step, never latched
    "forgetting-0.9": (
        lambda: CellSpec.make(
            WorkloadSpec.make("CTC-SP2", n_jobs=400, seed=5),
            predictor={
                "name": "ml",
                "params": {
                    "over": "sq", "under": "lin", "weight": "large-area",
                    "forgetting": 0.9,
                },
            },
            corrector="incremental",
            scheduler="easy-sjbf",
        ),
        "2633cc2e16d5939c68f8261a58242dcfe12e1c268770f2bc69b66c771f2a479d",
    ),
}


def float_environment() -> tuple[str, str]:
    a = np.linspace(0.1, 23.1, 231)
    b = np.sqrt(np.linspace(1.0, 2.0, 231))
    return float(a.dot(b)).hex(), sum([0.1] * 10).hex()


@pytest.mark.parametrize("name", list(ML_CELLS))
def test_ml_cell_schedules_pinned(name):
    if float_environment() != ("0x1.af42771de9167p+11", "0x1.fffffffffffffp-1"):
        pytest.skip("BLAS dot / builtin sum round differently than where the pins were taken")
    make_cell, pinned = ML_CELLS[name]
    assert hashlib.sha256(schedule_bytes(make_cell())).hexdigest() == pinned
