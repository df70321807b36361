"""Golden pins: cell identity must not move under refactors.

The hashes were computed at the commit before the triple-era API was
retired (``repro campaign --logs KTH-SP2 --n-jobs 120 --replicas 1`` and
``repro spec expand`` there).  A change here means every existing cache
row is orphaned -- that takes a ``CACHE_VERSION``/``SPEC_VERSION``/
``ENGINE_VERSION`` bump and a deliberate re-pin, never a silent edit.
"""

import hashlib

import pytest

from repro.core import cell_token, paper_cells
from repro.spec import expand_spec_file


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
