"""Results do not depend on the Python version's builtin ``sum``.

From CPython 3.12, ``sum()`` over floats adds with Neumaier compensation;
3.10 and 3.11 add left to right, so the two round differently.  Every sum
whose value reaches a trace, a feature, a score or a plan adds left to
right itself.  Here CPython 3.12's ``sum`` is written out and injected
into those modules, on whatever Python runs the suite: no pin may move.
"""

import importlib
import math
import random
import sys

import pytest

from repro.core import SpecCampaignResult, clear_bundle_cache
from repro.core.run import run_spec
from repro.dist import CellCostModel, plan_shards
from repro.predict.base import UserHistoryTracker
from repro.spec import CellSpec
from repro.workload import get_trace

from tests.helpers import make_job
from tests.spec import test_golden_identity as golden
from tests.workload.test_synthetic import TRACE_PINS

_LONG = 2**63


def python312_sum(iterable, /, start=0):
    """CPython 3.12's ``builtin_sum_impl`` in Python: exact ints while they
    fit a C long, then floats with Neumaier compensation (ints that fit
    added uncompensated), then plain ``+`` for anything else."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool) and -_LONG <= item < _LONG:
                if -_LONG <= result + item < _LONG:
                    result += item
                    continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -_LONG <= item < _LONG:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


#: every module whose float sums reach a trace, a feature, a score or a plan
MODULES = (
    "repro.workload.synthetic",
    "repro.predict.features",
    "repro.predict.base",
    "repro.sim.results",
    "repro.dist.shards",
    "repro.core.campaign",
)


@pytest.fixture
def python312(monkeypatch):
    """CPython 3.12's ``sum`` in the modules' globals, and no trace built
    before it in the per-process bundle cache."""
    for name in MODULES:
        monkeypatch.setattr(importlib.import_module(name), "sum", python312_sum, raising=False)
    clear_bundle_cache()
    yield
    clear_bundle_cache()


class TestTheEmulation:
    def test_compensates_where_left_to_right_does_not(self):
        assert python312_sum([0.1] * 10) == 1.0
        assert python312_sum([1e16, 1.0, 1.0]) == 1e16 + 2.0
        left_to_right = 0.0
        for x in [1e16, 1.0, 1.0]:
            left_to_right += x
        assert left_to_right == 1e16

    def test_ints_and_the_start_value(self):
        assert python312_sum(range(5)) == 10
        assert python312_sum([2**70, 1.5]) == 2**70 + 1.5
        assert python312_sum([], -0.0) == -0.0
        assert math.copysign(1.0, python312_sum([-0.0], -0.0)) == -1.0

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="the builtin adds left to right")
    def test_equals_the_builtin_where_the_builtin_compensates(self):
        gen = random.Random(0)
        specials = [0.0, -0.0, 1e16, -1e16, 0.1, 1e308, -1e308, math.inf, 3, True, 2**70]
        for _ in range(20_000):
            items = [
                gen.choice(specials) if gen.random() < 0.3
                else gen.uniform(-1.0, 1.0) * 10.0 ** gen.randint(-20, 20)
                for _ in range(gen.randint(0, 12))
            ]
            start = gen.choice([0, 0.0, -0.0, 5, 1e16])
            expected = sum(items, start)
            got = python312_sum(items, start)
            assert type(got) is type(expected)
            assert repr(got) == repr(expected), (items, start)


@pytest.mark.parametrize("log, seed, n_jobs", sorted(TRACE_PINS))
def test_trace_digests_do_not_move(python312, log, seed, n_jobs):
    trace = get_trace(log, n_jobs=n_jobs, seed=seed)
    assert (trace.digest(), trace.unix_start_time) == TRACE_PINS[log, seed, n_jobs]


def test_campaign_cache_tokens_do_not_move(python312):
    golden.test_small_campaign_cache_tokens_pinned()


@pytest.mark.parametrize("name", list(golden.ML_CELLS))
def test_ml_schedules_do_not_move(python312, name):
    golden.test_ml_cell_schedules_pinned(name)


def test_shard_manifests_do_not_move(python312):
    golden.test_shard_manifests_pinned_from_any_directory(
        "experiments/paper.toml", 147,
        "ec0d969dca1b33e7cd03c62b10b0023d6f7db736e85861dd409f94d4f57e55e8",
        decoy_cwd=False, tmp_path=None, monkeypatch=None,
    )


@pytest.mark.parametrize(
    "log, triple, n_jobs, seed, pinned",
    [
        ("KTH-SP2", "ml:sq-lin-large-area|incremental|easy-sjbf", 600, 3, "0x1.6ca104f2272d6p-1"),
        ("SDSC-BLUE", "ave2|incremental|easy-sjbf", 300, 2, "0x1.0653a244f48d7p-1"),
    ],
)
def test_utilization_does_not_move(python312, log, triple, n_jobs, seed, pinned):
    result = run_spec(CellSpec.from_triple(log, triple, n_jobs=n_jobs, seed=seed))
    assert result.utilization().hex() == pinned


def test_the_ave_k_mean_adds_left_to_right(python312):
    """Newest first: ``1e16`` then two ``1.0`` that left to right rounds away."""
    tracker = UserHistoryTracker()
    for job_id, runtime in enumerate([1.0, 1.0, 1e16], start=1):
        tracker.on_finish(make_job(job_id=job_id, runtime=runtime), now=float(job_id))
    assert tracker.average_recent_runtime(1, 3) == ((1e16 + 1.0) + 1.0) / 3


def test_best_label_ranks_by_a_left_to_right_sum(python312):
    """Left to right both labels total ``1e16`` and the first one wins;
    compensated, the first totals ``1e16 + 2`` and the second would."""
    logs = ("KTH-SP2", "CTC-SP2", "SDSC-SP2")
    means = {"requested|none|easy": (1e16, 1.0, 1.0), "ave2|none|easy": (1e16, 1.0, 0.0)}
    cells, scores = [], {}
    for label, values in means.items():
        for log, value in zip(logs, values, strict=True):
            cell = CellSpec.from_triple(log, label, n_jobs=50, seed=1)
            cells.append(cell)
            scores[cell.digest()] = value
    result = SpecCampaignResult(cells=cells, scores=scores)
    assert result.best_label() == "requested|none|easy"


def test_a_chunk_costs_its_cells_added_left_to_right(python312):
    """One trace, three cells costing ``1e16``, ``1`` and ``1`` in that order."""
    model = CellCostModel(scheduler_weights={"easy": 1e16 / 64, "easy-sjbf": 1 / 64})
    cells = [
        CellSpec.from_triple("KTH-SP2", label, n_jobs=64, seed=1)
        for label in ("requested|none|easy", "requested|none|easy-sjbf", "ave2|none|easy-sjbf")
    ]
    (shard,) = plan_shards(cells, n_shards=1, cost_model=model)
    assert [cell.label for cell in shard.cells] == [cell.label for cell in cells]
    assert shard.est_cost == 1e16
