"""End-to-end integration tests: the paper's qualitative claims.

These are the semantic anchors of the reproduction -- each test asserts a
*shape* from the paper on small synthetic traces (the benchmarks assert
the same shapes at full scale).
"""

import numpy as np
import pytest

from repro import (
    EASY_TRIPLE,
    EASYPP_TRIPLE,
    ELOSS_TRIPLE,
    get_trace,
    run_components_on_trace,
    simulate,
)
from repro.correct import IncrementalCorrector
from repro.predict import ClairvoyantPredictor, RequestedTimePredictor
from repro.sched import EasyScheduler, FcfsScheduler
from repro.workload import LOG_NAMES
from repro.workload.archive import stable_seed


@pytest.fixture(scope="module")
def traces():
    """Three replicas of two contrasting logs.

    Individual small traces are noisy samples of a queueing process, so
    the shape assertions below always average replicas (the benchmarks
    re-check the same shapes at full campaign scale).
    """
    out = {}
    for name in ("KTH-SP2", "Curie"):
        out[name] = [
            get_trace(name, n_jobs=1200, seed=stable_seed(name) + r)
            for r in (0, 1, 2)
        ]
    return out


def run_triple_on_trace(trace, triple):
    """Run a ``predictor|corrector|scheduler`` key on an existing trace."""
    return run_components_on_trace(trace, *triple.split("|"))


def mean_avebsld(traces, triple):
    return float(np.mean([run_triple_on_trace(t, triple).avebsld() for t in traces]))


class TestPaperShapes:
    def test_backfilling_beats_pure_fcfs(self, traces):
        """The premise of the whole line of work."""
        for name, replicas in traces.items():
            for trace in replicas:
                easy = simulate(trace, EasyScheduler("fcfs"), RequestedTimePredictor())
                fcfs = simulate(trace, FcfsScheduler(), RequestedTimePredictor())
                assert easy.avebsld() < fcfs.avebsld(), name

    def test_clairvoyant_sjbf_is_best_in_class(self, traces):
        """Table 6: 'Clairvoyant EASY-SJBF almost always outperforms its
        competitors' (tolerance absorbs small-trace noise vs EASY++)."""
        sjbf_clair = "clairvoyant|none|easy-sjbf"
        for name, replicas in traces.items():
            clair = mean_avebsld(replicas, sjbf_clair)
            easy = mean_avebsld(replicas, EASY_TRIPLE)
            easypp = mean_avebsld(replicas, EASYPP_TRIPLE)
            assert clair < easy, name
            assert clair < easypp * 1.3, name

    def test_eloss_triple_beats_easy(self, traces):
        """The headline: the winning triple reduces AVEbsld vs EASY."""
        for name, replicas in traces.items():
            eloss = mean_avebsld(replicas, ELOSS_TRIPLE)
            easy = mean_avebsld(replicas, EASY_TRIPLE)
            assert eloss < easy, f"{name}: {eloss} !< {easy}"

    def test_corrections_only_fire_for_underpredicting_techniques(self, traces):
        trace = traces["KTH-SP2"][0]
        clair = simulate(trace, EasyScheduler("fcfs"), ClairvoyantPredictor(),
                         IncrementalCorrector())
        easypp = run_triple_on_trace(trace, EASYPP_TRIPLE)
        assert clair.total_corrections() == 0
        assert easypp.total_corrections() > 0

    def test_every_log_simulates_end_to_end(self):
        """All six archive logs run the winning triple to completion."""
        for name in LOG_NAMES:
            trace = get_trace(name, n_jobs=250)
            result = run_triple_on_trace(trace, ELOSS_TRIPLE)
            assert len(result) == 250
            assert result.avebsld() >= 1.0


class TestSchedulePhysics:
    def test_schedule_is_feasible_for_every_triple_class(self, traces):
        """Processor conservation holds for a representative triple of
        every predictor family."""
        trace = traces["Curie"][0]
        for key in (
            "requested|none|easy",
            "clairvoyant|none|easy-sjbf",
            "ave2|doubling|easy",
            "ml:lin-sq-small-area|requested|easy-sjbf",
        ):
            result = run_triple_on_trace(trace, key)
            events = []
            for rec in result:
                events.append((rec.start_time, rec.processors))
                events.append((rec.end_time, -rec.processors))
            events.sort()
            used = 0
            for _t, delta in events:
                used += delta
                assert 0 <= used <= trace.processors, key

    def test_no_job_starts_before_submission(self, traces):
        trace = traces["KTH-SP2"][1]
        result = run_triple_on_trace(trace, ELOSS_TRIPLE)
        assert (result.wait_times >= 0.0).all()
