"""End-to-end integration tests: schedule physics on real-sized traces.

The paper's qualitative claims live in ``tests/paper``; these check that
any triple's schedule is physically possible (the session ``traces``
fixture).
"""

from repro import ELOSS_TRIPLE

from tests.helpers import run_triple


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
            result = run_triple(trace, key)
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
        result = run_triple(trace, ELOSS_TRIPLE)
        assert (result.wait_times >= 0.0).all()
