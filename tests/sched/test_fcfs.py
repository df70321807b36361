"""Unit tests for the pure FCFS scheduler."""

from repro.predict import ClairvoyantPredictor, RequestedTimePredictor
from repro.sched import EasyScheduler, FcfsScheduler
from repro.sim import simulate
from repro.sim.machine import Machine

from tests.helpers import make_record


class TestFcfs:
    def test_starts_in_order(self):
        m = Machine(8)
        sched = FcfsScheduler()
        for i in (1, 2, 3):
            sched.on_submit(make_record(job_id=i, processors=2, predicted_runtime=10.0))
        started = sched.select_jobs(0.0, m)
        assert [r.job_id for r in started] == [1, 2, 3]

    def test_head_blocks_tail(self):
        m = Machine(8)
        sched = FcfsScheduler()
        sched.on_submit(make_record(job_id=1, processors=8, predicted_runtime=10.0))
        sched.on_submit(make_record(job_id=2, processors=1, predicted_runtime=10.0))
        m_started = sched.select_jobs(0.0, m)
        for rec in m_started:
            m.start(rec, 0.0)
        assert [r.job_id for r in m_started] == [1]
        # the 1-wide job must NOT start although a processor... no, none free
        assert sched.select_jobs(0.0, m) == []

    def test_fcfs_never_beats_easy_by_much(self, kth_trace):
        """Backfilling dominates: EASY's AVEbsld is far below pure FCFS on a
        congested trace (this is the gap the paper's Table 6 builds on)."""
        fcfs = simulate(kth_trace, FcfsScheduler(), RequestedTimePredictor())
        easy = simulate(kth_trace, EasyScheduler("fcfs"), RequestedTimePredictor())
        assert easy.avebsld() < fcfs.avebsld()

    def test_start_order_respects_priority_on_trace(self, tiny_trace):
        result = simulate(tiny_trace, FcfsScheduler(), ClairvoyantPredictor())
        starts = {r.job_id: r.start_time for r in result}
        assert starts[1] <= starts[2] <= starts[3]
