"""Unit tests for conservative backfilling."""

import pytest

from repro.predict import ClairvoyantPredictor, RequestedTimePredictor
from repro.sched import ConservativeScheduler, EasyScheduler
from repro.sim import simulate
from repro.sim.machine import Machine
from repro.workload import Trace

from tests.helpers import make_job, make_record


class TestConservativeSelection:
    def test_starts_when_fitting(self):
        m = Machine(8)
        sched = ConservativeScheduler()
        sched.on_submit(make_record(job_id=1, processors=4, predicted_runtime=100.0))
        started = sched.select_jobs(0.0, m)
        assert [r.job_id for r in started] == [1]

    def test_no_backfill_that_delays_any_reservation(self):
        m = Machine(8)
        sched = ConservativeScheduler()
        running = make_record(job_id=0, processors=6, predicted_runtime=100.0)
        m.start(running, 0.0)
        # head reserves [100, 600) on 4 procs
        sched.on_submit(make_record(job_id=1, processors=4, predicted_runtime=500.0))
        # second job reserves after head: [100, 600) has 4 free -> fits at 100
        sched.on_submit(make_record(job_id=2, processors=4, predicted_runtime=100.0))
        # a 2-wide long candidate would overlap job2's reservation if it
        # used the 2 free processors now... 2 free now, at t=100 job0 ends:
        # profile: [0,100)=2 free minus reservations...
        sched.on_submit(make_record(job_id=3, processors=2, predicted_runtime=50.0))
        started = sched.select_jobs(0.0, m)
        # job3 finishes at 50 < 100, delays nobody: backfilled
        assert [r.job_id for r in started] == [3]

    def test_conservative_stricter_than_easy(self, kth_trace):
        """Conservative protects every queued job, so jobs 2..k can never
        be delayed past their first reservation; EASY can delay them."""
        easy = simulate(kth_trace, EasyScheduler("fcfs"), RequestedTimePredictor())
        cons = simulate(kth_trace, ConservativeScheduler(), RequestedTimePredictor())
        # both complete all jobs; schedules are valid but different
        assert len(easy) == len(cons)
        assert any(a.start_time != b.start_time for a, b in zip(easy, cons, strict=True))

    def test_runs_clean_with_clairvoyance(self, tiny_trace):
        result = simulate(tiny_trace, ConservativeScheduler(), ClairvoyantPredictor())
        by_id = {r.job_id: r for r in result}
        assert by_id[1].start_time == 0.0
        assert by_id[3].start_time == 0.0  # harmless backfill still allowed
        assert by_id[2].start_time == 100.0

    def test_unknown_order_rejected(self):
        with pytest.raises(KeyError):
            ConservativeScheduler("bogus")


class TestConservativeGuarantee:
    def test_reservations_never_regress_under_overestimates(self):
        """With over-predictions only (no corrections), jobs start no later
        than their submission-time reservation, and early completions are
        exploited by the event-driven recomputation."""
        jobs = [
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=6,
                     requested_time=200.0),
            make_job(job_id=2, submit_time=1.0, runtime=100.0, processors=6,
                     requested_time=200.0),
            # short narrow job: fits the 2 idle processors immediately
            make_job(job_id=3, submit_time=2.0, runtime=10.0, processors=2,
                     requested_time=20.0),
            # long narrow job: would collide with job 2's reservation window
            # only if wider than the leftover; q=2 still fits alongside
            make_job(job_id=4, submit_time=3.0, runtime=10.0, processors=4,
                     requested_time=400.0),
        ]
        trace = Trace(jobs, processors=8)
        result = simulate(trace, ConservativeScheduler(), RequestedTimePredictor())
        by_id = {r.job_id: r for r in result}
        assert by_id[3].start_time == 2.0
        # job 2's reservation was t=200 (job 1 predicted end); job 1 really
        # ends at 100 and the recomputation starts job 2 then.
        assert by_id[2].start_time == 100.0
        # job 4 (q=4, requested 400) cannot start before job 2's
        # reservation (only 2 procs spare) nor alongside job 2 (6+4 > 8):
        # it must wait for job 2's completion.
        assert by_id[4].start_time == pytest.approx(200.0)
