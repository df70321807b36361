"""Unit + property tests for EASY backfilling."""

import inspect
import math
import random

import pytest

from repro.predict import RequestedTimePredictor
from repro.sched import LegacyEasyScheduler, easy, make_scheduler, ordering
from repro.sched.easy import EasyScheduler
from repro.sched.profile_structure import ReleaseTable
from repro.sim import SimSession, simulate
from repro.sim.machine import Machine
from repro.workload import Trace

from tests.helpers import make_job, make_record


def start_all(machine, scheduler, now=0.0):
    started = scheduler.select_jobs(now, machine)
    for rec in started:
        machine.start(rec, now)
    return started


class TestEasySelection:
    def test_starts_in_fcfs_order_when_fitting(self):
        m = Machine(8)
        sched = EasyScheduler("fcfs")
        for i in (1, 2, 3):
            sched.on_submit(make_record(job_id=i, processors=2, predicted_runtime=100.0))
        started = start_all(m, sched)
        assert [r.job_id for r in started] == [1, 2, 3]

    def test_head_blocks_without_candidates(self):
        m = Machine(8)
        sched = EasyScheduler("fcfs")
        sched.on_submit(make_record(job_id=1, processors=8, predicted_runtime=100.0))
        sched.on_submit(make_record(job_id=2, processors=8, predicted_runtime=100.0))
        started = start_all(m, sched)
        assert [r.job_id for r in started] == [1]
        assert sched.queue_length == 1

    def test_backfill_under_reservation(self):
        m = Machine(8)
        sched = EasyScheduler("fcfs")
        # running job holds 6 procs until t=100
        running = make_record(job_id=0, processors=6, predicted_runtime=100.0)
        m.start(running, 0.0)
        # head needs 4 (waits until 100); short narrow job can backfill
        sched.on_submit(make_record(job_id=1, processors=4, predicted_runtime=500.0))
        sched.on_submit(make_record(job_id=2, processors=2, predicted_runtime=50.0))
        started = sched.select_jobs(0.0, m)
        assert [r.job_id for r in started] == [2]

    def test_backfill_blocked_if_it_would_delay_head(self):
        m = Machine(8)
        sched = EasyScheduler("fcfs")
        running = make_record(job_id=0, processors=6, predicted_runtime=100.0)
        m.start(running, 0.0)
        sched.on_submit(make_record(job_id=1, processors=4, predicted_runtime=500.0))
        # candidate runs past the shadow (100) and needs more than the
        # extra processors (8 - 6 free now... extra = 4): q=3 <= extra=4
        # would be allowed; make it need 5 > extra
        sched.on_submit(make_record(job_id=2, processors=5, predicted_runtime=500.0))
        assert sched.select_jobs(0.0, m) == []

    def test_backfill_on_extra_processors_allowed(self):
        m = Machine(8)
        sched = EasyScheduler("fcfs")
        running = make_record(job_id=0, processors=6, predicted_runtime=100.0)
        m.start(running, 0.0)
        sched.on_submit(make_record(job_id=1, processors=4, predicted_runtime=500.0))
        # long candidate fitting within extra (= free_at_shadow - head = 4)
        sched.on_submit(make_record(job_id=2, processors=2, predicted_runtime=9999.0))
        started = sched.select_jobs(0.0, m)
        assert [r.job_id for r in started] == [2]

    def test_extra_consumed_by_backfills(self):
        m = Machine(8)
        sched = EasyScheduler("fcfs")
        running = make_record(job_id=0, processors=4, predicted_runtime=100.0)
        m.start(running, 0.0)
        # head needs 6: shadow = 100, extra = 8 - 6 = 2; free now = 4
        sched.on_submit(make_record(job_id=1, processors=6, predicted_runtime=500.0))
        # long candidate within extra: allowed, consumes the whole pool
        sched.on_submit(make_record(job_id=2, processors=2, predicted_runtime=9999.0))
        # further long candidates fit free-now but exceed remaining extra
        sched.on_submit(make_record(job_id=3, processors=2, predicted_runtime=9999.0))
        sched.on_submit(make_record(job_id=4, processors=1, predicted_runtime=9999.0))
        # a short candidate still backfills inside the window
        sched.on_submit(make_record(job_id=5, processors=1, predicted_runtime=50.0))
        started = sched.select_jobs(0.0, m)
        assert [r.job_id for r in started] == [2, 5]

    def test_unknown_order_rejected(self):
        with pytest.raises(KeyError):
            EasyScheduler("bogus")


class TestSjbfOrder:
    def test_sjbf_backfills_shortest_first(self):
        m = Machine(8)
        sched = EasyScheduler("sjbf")
        running = make_record(job_id=0, processors=6, predicted_runtime=100.0)
        m.start(running, 0.0)
        sched.on_submit(make_record(job_id=1, processors=4, predicted_runtime=500.0))
        # two candidates both fit free=2 one at a time; shortest goes first
        sched.on_submit(make_record(job_id=2, processors=2, predicted_runtime=90.0))
        sched.on_submit(make_record(job_id=3, processors=2, predicted_runtime=30.0))
        started = sched.select_jobs(0.0, m)
        assert [r.job_id for r in started][0] == 3

    def test_fcfs_priority_preserved_for_head(self):
        """SJBF only reorders the backfill scan, not the queue head."""
        m = Machine(8)
        sched = EasyScheduler("sjbf")
        running = make_record(job_id=0, processors=8, predicted_runtime=100.0)
        m.start(running, 0.0)
        sched.on_submit(make_record(job_id=1, processors=8, predicted_runtime=999.0))
        sched.on_submit(make_record(job_id=2, processors=1, predicted_runtime=10.0))
        # nothing fits now (machine full): nothing starts, head remains job 1
        assert sched.select_jobs(0.0, m) == []
        assert sched.queue[0].job_id == 1


class TestNoPerPassSort:
    """The waiting jobs are *kept* in backfill order, not sorted per pass:
    counted in order-key calls, so no clock is involved."""

    @staticmethod
    def flurries(n_jobs=2400, processors=64):
        """Two hundred jobs within the hour, once a day, on a machine that
        runs about twenty at a time: the queue passes a hundred."""
        rng = random.Random(19)
        jobs = []
        for job_id in range(1, n_jobs + 1):
            runtime = float(rng.randint(600, 7200))
            jobs.append(
                make_job(
                    job_id=job_id,
                    submit_time=86400.0 * ((job_id - 1) // 200) + rng.randint(0, 3600),
                    runtime=runtime,
                    processors=rng.choice([1, 1, 2, 4, 8]),
                    requested_time=runtime * rng.choice([1, 2, 4]),
                )
            )
        return Trace(jobs, processors)

    @pytest.mark.parametrize("name", ["easy", "easy-sjbf"])
    def test_order_key_calls_stay_logarithmic_per_job(self, name, monkeypatch):
        order = make_scheduler(name).backfill_order
        key, calls = ordering.BACKFILL_ORDERS[order], [0]

        def counted(record):
            calls[0] += 1
            return key(record)

        # whoever looks the order up from here on -- the scheduler's
        # constructor, a per-pass order_queue() -- gets the counting key
        monkeypatch.setitem(ordering.BACKFILL_ORDERS, order, counted)
        trace = self.flurries()
        result = simulate(trace, make_scheduler(name), RequestedTimePredictor())
        deepest = result.stats.max_queue_length
        assert len(trace) >= 2000 and deepest >= 100
        # an insort per submit; nothing per pass, and a start leaves by identity
        assert 0 < calls[0] <= 4 * len(trace) * math.ceil(math.log2(deepest))

    def test_no_sort_in_the_module(self):
        source = inspect.getsource(easy)
        for gone in ("sorted(", "order_queue", "_order_cache"):
            assert gone not in source


def spy_backfill(scheduler):
    """Record the job ids each call of the backfill hook is handed."""
    inner, handed = scheduler._backfill, []

    def spy(now, free, shadow, extra, candidates):
        handed.append([record.job_id for record in candidates])
        return inner(now, free, shadow, extra, candidates)

    scheduler._backfill = spy
    return handed


class TestOnlyWhatCouldHaveChanged:
    """A pass re-tests only what could have changed since the last scan."""

    def test_a_submit_only_instant_scans_only_the_new_job(self):
        sched = EasyScheduler("fcfs")
        handed = spy_backfill(sched)
        session = SimSession(8, sched, RequestedTimePredictor())
        # job 1 holds 6 processors to t=100; head 2 waits for them, 3 is too wide
        session.feed(
            [
                make_job(job_id=1, processors=6, runtime=50.0),
                make_job(job_id=2, processors=8, runtime=50.0),
                make_job(job_id=3, processors=3, runtime=10.0),
                make_job(job_id=4, submit_time=10.0, processors=1, runtime=10.0),
            ]
        )
        session.advance_to(10.0)
        assert handed == [[2, 3], [4]]
        assert session.record(4).start_time == 10.0 and not session.record(3).started

    def test_no_free_processor_no_shadow_walk(self, monkeypatch):
        def walked(*args):
            raise AssertionError("the shadow was walked with no processor free")

        monkeypatch.setattr(ReleaseTable, "shadow", walked)
        sched = EasyScheduler("fcfs")
        handed = spy_backfill(sched)
        session = SimSession(8, sched, RequestedTimePredictor())
        session.feed(
            [
                make_job(job_id=1, processors=8, runtime=100.0),
                make_job(job_id=2, processors=1, runtime=10.0),
                make_job(job_id=3, submit_time=5.0, processors=2, runtime=10.0),
            ]
        )
        session.advance_to(50.0)
        assert [r.job_id for r in sched.queue] == [2, 3] and handed == []

    def test_an_emptied_queue_empties_the_fresh_list(self):
        sched = EasyScheduler("fcfs")
        session = SimSession(4, sched, RequestedTimePredictor())
        session.feed(make_job(job_id=1, processors=4, runtime=100.0))
        session.feed(
            [make_job(job_id=i, submit_time=10.0 * i, processors=1) for i in range(2, 7)]
        )
        session.advance_to(60.0)  # every pass met a full machine: no scan
        assert [r.job_id for r in sched._fresh] == [2, 3, 4, 5, 6]
        session.drain()
        assert not sched.queue and sched._fresh == []


class TestMemoConditions:
    """Each by-hand pair of passes grows one of ``free``, ``shadow`` and
    ``extra`` (or moves the clock back, or starts the head) while holding
    the others, so a job the first scan refused is due now: the second
    pass must find it, as the seed's full rescan does."""

    @staticmethod
    def both(*records):
        modern, legacy = EasyScheduler("fcfs"), LegacyEasyScheduler("fcfs")
        for record in records:
            modern.on_submit(record)
            legacy.on_submit(record)
        return modern, legacy

    @staticmethod
    def picks(now, machine, modern, legacy):
        started = modern.select_jobs(now, machine)
        assert started == legacy.select_jobs(now, machine)
        return [record.job_id for record in started]

    @staticmethod
    def running(machine, *widths_and_ends):
        records = []
        for job_id, (width, end) in enumerate(widths_and_ends, start=100):
            record = make_record(job_id=job_id, processors=width, predicted_runtime=end)
            machine.start(record, 0.0)
            records.append(record)
        return records

    def test_more_free(self):
        m = Machine(10)
        # head 1 waits for the 1000 release; job 2 is one processor too wide
        modern, legacy = self.both(
            make_record(job_id=1, processors=8, predicted_runtime=10.0),
            make_record(job_id=2, processors=3, predicted_runtime=10.0),
        )
        self.running(m, (2, 50.0), (6, 1000.0))
        assert self.picks(0.0, m, modern, legacy) == []
        modern.on_finish(m.finish(100, 20.0))  # early: free 2 -> 4; shadow 1000 and extra 2 hold
        assert self.picks(20.0, m, modern, legacy) == [2]

    def test_a_later_shadow(self):
        m = Machine(10)
        # job 2 outlives the shadow and is wider than the 2 extra processors
        modern, legacy = self.both(
            make_record(job_id=1, processors=8, predicted_runtime=10.0),
            make_record(job_id=2, processors=3, predicted_runtime=1500.0),
        )
        (blocker,) = self.running(m, (6, 1000.0))
        assert self.picks(0.0, m, modern, legacy) == []
        m.repredict(blocker, 2000.0)  # corrected: free 4 and extra 2 hold
        modern.on_corrections([blocker])
        assert self.picks(10.0, m, modern, legacy) == [2]

    def test_more_extra(self):
        m = Machine(11)
        modern, legacy = self.both(
            make_record(job_id=1, processors=8, predicted_runtime=10.0),
            make_record(job_id=2, processors=3, predicted_runtime=5000.0),
        )
        self.running(m, (6, 1000.0), (1, 3000.0))
        assert self.picks(0.0, m, modern, legacy) == []
        # one processor due at 3000 is swapped for one due at 500: free 4
        # and the shadow 1000 hold, extra grows from 2 to 3
        modern.on_finish(m.finish(101, 10.0))
        m.start(make_record(job_id=200, processors=1, predicted_runtime=490.0), 10.0)
        assert self.picks(10.0, m, modern, legacy) == [2]

    def test_a_clock_that_goes_back(self):
        m = Machine(8)
        # at 100, job 2 ends after the shadow (200) and extra is 0; at 0 it does not
        modern, legacy = self.both(
            make_record(job_id=1, processors=8, predicted_runtime=10.0),
            make_record(job_id=2, processors=2, predicted_runtime=150.0),
        )
        self.running(m, (6, 200.0))
        assert self.picks(100.0, m, modern, legacy) == []
        assert self.picks(0.0, m, modern, legacy) == [2]

    def test_a_head_that_started(self):
        m = Machine(10)
        modern, legacy = self.both(make_record(job_id=1, processors=8, predicted_runtime=500.0))
        self.running(m, (6, 1000.0))
        assert self.picks(0.0, m, modern, legacy) == []
        for record in (
            make_record(job_id=2, processors=1, predicted_runtime=5000.0),
            make_record(job_id=3, processors=7, predicted_runtime=100.0),
        ):
            modern.on_submit(record)
            legacy.on_submit(record)
        # the head and job 2 start; the new head 3 leaves free 1, shadow
        # 510 and extra 2, no more than the last scan's: job 2 is no
        # longer waiting, and only a full scan knows it
        modern.on_finish(m.finish(100, 10.0))
        assert self.picks(10.0, m, modern, legacy) == [1, 2]
