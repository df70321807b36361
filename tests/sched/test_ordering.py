"""Unit tests for backfill orderings and the scheduler registry."""

import pytest

from repro.sched import (
    BACKFILL_ORDERS,
    ConservativeScheduler,
    EasyScheduler,
    FcfsScheduler,
    make_scheduler,
    order_queue,
)

from tests.helpers import make_record


class TestOrderings:
    def make_queue(self):
        return [
            make_record(job_id=1, submit_time=0.0, processors=8, predicted_runtime=100.0),
            make_record(job_id=2, submit_time=1.0, processors=1, predicted_runtime=300.0),
            make_record(job_id=3, submit_time=2.0, processors=4, predicted_runtime=50.0),
        ]

    def test_fcfs_order(self):
        assert [r.job_id for r in order_queue(self.make_queue(), "fcfs")] == [1, 2, 3]

    def test_sjbf_order(self):
        assert [r.job_id for r in order_queue(self.make_queue(), "sjbf")] == [3, 1, 2]

    def test_sjbf_ties_broken_fcfs(self):
        queue = [
            make_record(job_id=2, submit_time=5.0, predicted_runtime=100.0),
            make_record(job_id=1, submit_time=0.0, predicted_runtime=100.0),
        ]
        assert [r.job_id for r in order_queue(queue, "sjbf")] == [1, 2]

    def test_order_queue_copies(self):
        queue = self.make_queue()
        ordered = order_queue(queue, "sjbf")
        assert ordered is not queue
        assert [r.job_id for r in queue] == [1, 2, 3]

    def test_unknown_order_rejected(self):
        with pytest.raises(KeyError):
            order_queue([], "bogus")

    def test_registry_names(self):
        assert set(BACKFILL_ORDERS) == {"fcfs", "sjbf"}


class TestSchedulerRegistry:
    @pytest.mark.parametrize(
        "name,cls,attr",
        [
            ("fcfs", FcfsScheduler, None),
            ("easy", EasyScheduler, "fcfs"),
            ("easy-sjbf", EasyScheduler, "sjbf"),
            ("conservative", ConservativeScheduler, "fcfs"),
            ("conservative-sjbf", ConservativeScheduler, "sjbf"),
        ],
    )
    def test_make_scheduler(self, name, cls, attr):
        sched = make_scheduler(name)
        assert isinstance(sched, cls)
        if attr and isinstance(sched, EasyScheduler):
            assert sched.backfill_order == attr
        if attr and isinstance(sched, ConservativeScheduler):
            assert sched.reservation_order == attr

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            make_scheduler("bogus")

    def test_fresh_instances(self):
        a = make_scheduler("easy")
        b = make_scheduler("easy")
        assert a is not b
        a.on_submit(make_record())
        assert b.queue_length == 0
