"""The engine work an event no longer does, pinned as counts.

Timings drift with the machine; these counts do not.  A change that brings
the work back (heaping a fed trace, re-sorting the release table at every
correction) fails here, whatever the benchmark reads."""

import repro.sim.events as events_module
from repro.core.run import run_spec
from repro.sched.profile_structure import ReleaseTable
from repro.sim import SimSession
from repro.sim.events import EventType
from repro.spec import CellSpec
from repro.workload import get_trace

TRIPLE = "ave2|incremental|easy-sjbf"


def test_a_trace_fed_in_submit_order_is_never_heaped(monkeypatch):
    """``feed(trace)`` waits every SUBMIT on the stream; the heap then
    holds only what the run itself schedules (FINISH and EXPIRE)."""
    trace = get_trace("KTH-SP2", n_jobs=400)
    session = SimSession(
        trace.processors, *CellSpec.from_triple("KTH-SP2", TRIPLE).build_components()
    )
    heaped = []
    push = events_module.heappush
    monkeypatch.setattr(
        events_module, "heappush", lambda heap, entry: (heaped.append(entry[1]), push(heap, entry))
    )
    assert session.feed(trace) == 400 and session.n_pending_events == 400
    assert heaped == []
    session.drain()
    assert set(heaped) == {EventType.FINISH, EventType.EXPIRE}
    assert heaped.count(EventType.FINISH) == 400


def test_corrections_reach_the_release_table_when_it_is_read(monkeypatch):
    """On a 400-job KTH-SP2 cell under EASY-SJBF, the sorted release list
    is rewritten at most once per read that found a move pending, and less
    often than the engine corrects: most corrections meet an empty queue,
    whose pass reads nothing, and wait for a later read."""
    counts = {"reads": 0, "pending": 0, "rewrites": 0}

    def counted(read):
        def wrapper(self, *args):
            counts["reads"] += 1
            counts["pending"] += bool(self._moved)
            return read(self, *args)

        return wrapper

    settle = ReleaseTable._settle

    def counted_settle(self):
        counts["rewrites"] += 1
        settle(self)

    monkeypatch.setattr(ReleaseTable, "releases", counted(ReleaseTable.releases))
    monkeypatch.setattr(ReleaseTable, "shadow", counted(ReleaseTable.shadow))
    monkeypatch.setattr(ReleaseTable, "_settle", counted_settle)
    result = run_spec(CellSpec.from_triple("KTH-SP2", TRIPLE, n_jobs=400))
    corrections = result.stats.n_corrections
    assert corrections > 100 and counts["reads"] > 0
    assert 0 < counts["rewrites"] <= counts["pending"]
    assert counts["rewrites"] < corrections
