"""The instrumentation core: buckets, histograms, registries, merging."""

from __future__ import annotations

import gc
import json
import math
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import NOOP, Histogram, Telemetry
from repro.obs.telemetry import _ZERO_BUCKET, Tally, bucket_bound, bucket_index


class TestBuckets:
    def test_exact_powers_of_two_land_on_their_own_bound(self):
        # bucket e holds (2**(e-1), 2**e]: the bound is inclusive
        assert bucket_index(1.0) == 0
        assert bucket_index(2.0) == 1
        assert bucket_index(4.0) == 2
        assert bucket_index(0.5) == -1

    def test_values_between_powers_round_up(self):
        assert bucket_index(1.5) == 1
        assert bucket_index(3.0) == 2
        assert bucket_index(0.3) == -1

    def test_zero_and_negative_get_the_zero_bucket(self):
        assert bucket_index(0.0) == _ZERO_BUCKET
        assert bucket_index(-5.0) == _ZERO_BUCKET
        assert bucket_bound(_ZERO_BUCKET) == 0.0

    def test_bound_is_smallest_covering_power(self):
        for value in (0.001, 0.7, 1.0, 1.0001, 3.14, 1e6, 1e-9):
            index = bucket_index(value)
            assert value <= bucket_bound(index)
            assert value > bucket_bound(index - 1)


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0

    def test_quantile_clamped_by_observed_max(self):
        hist = Histogram()
        for value in (1.0, 1.0, 1.0, 100.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 100.0  # bound 128 clamped to max

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0
        obj = hist.to_obj()
        assert obj["count"] == 0
        assert obj["min"] is None and obj["max"] is None

    def test_roundtrip_and_merge_through_json(self):
        a, b = Histogram(), Histogram()
        for value in (0.5, 2.0, 7.0):
            a.observe(value)
        for value in (0.1, 64.0):
            b.observe(value)
        # snapshots cross process boundaries as JSON
        obj = json.loads(json.dumps(a.to_obj()))
        b.merge(Histogram.from_obj(obj))
        assert b.count == 5
        assert b.total == pytest.approx(73.6)
        assert b.min == 0.1
        assert b.max == 64.0
        # bucket counts add: merged holds every original observation
        assert sum(b.buckets.values()) == 5

    def test_from_obj(self):
        hist = Histogram()
        hist.observe(3.0)
        clone = Histogram.from_obj(hist.to_obj())
        assert clone.to_obj() == hist.to_obj()


class TestTelemetry:
    def test_counters_gauges_histograms(self):
        tele = Telemetry(component="t")
        tele.inc("a")
        tele.inc("a", 2.5)
        tele.observe("h", 2.0)
        assert tele.counter_value("a") == 3.5
        assert tele.histogram("h").count == 1
        assert tele.histogram("never") is None  # reading creates nothing
        # gauges are retired: nothing records them, snapshots carry none
        assert not hasattr(tele, "gauge") and not hasattr(tele, "gauge_max")
        assert set(tele.snapshot()) == {"component", "counters", "histograms"}
        assert set(tele.snapshot()["histograms"]) == {"h"}

    def test_span_records_seconds_histogram(self):
        tele = Telemetry(component="t")
        with tele.span("op") as span:
            pass
        assert span.seconds >= 0.0
        hist = tele.histogram("op.seconds")
        assert hist is not None and hist.count == 1

    def test_snapshot_is_json_serialisable_and_detached(self):
        tele = Telemetry(component="t")
        tele.inc("c")
        tele.observe("h", 1.0)
        snap = json.loads(json.dumps(tele.snapshot()))
        assert snap["component"] == "t"
        assert snap["counters"] == {"c": 1.0}
        tele.inc("c")  # must not mutate the earlier snapshot
        assert snap["counters"] == {"c": 1.0}

    def test_merge_snapshot_adds_counters_and_histograms(self):
        worker = Telemetry(component="cell")
        worker.inc("engine.events.submit", 10)
        worker.observe("lat", 0.5)
        home = Telemetry(component="campaign")
        home.inc("engine.events.submit", 5)
        home.observe("lat", 2.0)
        snap = json.loads(json.dumps(worker.snapshot()))
        snap["gauges"] = {"peak": 7.0}  # from an older worker: ignored
        home.merge_snapshot(snap)
        assert "gauges" not in home.snapshot()
        assert home.counter_value("engine.events.submit") == 15
        assert home.histogram("lat").count == 2
        assert home.histogram("lat").max == 2.0

    def test_merge_empty_snapshot_is_noop(self):
        tele = Telemetry(component="t")
        tele.merge_snapshot({})
        snap = tele.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}

    def test_thread_safety_of_inc(self):
        tele = Telemetry(component="t")

        def hammer():
            for _ in range(1000):
                tele.inc("n")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tele.counter_value("n") == 4000


#: sample values that stress the bucketing: <= 0, exact powers of two,
#: small integers (what the engine tallies) and arbitrary reals
_VALUES = st.one_of(
    st.sampled_from([0.0, -3.0, 0.25, 0.5, 1.0, 2.0, 4.0, 1024.0]),
    st.integers(min_value=0, max_value=300).map(float),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
#: one recording: ("inc", name, amount) or ("observe", name, value, n)
_RECORDINGS = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.sampled_from("abc"), st.integers(1, 50)),
        st.tuples(
            st.just("observe"), st.sampled_from("xyz"), _VALUES, st.integers(1, 4)
        ),
    ),
    max_size=60,
)


class _Owner:
    """Something a tally lives as long as (a session, a server)."""


def _attached(tele: Telemetry) -> tuple[Tally, _Owner]:
    tally, owner = Tally(), _Owner()
    tele.attach(tally, owner)
    return tally, owner


def _assert_same_registry(got: dict, want: dict, integral: set[str] = frozenset()) -> None:
    """Equal counters and histograms; a sum of reals only to rounding."""
    assert got["counters"] == want["counters"]
    assert set(got["histograms"]) == set(want["histograms"])
    for name, hist in want["histograms"].items():
        other = dict(got["histograms"][name])
        total = other.pop("sum")
        if name in integral:
            assert total == hist["sum"], name
        else:
            assert total == pytest.approx(hist["sum"], rel=1e-12, abs=1e-12), name
        assert other == {k: v for k, v in hist.items() if k != "sum"}, name


class TestAttach:
    @given(_RECORDINGS, st.integers(min_value=1, max_value=4), st.integers(0, 3))
    def test_equals_the_same_data_recorded_one_call_at_a_time(
        self, recordings, n_tallies, n_collected
    ):
        """Any interleaving of ``inc``/``observe`` reads the same as the
        same data recorded in attached tallies, read at any point, with
        any of the owners collected before the read (their tallies folded
        in), and an empty histogram creates nothing."""
        direct, read = Telemetry(component="t"), Telemetry(component="t")
        attached = [_attached(read) for _ in range(n_tallies)]
        for i, (op, name, value, *rest) in enumerate(recordings):
            tally = attached[i % n_tallies][0]
            if op == "inc":
                direct.inc(name, value)
                tally.counters[name] += value
                continue
            for _ in range(rest[0]):
                direct.observe(name, value)
            tally.histograms[name].observe(value, rest[0])
            if i == len(recordings) // 2:
                read.snapshot()  # a read in between zeroes nothing
        attached[0][0].histograms["no"] = Histogram()
        del attached[:n_collected]
        gc.collect()
        integral = {
            name for op, name, value, *_ in recordings if op == "observe"
        } - {
            name for op, name, value, *_ in recordings
            if op == "observe" and not float(value).is_integer()
        }
        want = direct.snapshot()
        _assert_same_registry(read.snapshot(), want, integral)
        _assert_same_registry(read.snapshot(), want, integral)
        assert len(read._tallies) == max(0, n_tallies - n_collected)

    def test_a_read_zeroes_nothing_and_sees_what_came_after(self):
        tele = Telemetry(component="t")
        tally, _owner = _attached(tele)
        tally.counters["n"] += 2
        tally.histograms["depth"].observe(3, 2)
        assert tele.counter_value("n") == 2 and tele.histogram("depth").count == 2
        assert tally.counters == {"n": 2} and tally.histograms["depth"].count == 2
        tally.counters["n"] += 1
        tele.inc("n", 10)
        tally.histograms["depth"].observe(9)
        tele.observe("depth", 0.5)
        assert tele.counter_value("n") == 13
        assert tele.snapshot()["histograms"]["depth"]["buckets"] == {"-1": 1, "2": 2, "4": 1}
        assert tele.counter_value("absent", default=-1.0) == -1.0
        assert tele.histogram("absent") is None

    def test_a_collected_owners_tally_is_folded_in_once_and_dropped(self):
        tele = Telemetry(component="t")
        tally, owner = _attached(tele)
        tally.counters["n"] += 5
        tally.histograms["depth"].observe(4)
        before = tele.snapshot()
        del owner
        gc.collect()
        assert tele.snapshot() == before  # folded, not lost and not doubled
        assert not tele._tallies and not tele._retired
        tally.counters["n"] += 1  # nobody reads a retired tally
        assert tele.counter_value("n") == 5

    def test_histogram_merge_is_the_same_with_and_without_the_json(self):
        a, b, c = Histogram(), Histogram(), Histogram()
        for value in (0.0, 0.5, 3.0):
            a.observe(value)
        for hist in (b, c):
            hist.observe(64.0, 2)
        b.merge(a)
        c.merge(Histogram.from_obj(json.loads(json.dumps(a.to_obj()))))
        assert b.to_obj() == c.to_obj()
        assert (b.count, b.min, b.max, b.total) == (5, 0.0, 64.0, 131.5)

    def test_merges_attachments_and_single_calls_from_threads_lose_nothing(self):
        """The worker heartbeat records from its own thread while the main
        thread merges cell snapshots and sessions come and go: every
        recording call and every attach takes the lock."""
        tele = Telemetry(component="t")
        rounds = 2000
        cell = {"counters": {"n": 2, "merges": 1}, "histograms": {}}
        cell["histograms"]["h"] = {"count": 3, "sum": 3.0, "min": 1.0, "max": 1.0,
                                   "buckets": {"0": 3}}

        def merge():
            for _ in range(rounds):
                tele.merge_snapshot(cell)

        def single():
            for _ in range(rounds):
                tele.inc("n")
                tele.observe("h", 1.0)

        def sessions():
            for _ in range(rounds // 10):
                tally, _owner = _attached(tele)
                tally.counters["attached"] += 1
                tally.histograms["h"].observe(1.0, 2)

        threads = [threading.Thread(target=fn) for fn in (merge, single, merge, single, sessions)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        gc.collect()
        assert tele.counter_value("n") == 2 * rounds * 3
        assert tele.counter_value("merges") == 2 * rounds
        assert tele.counter_value("attached") == rounds // 10
        hist = tele.histogram("h")
        n = 2 * rounds * 4 + 2 * (rounds // 10)
        assert (hist.count, hist.total) == (n, float(n))
        assert hist.buckets == {0: n}
        assert not tele._tallies


class TestNoop:
    def test_noop_records_nothing(self):
        NOOP.inc("a")
        NOOP.observe("h", 1.0)
        NOOP.event("e", x=1)
        with NOOP.span("op"):
            pass
        snap = NOOP.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}

    def test_disabled_registry_ignores_merges(self):
        live = Telemetry(component="t")
        live.inc("c")
        NOOP.merge_snapshot(live.snapshot())
        assert NOOP.counter_value("c") == 0.0

    def test_noop_span_is_shared_and_inert(self):
        span_a = NOOP.span("a")
        span_b = NOOP.span("b", field=1)
        assert span_a is span_b
        with span_a:
            pass
        assert span_a.seconds == 0.0
