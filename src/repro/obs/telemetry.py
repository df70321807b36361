"""The instrumentation core: counters, histograms, timed spans.

Design constraints, in priority order:

1. **Near-zero overhead when off.**  Every instrumented hot path is
   written as ``if tele.enabled: ...`` against either a real
   :class:`Telemetry` or the module-level :data:`NOOP` singleton, so the
   disabled cost is one attribute load and a branch.  The per-event
   layers (``sim``/``serve``) keep a :class:`Tally` for their whole life
   and attach it once; the registry reads it, so nothing is handed over.
2. **Mergeable.**  Campaign cells run in pool worker *processes*;
   their metrics come home as plain-dict snapshots and are folded into
   the coordinator's registry with :meth:`Telemetry.merge_snapshot`.
   Histograms therefore use power-of-two buckets keyed by exponent --
   two histograms merge by summing bucket counts, with no bucket-edge
   negotiation.
3. **Dependency-free.**  ``repro.obs`` imports nothing from the rest of
   the package, so any layer (sim, dist, serve, cli) may import it
   without cycles.

A :class:`Telemetry` is also the in-memory aggregator used by tests:
``counter_value``/``histogram``/``snapshot`` expose everything recorded.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from collections import Counter, defaultdict, deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sinks import JsonlTraceSink

__all__ = ["Histogram", "Tally", "Telemetry", "NOOP"]

#: bucket index for values <= 0 (log buckets cannot hold them).
_ZERO_BUCKET = -1075  # below the exponent of the smallest positive float


def bucket_index(value: float) -> int:
    """The log2 bucket holding ``value``: smallest e with value <= 2**e."""
    if value <= 0.0:
        return _ZERO_BUCKET
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    # frexp keeps 0.5 <= mantissa < 1, so 2**exponent >= value always;
    # exact powers of two (mantissa == 0.5) belong one bucket down
    return exponent - 1 if mantissa == 0.5 else exponent


def bucket_bound(index: int) -> float:
    """Inclusive upper bound of bucket ``index`` (0.0 for the zero bucket)."""
    if index <= _ZERO_BUCKET:
        return 0.0
    return math.ldexp(1.0, index)


class Histogram:
    """A mergeable log2-bucketed histogram with count/sum/min/max.

    Bucket ``e`` holds values in ``(2**(e-1), 2**e]``; values <= 0 land
    in a dedicated zero bucket.  Buckets are created on first touch, so
    an idle histogram costs one small dict.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value``, ``n`` times over."""
        value = float(value)
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + n

    def observe_many(self, values: list[float]) -> None:
        """``observe`` each of ``values`` (at least one) in turn, a statistic at a time."""
        total = self.total
        for value in values:  # left to right: the sum keeps every bit of one by one
            total += value
        self.count, self.total = self.count + len(values), total
        self.min, self.max = min(self.min, min(values)), max(self.max, max(values))
        for index, n in Counter(map(bucket_index, values)).items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return min(bucket_bound(index), self.max)
        return self.max

    def to_obj(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            # JSON object keys must be strings
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def merge(self, other: Histogram) -> None:
        """Fold another histogram (same bucketing) into this one.

        ``other`` may be live on another thread: its buckets are copied in
        one atomic step and the count is summed from that copy, so the two
        always agree; ``total``/``min``/``max`` may include a sample the
        copied buckets do not show yet.
        """
        copied = list(other.buckets.items())
        self.count += sum(n for _index, n in copied)
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        buckets = self.buckets
        for index, n in copied:
            buckets[index] = buckets.get(index, 0) + n

    @classmethod
    def from_obj(cls, obj: dict) -> Histogram:
        hist = cls()
        hist.count = int(obj.get("count", 0))
        hist.total = float(obj.get("sum", 0.0))
        lo, hi = obj.get("min"), obj.get("max")
        hist.min = math.inf if lo is None else float(lo)
        hist.max = -math.inf if hi is None else float(hi)
        hist.buckets = {int(k): int(n) for k, n in obj.get("buckets", {}).items()}
        return hist


class Tally:
    """Counters and histograms that a hot layer keeps, unlocked, for its
    whole life and a registry reads (:meth:`Telemetry.attach`)."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.histograms: defaultdict[str, Histogram] = defaultdict(Histogram)

    def report(self, counters: defaultdict, histograms: defaultdict) -> None:
        """Add what was recorded to a read (an empty histogram adds nothing)."""
        for name, value in list(self.counters.items()):
            counters[name] += value
        for name, hist in list(self.histograms.items()):
            if hist.count:
                histograms[name].merge(hist)


class _Span:
    """Context manager timing one operation; emitted as a histogram
    observation (``<name>.seconds``) plus an optional trace event."""

    __slots__ = ("_telemetry", "name", "fields", "seconds", "_t0")

    def __init__(self, telemetry: Telemetry, name: str, fields: dict) -> None:
        self._telemetry = telemetry
        self.name = name
        self.fields = fields
        self.seconds = 0.0
        self._t0 = 0.0

    def __enter__(self) -> _Span:
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.seconds = time.perf_counter() - self._t0
        tele = self._telemetry
        tele.observe(f"{self.name}.seconds", self.seconds)
        tele.event(
            "span",
            name=self.name,
            seconds=round(self.seconds, 6),
            ok=exc_type is None,
            **self.fields,
        )


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()
    seconds = 0.0

    def __enter__(self) -> _NoopSpan:
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class Telemetry:
    """A named registry of counters and histograms.

    Thread-safe (serve and the worker heartbeat record from multiple
    threads); every recording call takes the lock once, and costs one
    ``enabled`` check when off.  ``trace`` is an optional
    :class:`repro.obs.sinks.JsonlTraceSink` receiving span/``event``
    records as they happen.  ``enabled`` is the registry's switch, not the
    sink's: ``Telemetry(name, enabled=False, trace=sink)`` records no
    counter, histogram or span -- so a campaign's cells run without engine
    metrics -- and still writes its lifecycle events.  A read adds every
    attached tally to what was recorded here and zeroes nothing.
    """

    def __init__(
        self,
        component: str = "repro",
        enabled: bool = True,
        trace: JsonlTraceSink | None = None,
    ) -> None:
        self.component = component
        self.enabled = enabled
        #: what ``inc`` / ``observe`` / ``merge_snapshot`` recorded, and retired tallies
        self._totals = Tally()
        #: the tallies of live owners; those of collected ones, to fold into the totals
        self._tallies: list[Tally] = []
        self._retired: deque[Tally] = deque()
        self._trace = trace
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._totals.counters[name] += value

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._totals.histograms[name].observe(value)

    def attach(self, tally: Tally, owner: object) -> None:
        """Read ``tally`` on every read; once ``owner`` is collected, fold
        it into the totals and drop it.  A hot layer's one registry call."""
        with self._lock:
            self._retire()
            self._tallies.append(tally)
        # only queued: the collection may fall inside a locked read (a GC pass)
        weakref.finalize(owner, self._retired.append, tally)

    def span(self, name: str, **fields: object) -> _Span | _NoopSpan:
        """Time a block: ``with tele.span("campaign.dispatch"): ...``."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, fields)

    def event(self, kind: str, **fields) -> None:
        """Append one record to the trace sink (no-op without a sink)."""
        if self._trace is None:
            return
        record = {"kind": kind, "component": self.component}
        record.update(fields)
        self._trace.write(record)

    # -- reading (tests, renderers) ----------------------------------------
    def counter_value(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._read()[0].get(name, default)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._read()[1].get(name)

    def _retire(self) -> None:
        """Fold the tallies of collected owners into the totals (lock held)."""
        while self._retired:
            tally = self._retired.popleft()
            self._tallies.remove(tally)
            tally.report(self._totals.counters, self._totals.histograms)

    def _read(self) -> tuple[dict[str, float], dict[str, Histogram]]:
        """Fresh totals plus every attached tally (lock held)."""
        self._retire()
        read = Tally()
        for tally in (self._totals, *self._tallies):
            tally.report(read.counters, read.histograms)
        return read.counters, read.histograms

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict, JSON-serialisable copy of everything recorded."""
        with self._lock:
            counters, histograms = self._read()
            return {
                "component": self.component,
                "counters": dict(counters),
                "histograms": {name: hist.to_obj() for name, hist in histograms.items()},
            }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's snapshot into this one (counters and
        histograms add): how per-cell metrics travel home from workers."""
        if not snap or not self.enabled:
            return
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                if value:
                    self._totals.counters[name] += value
            for name, obj in snap.get("histograms", {}).items():
                hist = Histogram.from_obj(obj)
                if hist.count:
                    self._totals.histograms[name].merge(hist)

    # -- output ------------------------------------------------------------
    def write(self, directory: str) -> str:
        """Write ``metrics-<component>.json`` + ``.prom`` under ``directory``."""
        from .sinks import write_snapshot

        return write_snapshot(self.snapshot(), directory)

    def close(self) -> None:
        if self._trace is not None:
            self._trace.close()


#: The shared disabled registry: every method returns immediately after
#: one ``enabled`` check, so hot paths can hold it unconditionally.
NOOP = Telemetry(component="noop", enabled=False)
