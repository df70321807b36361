"""The instrumentation core: counters, histograms, timed spans.

Design constraints, in priority order:

1. **Near-zero overhead when off.**  Every instrumented hot path is
   written as ``if tele.enabled: ...`` against either a real
   :class:`Telemetry` or the module-level :data:`NOOP` singleton, so the
   disabled cost is one attribute load and a branch.  The per-event
   layers (``sim``/``sched``/``predict``) tally privately and reach the
   registry through :meth:`Telemetry.add_batch`, one lock per public call.
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
from collections import defaultdict
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sinks import JsonlTraceSink

__all__ = ["Histogram", "Telemetry", "NOOP"]

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
        """Fold another histogram (same bucketing) into this one."""
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        buckets = self.buckets
        for index, n in other.buckets.items():
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
    metrics -- and still writes its lifecycle events.
    """

    def __init__(
        self,
        component: str = "repro",
        enabled: bool = True,
        trace: JsonlTraceSink | None = None,
    ) -> None:
        self.component = component
        self.enabled = enabled
        self._counters: defaultdict[str, float] = defaultdict(float)
        #: created on first touch; readers go through ``.get``
        self._histograms: defaultdict[str, Histogram] = defaultdict(Histogram)
        #: (histogram, value) -> count handed to add_batch, bucketed on the next read
        self._pending: defaultdict[tuple[str, float], int] = defaultdict(int)
        self._trace = trace
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] += value

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._histograms[name].observe(value)

    def add_batch(
        self,
        counters: Iterable[tuple[str, float]],
        samples: Mapping[tuple[str, float], int],
        histograms: Iterable[tuple[str, Histogram]] = (),
        observations: Iterable[tuple[str, float]] = (),
    ) -> None:
        """Record under one lock acquisition: counter increments as (name,
        amount) pairs, histogram samples as (name, value) -> count, whole
        histograms to merge by name, single observations as (name, value)
        pairs.  Zero amounts and empty histograms create nothing.  The
        samples are for sizes that repeat: they stay an exact tally, one
        entry per distinct pair, until the registry is next read."""
        if not self.enabled:
            return
        with self._lock:
            totals = self._counters
            for name, value in counters:
                if value:
                    totals[name] += value
            pending = self._pending
            for key, n in samples.items():
                pending[key] += n
            for name, hist in histograms:
                if hist.count:
                    self._histograms[name].merge(hist)
            for name, value in observations:
                self._histograms[name].observe(value)

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
        return self._counters.get(name, default)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._settled().get(name)

    def _settled(self) -> dict[str, Histogram]:
        """The histograms, every batched observation bucketed (lock held)."""
        for (name, value), n in self._pending.items():
            self._histograms[name].observe(value, n)
        self._pending.clear()
        return self._histograms

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict, JSON-serialisable copy of everything recorded."""
        with self._lock:
            return {
                "component": self.component,
                "counters": dict(self._counters),
                "histograms": {
                    name: hist.to_obj()
                    for name, hist in self._settled().items()
                },
            }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's snapshot into this one (counters and
        histograms add): how per-cell metrics travel home from workers."""
        if snap:
            self.add_batch(
                snap.get("counters", {}).items(),
                {},
                ((n, Histogram.from_obj(o)) for n, o in snap.get("histograms", {}).items()),
            )

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
