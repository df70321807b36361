"""The campaign runner (paper Section 6.2) and its result type.

A campaign is a list of :class:`repro.spec.CellSpec` cells -- the paper's
is every heuristic triple (128 of them) plus the two clairvoyant
references on every workload log, over ``replicas`` independent synthetic
trace draws per log, since a simulation-sized synthetic subset is one
sample of a stochastic workload (the paper runs each real log once; the
note on synthetic stand-ins that closes README "Layout" says why the
logs here are generated).  :func:`run_cells` runs any such
list and returns a :class:`SpecCampaignResult`, which also carries the
paper's aggregations (Tables 1 and 6, the learning ranges, the best
triple).

The runner is built for throughput and restartability:

* simulations fan out through a pluggable :class:`repro.dist.Broker`:
  the default :class:`~repro.dist.broker.LocalBroker` is a single-host
  :class:`~concurrent.futures.ProcessPoolExecutor` whose results are
  consumed as they complete; ``backend=FsQueueBroker(queue_dir)``
  shards the cell matrix onto a filesystem work queue that any number
  of ``repro worker`` processes -- on any number of hosts -- drain
  cooperatively (see :mod:`repro.dist`);
* every finished cell is appended immediately to an on-disk JSONL result
  cache keyed by (trace digest, spec digest, engine version), so a
  killed campaign resumes where it stopped and a finished campaign
  re-runs with **zero** simulations -- under either backend;
* every lifecycle step (``start``, one ``cell`` per finished cell,
  ``end``) is a :meth:`repro.obs.Telemetry.event` on the ``telemetry``
  the caller hands in, so a live campaign is watched with ``repro
  metrics DIR`` (README "Observability").
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import IO, TYPE_CHECKING, NamedTuple

import numpy as np

from ..obs import get_logger
from ..obs.telemetry import NOOP, Telemetry
from ..sim.engine import ENGINE_VERSION
from ..spec import CellSpec, WorkloadSpec, scheduler_registry
from .batch import bundle_cache, group_cells
from .triples import CLAIRVOYANT_EASY, CLAIRVOYANT_SJBF, EASY_TRIPLE, EASYPP_TRIPLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dist.broker import Broker

__all__ = [
    "SpecCampaignResult",
    "LeaderboardRow",
    "run_cells",
    "workload_digest",
    "cell_token",
    "CACHE_VERSION",
    "ResultCache",
    "iter_cache_records",
    "parse_cache_record",
]

_log = get_logger("campaign")

#: Bump when the cache record layout changes.  Engine/workload semantic
#: changes are covered separately: the cache token embeds ENGINE_VERSION
#: and the per-trace content digest; component/engine-knob changes are
#: covered by the CellSpec digest.  Version 5: spec-digest cache keys.
CACHE_VERSION = 5


def workload_digest(workload: WorkloadSpec) -> str:
    """Trace content digest for any workload spec.

    Backed by the shared bundle cache (digests survive bundle eviction):
    filtered or machine-resized workloads digest the trace they actually
    produce, so filter/override changes invalidate exactly their own
    cells.
    """
    return bundle_cache().digest_of(workload)


def cell_token(spec: CellSpec) -> str:
    """The cache key / queue identity of one cell.

    ``v<CACHE_VERSION>|e<ENGINE_VERSION>|<log>@<trace digest>|spec:<spec digest>``

    The spec digest covers everything declarative (workload shape,
    components + params, engine knobs); the trace digest covers what the
    generator actually produced, so generator changes invalidate cells
    even though specs are unchanged.
    """
    return (
        f"v{CACHE_VERSION}|e{ENGINE_VERSION}|{spec.workload.log}"
        f"@{workload_digest(spec.workload)}|spec:{spec.digest()}"
    )


def parse_cache_record(line: str) -> tuple[str, float] | None:
    """One JSONL cache line -> ``(token, value)``, or ``None`` if torn.

    The single parser for the cache record format -- the warm-load path
    (:class:`ResultCache`), the distributed merge
    (:mod:`repro.dist.merge`), the coordinator's incremental result
    tailer and the worker's proven-cell harvest all route through it, so
    tolerance rules cannot drift between them.  A record counts only if
    its token is a string and its value a finite ``int`` or ``float``
    (not ``bool``): ``NaN``, ``Infinity``, ``true`` or ``"2.5"`` mark a
    damaged row, which is re-simulated rather than trusted.
    """
    try:
        rec = json.loads(line)
        token, value = rec["token"], rec["value"]
        if not isinstance(token, str) or type(value) not in (int, float):
            return None
        value = float(value)
    except (ValueError, KeyError, TypeError, OverflowError):
        return None
    return (token, value) if math.isfinite(value) else None


def iter_cache_records(path: str) -> tuple[list[tuple[int, str, float]], int]:
    """Read one JSONL cell cache: ``([(lineno, token, value), ...], torn)``.

    Unparseable lines (torn writes, including a truncated final line)
    are skipped and counted, never fatal.
    """
    records: list[tuple[int, str, float]] = []
    torn = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parsed = parse_cache_record(line)
            if parsed is None:
                torn += 1
                continue
            records.append((lineno, parsed[0], parsed[1]))
    return records, torn


class ResultCache:
    """Append-only JSONL cache of simulation outcomes.

    One line per finished cell: ``{"token": ..., "value": ...}``.  Every
    :meth:`put` is written through immediately, so an interrupted
    campaign loses at most the cells still in flight; corrupt or partial
    trailing lines (a crash mid-write) are skipped on load.  Rows keyed
    by another ``CACHE_VERSION``/``ENGINE_VERSION`` are simply never
    asked for (tokens embed both).
    """

    def __init__(self, path: str | None) -> None:
        self.path = path
        self._data: dict[str, float] = {}
        self._fh: IO[str] | None = None
        if path and os.path.exists(path):
            records, _torn = iter_cache_records(path)
            for _lineno, token, value in records:
                self._data[token] = value

    def __len__(self) -> int:
        return len(self._data)

    def get(self, token: str) -> float | None:
        return self._data.get(token)

    def put(self, token: str, value: float) -> None:
        self._data[token] = value
        if self.path:
            if self._fh is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                needs_newline = False
                if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
                    with open(self.path, "rb") as fh:
                        fh.seek(-1, os.SEEK_END)
                        needs_newline = fh.read(1) != b"\n"
                self._fh = open(self.path, "a", encoding="utf-8")
                if needs_newline:
                    # a torn tail line (crash mid-write) must not swallow
                    # the first record we append after it
                    self._fh.write("\n")
            self._fh.write(json.dumps({"token": token, "value": value}) + "\n")
            self._fh.flush()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class LeaderboardRow(NamedTuple):
    """One :meth:`SpecCampaignResult.leaderboard` line."""

    label: str
    mean_score: float
    n_cells: int
    #: mean wall seconds per simulated cell; None when every cell of the
    #: label came from the cache (nothing was timed this run).
    mean_seconds: float | None


@dataclass
class SpecCampaignResult:
    """Scores of an arbitrary cell-spec campaign, keyed by spec digest."""

    cells: list[CellSpec]
    #: spec digest -> AVEbsld.
    scores: dict[str, float] = field(default_factory=dict)
    #: spec digest -> wall seconds, for cells simulated *this* run
    #: (cache hits cost nothing and are absent).
    durations: dict[str, float] = field(default_factory=dict)

    def score(self, spec: CellSpec) -> float:
        return self.scores[spec.digest()]

    def rows(self) -> list[tuple[CellSpec, float]]:
        """(cell, score) pairs in campaign order."""
        return [(cell, self.scores[cell.digest()]) for cell in self.cells]

    def leaderboard(self) -> list[LeaderboardRow]:
        """Mean score per component-label, best first -- the generic
        report for grids that aren't the paper's triple matrix.  Rows
        carry cell counts and mean per-cell wall time (None for labels
        served entirely from the cache)."""
        by_label: dict[str, list[float]] = {}
        times: dict[str, list[float]] = {}
        for cell, score in self.rows():
            by_label.setdefault(cell.label, []).append(score)
            seconds = self.durations.get(cell.digest())
            if seconds is not None:
                times.setdefault(cell.label, []).append(seconds)
        rows = [
            LeaderboardRow(
                label=label,
                mean_score=float(np.mean(values)),
                n_cells=len(values),
                mean_seconds=(
                    float(np.mean(times[label])) if label in times else None
                ),
            )
            for label, values in by_label.items()
        ]
        return sorted(rows, key=lambda row: row.mean_score)

    # -- the paper's aggregations ---------------------------------------------
    @cached_property
    def _by_label(self) -> dict[str, tuple[CellSpec, dict[str, list[float]]]]:
        """label -> (first cell carrying it, log -> replica scores), in
        campaign order.  Built on first use: aggregate finished results."""
        table: dict[str, tuple[CellSpec, dict[str, list[float]]]] = {}
        for cell, score in self.rows():
            _, by_log = table.setdefault(cell.label, (cell, {}))
            by_log.setdefault(cell.workload.log, []).append(score)
        return table

    def logs(self) -> list[str]:
        """The campaign's logs, in first-appearance order."""
        return list(dict.fromkeys(cell.workload.log for cell in self.cells))

    def labels(self) -> list[str]:
        """Unique cell labels (triple keys), in first-appearance order."""
        return list(self._by_label)

    def competing_labels(self) -> list[str]:
        """:meth:`labels` without the clairvoyant references (upper
        bounds that are reported, not deployable)."""
        return [
            label
            for label, (cell, _) in self._by_label.items()
            if cell.predictor.name != "clairvoyant"
        ]

    def mean(self, log: str, label: str) -> float:
        """Mean AVEbsld of one label over its replicas on one log
        (:class:`KeyError` when the campaign has no such cell)."""
        return float(np.mean(self._by_label[label][1][log]))

    def score_vector(self, log: str, labels: Sequence[str]) -> np.ndarray:
        """Mean AVEbsld of the given labels on one log, in order."""
        return np.array([self.mean(log, label) for label in labels])

    def learning_range(self, log: str, scheduler: str) -> tuple[float, float]:
        """(best, worst) mean AVEbsld over the ML triples of one
        backfilling variant (60 of them in the paper's matrix)."""
        wanted = scheduler_registry().normalize(scheduler)
        values = [
            self.mean(log, label)
            for label, (cell, _) in self._by_label.items()
            if cell.predictor.name == "ml" and cell.scheduler == wanted
        ]
        if not values:
            raise KeyError(f"no learning triples under {scheduler!r} in this campaign")
        return (min(values), max(values))

    def best_label(self, logs: Sequence[str] | None = None) -> str:
        """Competing label minimising the summed mean AVEbsld over ``logs``."""
        logs = self.logs() if logs is None else logs
        return min(
            self.competing_labels(),
            key=lambda label: reduce(add, (self.mean(log, label) for log in logs), 0.0),
        )

    def table1_rows(self) -> list[tuple[str, float, float, float]]:
        """(log, EASY, EASY-Clairvoyant, reduction%) per log."""
        rows = []
        for log in self.logs():
            easy = self.mean(log, EASY_TRIPLE)
            clair = self.mean(log, CLAIRVOYANT_EASY)
            rows.append((log, easy, clair, (easy - clair) / easy * 100.0))
        return rows

    def table6_rows(
        self,
    ) -> list[tuple[str, float, float, float, float, tuple, tuple]]:
        """Per log: clairvoyant FCFS/SJBF, EASY, EASY++, learning ranges."""
        return [
            (
                log,
                self.mean(log, CLAIRVOYANT_EASY),
                self.mean(log, CLAIRVOYANT_SJBF),
                self.mean(log, EASY_TRIPLE),
                self.mean(log, EASYPP_TRIPLE),
                self.learning_range(log, "easy"),
                self.learning_range(log, "easy-sjbf"),
            )
            for log in self.logs()
        ]


def run_cells(
    cells: Sequence[CellSpec],
    cache_path: str | None = None,
    workers: int | None = None,
    backend: Broker | None = None,
    telemetry: Telemetry | None = None,
) -> SpecCampaignResult:
    """Run (or warm-load) a list of cell specs: the campaign driver.

    Cells come from :func:`repro.core.triples.paper_cells` or any
    experiment file (:mod:`repro.spec.grid`); the cache and every
    dispatch backend key them by spec digest, and the result comes back
    digest-indexed.

    ``backend`` is the dispatch strategy, a :class:`repro.dist.Broker`:
    ``None`` is a :class:`~repro.dist.broker.LocalBroker` (process pool
    on this host, honouring ``workers``); a
    :class:`~repro.dist.broker.FsQueueBroker` coordinates external
    ``repro worker`` processes over its queue directory.  ``telemetry``
    collects campaign/dispatch counters and, under the local broker, the
    engine/predictor metrics merged back from every simulated cell; its
    trace sink, when it has one, receives the lifecycle events (``start``,
    a ``cell`` per result under either backend, ``end``) as they happen.
    Built with ``enabled=False`` it does the second only: the event
    stream at no cost to the cells.
    """
    if backend is None:
        from ..dist.broker import LocalBroker

        backend = LocalBroker(workers)
    cells = list(cells)
    tele = telemetry if telemetry is not None else NOOP
    scores: dict[str, float] = {}
    durations: dict[str, float] = {}
    cache = ResultCache(cache_path)
    try:
        tokens = {spec.digest(): cell_token(spec) for spec in cells}
        pending: list[CellSpec] = []
        for spec in cells:
            value = cache.get(tokens[spec.digest()])
            if value is None:
                pending.append(spec)
            else:
                scores[spec.digest()] = value
        tele.inc("campaign.cells.total", len(cells))
        tele.inc("campaign.cells.cached", len(cells) - len(pending))
        tele.event(
            "start",
            total=len(cells),
            cached=len(cells) - len(pending),
            pending=len(pending),
            logs=list(dict.fromkeys(spec.workload.log for spec in cells)),
        )
        if pending:
            # group-major dispatch order: same-trace cells land adjacently
            # so every backend (serial loop, pool batches, fsqueue shards)
            # shares one materialised trace bundle per group instead of
            # paying the per-cell fixed cost
            pending = [spec for _key, group in group_cells(pending) for spec in group]
            done = 0

            def record(
                spec: CellSpec, score: float, seconds: float | None = None
            ) -> None:
                nonlocal done
                done += 1
                scores[spec.digest()] = score
                cache.put(tokens[spec.digest()], score)
                if seconds is not None:
                    durations[spec.digest()] = seconds
                tele.event(
                    "cell",
                    log=spec.workload.log,
                    label=spec.label,
                    seed=spec.workload.seed,
                    avebsld=score,
                    seconds=None if seconds is None else round(seconds, 6),
                    done=done,
                    total=len(pending),
                )
                if done % 50 == 0:
                    _log.info("%d/%d simulations done", done, len(pending))

            with tele.span("campaign.dispatch", pending=len(pending)):
                backend.dispatch(pending, record, telemetry=telemetry)
            cache.flush()
        missing = [spec for spec in cells if spec.digest() not in scores]
        if missing:
            raise RuntimeError(
                f"campaign cache missing {tokens[missing[0].digest()]}"
            )
        tele.event("end", total=len(cells))
    finally:
        # a failing worker must not leak the cache handle; every cell
        # finished before the failure is already flushed to disk
        cache.close()
    return SpecCampaignResult(cells=cells, scores=scores, durations=durations)
