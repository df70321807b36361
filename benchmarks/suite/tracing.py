"""Outside-in spans: per-layer time taken from the benchmark's own files.

A traced run wraps, by name and at run time, the public entry points of
each layer (module functions and class methods) and the public methods
of the scheduler / predictor / corrector instances handed to
``SimSession``.  Nothing under ``src/`` knows it is being measured.
Spans nest on one stack; a span's self time is its duration minus the
part its child spans cover, so the layers' self times add up to the
traced wall time and what is left over is the harness's own glue
(``unexplained_share``).  Spans inside the program -- profile sweeps
under ``select_jobs``, the event heap under ``drain`` -- are a later
change; until then such work is charged to the span that called it.

Single-threaded by design: do not keep the tracer installed while
another thread runs program code.
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Callable
from time import perf_counter


class MissingTarget(LookupError):
    """A wrap or probe target that this commit of the program lacks."""


def resolve(module: str, path: str = "") -> object:
    """``module`` (+ dotted attribute ``path``) looked up at run time."""
    try:
        target: object = importlib.import_module(module)
    except ImportError as exc:
        raise MissingTarget(f"{module}: {exc}") from None
    for part in filter(None, path.split(".")):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise MissingTarget(f"{module}.{path}") from None
    return target


def _started_any(_args: tuple, result: object) -> int:
    return 1 if result else 0


def _first_arg_len(args: tuple, _result: object) -> int:
    return len(args[0])


#: (module, dotted attribute, span key) -- functions are patched in the
#: namespace that looks them up, methods on their class
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("repro.spec.grid", "expand_spec_obj", "spec.expand"),
    ("repro.spec.components", "ComponentRegistry.build", "spec.build"),
    ("repro.spec.cellspec", "CellSpec.build_components", "spec.build_components"),
    ("repro.spec.cellspec", "CellSpec.digest", "spec.digest"),
    ("repro.core.campaign", "run_cells", "core.run_cells"),
    ("repro.core.campaign", "ResultCache.__init__", "core.cache.load"),
    ("repro.core.campaign", "ResultCache.get", "core.cache.get"),
    ("repro.core.campaign", "ResultCache.put", "core.cache.put"),
    ("repro.core.run", "run_spec", "core.run_spec"),
    ("repro.core.run", "get_bundle", "core.get_bundle"),
    ("repro.core.run", "get_trace", "workload.get_trace"),
    ("repro.core.run", "average_bounded_slowdown", "metrics.avebsld"),
    ("repro.core.batch", "TraceBundle.static_rows", "predict.static_rows"),
    ("repro.serve.server", "SessionServer.handle_line", "serve.handle_line"),
    ("repro.sim.session", "SimSession.feed", "sim.session"),
    ("repro.sim.session", "SimSession.drain", "sim.session"),
    ("repro.sim.session", "SimSession.advance_to", "sim.session"),
    ("repro.sim.session", "SimSession.query", "sim.session"),
    ("repro.sim.session", "SimSession.complete", "sim.session"),
    ("repro.sim.session", "SimSession.result", "sim.session"),
)

#: public methods wrapped on each component instance a session receives:
#: role -> (method, span key, measure)
INSTANCE_METHODS: dict[str, tuple[tuple[str, str, Callable | None], ...]] = {
    "scheduler": (
        ("select_jobs", "sched.select_jobs", _started_any),
        ("on_submit", "sched.notify", None),
        ("on_start", "sched.notify", None),
        ("on_finish", "sched.notify", None),
        ("on_machine_change", "sched.notify", None),
        ("on_corrections", "sched.on_corrections", _first_arg_len),
        ("estimated_starts", "sched.estimated_starts", None),
    ),
    "predictor": (
        ("predict", "predict.predict", None),
        ("on_finish", "predict.update", None),
        ("observe", "predict.update", None),
        ("on_start", "predict.on_start", None),
        ("estimate", "predict.estimate", None),
    ),
    "corrector": (("correct", "correct.correct", None),),
}


class Tracer:
    """Span accumulator: ``stats[key] = [calls, busy_s, self_s, measure]``."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        #: every SimSession built while installed (for engine counters)
        self.sessions: list = []
        #: targets this commit lacks; their layer metrics read null
        self.skipped: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero every counter in place (wrappers keep their slots)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        self.sessions.clear()

    def wrap(self, fn: Callable, key: str, measure: Callable | None = None) -> Callable:
        """``fn`` timed as a span of ``key``; ``measure(args, result)`` adds
        a per-call count (jobs started, records corrected) to the span."""
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if measure is not None:
                stat[3] += measure(args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Patch every target that exists; note the ones that do not."""
        for module, path, key in PATCHES:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = resolve(module, owner_path)
                original = resolve(module, path)
            except MissingTarget as exc:
                self.skipped.append(f"{key}: {exc}")
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, key))
        try:
            session_cls = resolve("repro.sim.session", "SimSession")
        except MissingTarget as exc:
            self.skipped.append(f"component instances: {exc}")
            return
        original_init = session_cls.__init__
        tracer = self

        @functools.wraps(original_init)
        def traced_init(session, processors, scheduler, predictor, corrector=None, **kw):
            tracer.wrap_component("scheduler", scheduler)
            tracer.wrap_component("predictor", predictor)
            if corrector is not None:
                tracer.wrap_component("corrector", corrector)
            original_init(session, processors, scheduler, predictor, corrector, **kw)
            tracer.sessions.append(session)

        self._undo.append((session_cls, "__init__", original_init))
        session_cls.__init__ = traced_init

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def wrap_component(self, role: str, instance: object) -> None:
        """Wrap one component instance's public methods, once."""
        if getattr(instance, "_bench_traced", False):
            return
        for method, key, measure in INSTANCE_METHODS[role]:
            bound = getattr(instance, method, None)
            if bound is None:
                note = f"{key}: {type(instance).__name__} has no {method}"
                if note not in self.skipped:
                    self.skipped.append(note)
                continue
            setattr(instance, method, self.wrap(bound, key, measure))
        instance._bench_traced = True

    # -- read-out ------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[float, float, float, float]]:
        return {key: tuple(stat) for key, stat in self.stats.items()}


def layer_self_times(snapshot: dict[str, tuple]) -> dict[str, float]:
    """Self seconds per layer (the span key's first dotted component)."""
    layers: dict[str, float] = {}
    for key, (_calls, _busy, self_s, _measure) in snapshot.items():
        layer = key.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return layers
