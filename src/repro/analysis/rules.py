"""The rule battery: repo-specific determinism/durability/identity checks.

Every rule here encodes a contract the rest of the repository states in
prose (module docstrings, ROADMAP invariants) but until now could only
enforce dynamically.  Rule ids are stable forever, so retired rules
leave a gap rather than freeing their id.  :data:`RULES` at the end is
the battery :func:`repro.analysis.run_check` runs.

File rules (per-AST):

* ``DET001`` -- no wall-clock/entropy sources in engine paths.
* ``DET002`` -- no unsorted directory scans in coordination code.
* ``DET003`` -- no environment reads in engine paths.
* ``DUR001`` -- ``repro.dist`` writes final files via tmp + ``os.replace``.
* ``ENC001`` -- text-mode ``open()`` must pin ``encoding=``.
* ``OBS001`` -- hot layers never write the registry; ``attach`` behind ``enabled``.
* ``OBS002`` -- no ``print()`` in library code.
* ``IMP001`` -- ``repro.obs`` stays dependency-free.

Project rules (per-repository):

* ``FRZ001`` -- frozen-oracle/semantics digests vs ``ENGINE_VERSION``
  (see :mod:`repro.analysis.frozen`).
* ``SPEC001`` -- engine knobs must enter the ``CellSpec`` digest.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator

from .core import FileContext, FileRule, Finding, ProjectContext, ProjectRule, Rule
from .frozen import check_frozen

__all__ = ["RULES"]


def _walk_calls(ctx: FileContext) -> Iterator[ast.Call]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            yield node


def _call_mode_literal(call: ast.Call) -> str | None:
    """The literal mode of an ``open()`` call; ``"r"`` when omitted,
    ``None`` when it is not a string literal (unknowable statically)."""
    mode_node: ast.expr | None = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    else:
        for kw in call.keywords:
            if kw.arg == "mode":
                mode_node = kw.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


# -- DET001 -------------------------------------------------------------------

_DET001_EXACT = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.localtime": "wall clock",
    "time.gmtime": "wall clock",
    "time.ctime": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "entropy",
    "uuid.uuid1": "entropy",
    "uuid.uuid4": "entropy",
}

#: seedable constructors on the numpy.random namespace (building one
#: with an explicit seed is exactly how determinism is done right).
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


def _det001_reason(name: str) -> str | None:
    if name in _DET001_EXACT:
        return _DET001_EXACT[name]
    if name.startswith("secrets."):
        return "entropy"
    if name.startswith("random.") and name != "random.Random":
        # the module-level functions share one ambient, unseeded state;
        # random.Random(seed) instances are the sanctioned spelling
        return "ambient RNG state"
    member = name.removeprefix("numpy.random.")
    if member != name and member not in _NP_RANDOM_OK:
        return "ambient RNG state"
    return None


class Det001WallClockEntropy(FileRule):
    """Engine paths must be pure functions of trace + spec + seed: code
    there decides (or feeds decisions about) when jobs start, so any
    nondeterminism breaks the frozen-oracle guarantee."""

    id = "DET001"
    paths = (
        "src/repro/sim/*",
        "src/repro/sched/*",
        "src/repro/predict/*",
        "src/repro/learn/*",
    )
    # the checkpoint store is I/O plumbing (env-addressed file cache),
    # not schedule semantics; its wall-clock metadata stamps are benign
    exclude = ("src/repro/learn/checkpoint.py",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for call in _walk_calls(ctx):
            name = ctx.dotted_name(call.func)
            if name is None:
                continue
            reason = _det001_reason(name)
            if reason is not None:
                yield Finding(
                    ctx.relpath, call.lineno, call.col_offset, self.id,
                    f"{name}() is a {reason} source; engine paths must be "
                    "deterministic functions of (trace, spec, seed) -- thread "
                    "a seeded generator through the spec instead",
                )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "random", "secrets"
            ):
                yield Finding(
                    ctx.relpath, node.lineno, node.col_offset, self.id,
                    f"`from {node.module} import ...` in an engine path hides "
                    "an ambient RNG behind a bare name; import the module and "
                    "use seeded instances",
                )


# -- DET002 -------------------------------------------------------------------

_SCAN_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_SCAN_METHODS = {"iterdir", "glob", "rglob"}


class Det002UnsortedScan(FileRule):
    """Directory iteration order is filesystem-dependent; coordination
    code must sort it (or reduce it to an order-free set): its scan order
    decides claim order, harvest order, or merge content across hosts."""

    id = "DET002"
    paths = ("src/repro/dist/*", "src/repro/core/*", "src/repro/obs/*")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for call in _walk_calls(ctx):
            name = ctx.dotted_name(call.func)
            is_scan = name in _SCAN_CALLS or (
                name not in ("glob.glob", "glob.iglob")
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in _SCAN_METHODS
            )
            if not is_scan:
                continue
            if self._order_free(ctx, call):
                continue
            yield Finding(
                ctx.relpath, call.lineno, call.col_offset, self.id,
                f"{name or call.func.attr}() order is filesystem-dependent; "
                "wrap the scan in sorted(...) (or reduce it to a set) so "
                "claim/harvest order is identical on every platform",
            )

    @staticmethod
    def _order_free(ctx: FileContext, call: ast.Call) -> bool:
        """True when an enclosing expression already erases scan order:
        a ``sorted(...)``/``set(...)``/``len(...)`` call or a set
        comprehension between the scan and its statement."""
        node: ast.AST = call
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, ast.Call):
                fname = ctx.dotted_name(ancestor.func)
                if fname in ("sorted", "set", "frozenset", "len") and (
                    node in ancestor.args
                    or any(node is kw.value for kw in ancestor.keywords)
                ):
                    return True
            if isinstance(ancestor, (ast.SetComp, ast.GeneratorExp, ast.ListComp)):
                # keep climbing: a comprehension is order-free only if
                # *it* feeds sorted()/set()/a set comprehension
                if isinstance(ancestor, ast.SetComp):
                    return True
            if isinstance(ancestor, ast.stmt):
                return False
            node = ancestor
        return False


# -- DET003 -------------------------------------------------------------------


class Det003EnvRead(FileRule):
    """Configuration must flow through the spec (and so the cache
    digest), never through ambient process environment."""

    id = "DET003"
    paths = ("src/repro/sim/*", "src/repro/sched/*", "src/repro/predict/*")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            name = ctx.dotted_name(node) if isinstance(node, (ast.Attribute, ast.Name)) else None
            if name == "os.environ":
                yield Finding(
                    ctx.relpath, node.lineno, node.col_offset, self.id,
                    "os.environ read in an engine path; engine behaviour must "
                    "be a function of the CellSpec (cache identity), not the "
                    "process environment",
                )
            elif isinstance(node, ast.Call) and ctx.dotted_name(node.func) == "os.getenv":
                yield Finding(
                    ctx.relpath, node.lineno, node.col_offset, self.id,
                    "os.getenv() in an engine path; thread the knob through "
                    "the CellSpec instead",
                )


# -- DUR001 -------------------------------------------------------------------


class Dur001NonAtomicWrite(FileRule):
    """A crash mid-write must never leave a half-written final file in
    the shared queue directory: write a tmp name, then ``os.replace``."""

    id = "DUR001"
    paths = ("src/repro/dist/*",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for call in _walk_calls(ctx):
            if ctx.dotted_name(call.func) != "open":
                continue
            mode = _call_mode_literal(call)
            if mode is None or not any(ch in mode for ch in "wx"):
                continue  # reads and append-only streams are the protocol
            if self._function_replaces(ctx, call):
                continue
            yield Finding(
                ctx.relpath, call.lineno, call.col_offset, self.id,
                f"open(..., {mode!r}) writes a final path in place; a crash "
                "leaves a torn file other hosts will read.  Write "
                "`<path>.tmp.<pid>` then os.replace() onto the final name",
            )

    @staticmethod
    def _function_replaces(ctx: FileContext, call: ast.Call) -> bool:
        func = ctx.enclosing_function(call)
        if func is None:
            return False
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and ctx.dotted_name(node.func) in (
                "os.replace", "os.rename"
            ):
                return True
        return False


# -- ENC001 -------------------------------------------------------------------


class Enc001OpenEncoding(FileRule):
    """Queue directories and caches cross hosts; the platform default
    text encoding must never decide what bytes land in them."""

    id = "ENC001"
    paths = ("src/repro/*",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for call in _walk_calls(ctx):
            if ctx.dotted_name(call.func) != "open":
                continue
            mode = _call_mode_literal(call)
            if mode is None or "b" in mode:
                continue
            if _has_keyword(call, "encoding"):
                continue
            yield Finding(
                ctx.relpath, call.lineno, call.col_offset, self.id,
                f"text-mode open(..., {mode!r}) without encoding=; the "
                "platform default is host-dependent -- pass "
                'encoding="utf-8" explicitly',
            )


# -- OBS001 -------------------------------------------------------------------

_TELE_RECEIVER = re.compile(r"^(self\.)?_?tele(metry)?$")
_TELE_MUTATORS = {"inc", "observe", "attach", "event"}
#: a registry write: never from the hot layers, whose tallies the registry reads
_TELE_WRITES = {"inc", "observe"}


def _test_checks_enabled(test: ast.expr) -> bool:
    """``X.enabled``, alone or as one conjunct of an ``and``."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_test_checks_enabled(value) for value in test.values)
    return isinstance(test, ast.Attribute) and test.attr == "enabled"


class Obs001UnguardedTelemetry(FileRule):
    """The hot layers keep a tally the registry reads: ``inc``/``observe``
    there is a finding even when guarded.  What they do call
    (``attach``, once; ``event``) sits behind ``if tele.enabled:``, so the
    disabled path is one attribute check (``span()`` needs no guard)."""

    id = "OBS001"
    paths = ("src/repro/sim/*", "src/repro/sched/*", "src/repro/predict/*", "src/repro/serve/*")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for call in _walk_calls(ctx):
            func = call.func
            if not isinstance(func, ast.Attribute) or func.attr not in _TELE_MUTATORS:
                continue
            receiver = ctx.dotted_name(func.value)
            if receiver is None or not _TELE_RECEIVER.match(receiver):
                continue
            if func.attr in _TELE_WRITES:
                message = (
                    "writes the registry from a hot layer; count into the "
                    "layer's own tally, which the registry reads: `attach`, "
                    "once, is the one registry call a hot layer makes"
                )
            elif self._guarded(ctx, call):
                continue
            else:
                message = (
                    "outside an `if <telemetry>.enabled:` guard; the "
                    "NOOP-guarded attribute pattern keeps the telemetry-off hot "
                    "path at one branch (see repro.obs.telemetry)"
                )
            yield Finding(
                ctx.relpath, call.lineno, call.col_offset, self.id,
                f"{receiver}.{func.attr}(...) {message}",
            )

    @staticmethod
    def _guarded(ctx: FileContext, call: ast.Call) -> bool:
        """Inside the *body* of an ``if``/``while``/ternary whose test
        checks ``.enabled`` -- never its test or its ``else``."""
        node: ast.AST = call
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, (ast.If, ast.While, ast.IfExp)):
                body = ancestor.body  # statements, or the ternary's one value
                in_body = node in body if isinstance(body, list) else node is body
                if in_body and _test_checks_enabled(ancestor.test):
                    return True
            node = ancestor
        return False


# -- OBS002 -------------------------------------------------------------------


class Obs002PrintInLibrary(FileRule):
    """Library layers report through ``repro.obs`` (metrics, logging) or
    return data; stdout belongs to the CLI and the reporting layer, the
    two parts of ``src/repro`` outside these paths."""

    id = "OBS002"
    paths = (
        "src/repro/sim/*",
        "src/repro/sched/*",
        "src/repro/predict/*",
        "src/repro/correct/*",
        "src/repro/workload/*",
        "src/repro/dist/*",
        "src/repro/obs/*",
        "src/repro/serve/*",
        "src/repro/learn/*",
        "src/repro/spec/*",
        "src/repro/metrics/*",
        "src/repro/analysis/*",
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for call in _walk_calls(ctx):
            if isinstance(call.func, ast.Name) and call.func.id == "print":
                yield Finding(
                    ctx.relpath, call.lineno, call.col_offset, self.id,
                    "print() in library code; use repro.obs.log logging, "
                    "telemetry, or return the data to the caller (stdout "
                    "belongs to the CLI/reporting layer)",
                )


# -- IMP001 -------------------------------------------------------------------


class Imp001ObsDependencyFree(FileRule):
    """``repro.obs`` is importable from every layer *because* it imports
    none of them (telemetry.py states the contract; this enforces it)."""

    id = "IMP001"
    paths = ("src/repro/obs/*",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            offender: str | None = None
            if isinstance(node, ast.ImportFrom):
                if node.level >= 2:
                    offender = "." * node.level + (node.module or "")
                elif node.module and (
                    node.module == "repro" or node.module.startswith("repro.")
                ) and not node.module.startswith("repro.obs"):
                    offender = node.module
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.") and not alias.name.startswith(
                        "repro.obs"
                    ):
                        offender = alias.name
            if offender is not None:
                yield Finding(
                    ctx.relpath, node.lineno, node.col_offset, self.id,
                    f"import of {offender!r} breaks repro.obs's "
                    "dependency-free contract (every layer must be able to "
                    "import obs without cycles)",
                )


# -- FRZ001 -------------------------------------------------------------------


class Frz001FrozenOracle(ProjectRule):
    """The byte-frozen oracle and the semantics/ENGINE_VERSION pact;
    heavy lifting in :mod:`repro.analysis.frozen`."""

    id = "FRZ001"
    paths = (
        "src/repro/sched/*",
        "src/repro/sim/*",
        "src/repro/correct/*",
        "src/repro/predict/*",
    )

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        return check_frozen(ctx)


# -- SPEC001 ------------------------------------------------------------------

#: engine-construction parameters that are structural (what to run /
#: how to observe it), not semantic knobs, so they may stay outside the
#: cache digest.  Reviewed additions only.
_SPEC_STRUCTURAL_PARAMS = frozenset(
    {
        "self",
        "trace",
        "processors",
        "scheduler",
        "predictor",
        "corrector",
        "telemetry",
        "trace_name",
        "start_time",
    }
)

_SPEC_CELLSPEC = "src/repro/spec/cellspec.py"
_SPEC_ENGINE_ENTRYPOINTS = {
    "src/repro/sim/engine.py": ((None, "simulate"),),
    "src/repro/sim/session.py": (("SimSession", "__init__"),),
}


class Spec001KnobEscapesDigest(ProjectRule):
    """Every semantic engine knob must be a ``CellSpec`` engine field,
    or two different configurations share one cache token."""

    id = "SPEC001"
    paths = (_SPEC_CELLSPEC, "src/repro/sim/engine.py", "src/repro/sim/session.py")

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        knobs = self._digested_knobs(ctx)
        if knobs is None:
            yield Finding(
                _SPEC_CELLSPEC, 1, 0, self.id,
                "could not locate the engine-knob set in CellSpec.to_obj()/"
                "from_obj(); SPEC001 needs the `\"engine\": {...}` literal "
                "to know what the digest covers",
            )
            return
        for relpath, targets in _SPEC_ENGINE_ENTRYPOINTS.items():
            tree = ctx.parse(relpath)
            if tree is None:
                continue
            for cls_name, func_name in targets:
                func = _find_function(tree, cls_name, func_name)
                if func is None:
                    continue
                for arg in _all_args(func):
                    if arg.arg in _SPEC_STRUCTURAL_PARAMS or arg.arg in knobs:
                        continue
                    yield Finding(
                        relpath, func.lineno, func.col_offset, self.id,
                        f"engine parameter {arg.arg!r} of "
                        f"{cls_name + '.' if cls_name else ''}{func_name} is "
                        "neither a CellSpec engine knob nor a declared "
                        "structural parameter; add it to the CellSpec engine "
                        "block (and bump SPEC_VERSION) so it cannot escape "
                        "cache identity",
                    )

    @staticmethod
    def _digested_knobs(ctx: ProjectContext) -> set[str] | None:
        tree = ctx.parse(_SPEC_CELLSPEC)
        if tree is None:
            return None
        knobs: set[str] = set()
        for node in ast.walk(tree):
            # the `"engine": {"min_prediction": ..., "tau": ...}` literal
            # in CellSpec.to_obj() is the canonical digest surface
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values, strict=True):
                    if (
                        isinstance(key, ast.Constant)
                        and key.value == "engine"
                        and isinstance(value, ast.Dict)
                    ):
                        for subkey in value.keys:
                            if isinstance(subkey, ast.Constant) and isinstance(
                                subkey.value, str
                            ):
                                knobs.add(subkey.value)
        return knobs or None


def _find_function(
    tree: ast.Module, cls_name: str | None, func_name: str
) -> ast.FunctionDef | None:
    if cls_name is None:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == func_name:
                return node
        return None
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == func_name:
                    return item
    return None


def _all_args(func: ast.FunctionDef) -> list[ast.arg]:
    args = func.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]


#: The battery, one instance per rule, in id order.
RULES: tuple[Rule, ...] = (
    Det001WallClockEntropy(),
    Det002UnsortedScan(),
    Det003EnvRead(),
    Dur001NonAtomicWrite(),
    Enc001OpenEncoding(),
    Frz001FrozenOracle(),
    Imp001ObsDependencyFree(),
    Obs001UnguardedTelemetry(),
    Obs002PrintInLibrary(),
    Spec001KnobEscapesDigest(),
)
