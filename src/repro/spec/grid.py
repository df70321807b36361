"""Experiment spec files: declarative grids that expand to CellSpecs.

A spec file (TOML or JSON, same schema) declares campaign-level workload
defaults and one or more ``[[grid]]`` blocks whose component axes are
expanded as a cross product::

    [campaign]
    name = "paper"
    logs = ["KTH-SP2", "CTC-SP2"]     # workload axis
    n_jobs = 2000
    replicas = 3                       # seeds = stable_seed(log) + 0..r-1
    # seeds = [7, 8]                   # ...or pin them explicitly
    # processors = 256                 # machine-size override
    # filters = [{name = "max-width", params = {processors = 256}}]
    min_prediction = 60.0
    tau = 10.0

    [[grid]]
    predictor = ["requested"]          # string | inline table | "ml:*"
    corrector = ["none"]
    scheduler = ["easy", "easy-sjbf"]
    # any campaign-level key may be overridden per block

Axis entries are anything :meth:`ComponentSpec.from_obj` accepts, plus
the ``"ml:*"`` wildcard which expands to the paper's 20 machine-learned
loss configurations in their canonical order.

Scalar knobs sweep too: ``n_jobs``, ``min_prediction``, ``tau`` and
``processors`` accept a list anywhere a scalar is accepted, and the list
becomes a grid axis (``tau = [5, 10, 20]`` runs every cell at three
thresholds).  Inside an inline component table, a list-valued *param*
sweeps the same way::

    predictor = [{name = "ml", params = {over = "sq", under = "lin",
                  weight = "large-area", eta = [0.3, 0.5]}}]

Expansion order is grid-block, then predictor, corrector, scheduler
(the paper's report order, see :data:`repro.core.triples.PAPER_GRID`;
component param sweeps expand in declaration order at the entry's
position), then the knob axes (n_jobs, min_prediction, tau, processors), then log,
then seed; cells that expand identically (same digest) are emitted once.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Mapping
from itertools import product
from typing import Any

from ._toml import TomlError, load_toml_text
from .cellspec import CellSpec, WorkloadSpec

__all__ = [
    "SpecFileError",
    "load_spec_file",
    "expand_spec_file",
    "expand_spec_obj",
    "validate_spec_file",
    "triple_keys_of",
]

_CAMPAIGN_KEYS = {
    "name", "description", "logs", "n_jobs", "replicas", "seeds",
    "processors", "filters", "min_prediction", "tau",
}
_AXIS_KEYS = {"predictor", "corrector", "scheduler"}


class SpecFileError(ValueError):
    """A spec file that cannot be parsed or expanded."""


def load_spec_file(path: str) -> dict:
    """Parse a ``.toml`` / ``.json`` spec file into its raw document."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"{path}: {exc}") from None
    if path.endswith(".json"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecFileError(f"{path}: invalid JSON: {exc}") from None
    else:
        try:
            doc = load_toml_text(text)
        except TomlError as exc:
            raise SpecFileError(f"{path}: invalid TOML: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecFileError(f"{path}: spec document must be a table/object")
    return doc


def expand_spec_file(path: str) -> list[CellSpec]:
    return expand_spec_obj(load_spec_file(path), source=path)


def validate_spec_file(path: str) -> tuple[str, list[CellSpec]]:
    """Expand + fully normalize; returns ``(campaign name, cells)``.

    Expansion already routes every component through its registry, so a
    clean return means every cell is buildable and digestable.
    """
    doc = load_spec_file(path)
    cells = expand_spec_obj(doc, source=path)
    name = str(doc.get("campaign", {}).get("name", os.path.basename(path)))
    return name, cells


def expand_spec_obj(doc: Mapping[str, Any], source: str = "<spec>") -> list[CellSpec]:
    campaign = doc.get("campaign", {})
    if not isinstance(campaign, Mapping):
        raise SpecFileError(f"{source}: [campaign] must be a table")
    unknown = set(campaign) - _CAMPAIGN_KEYS
    if unknown:
        raise SpecFileError(
            f"{source}: unknown [campaign] key(s) {sorted(unknown)}; "
            f"known: {sorted(_CAMPAIGN_KEYS)}"
        )
    grids = doc.get("grid", [])
    extra_tables = set(doc) - {"campaign", "grid"}
    if extra_tables:
        raise SpecFileError(f"{source}: unknown table(s) {sorted(extra_tables)}")
    if isinstance(grids, Mapping):
        grids = [grids]
    if not isinstance(grids, list) or not grids:
        raise SpecFileError(f"{source}: need at least one [[grid]] block")

    cells: list[CellSpec] = []
    seen: set[str] = set()
    for index, grid in enumerate(grids):
        if not isinstance(grid, Mapping):
            raise SpecFileError(f"{source}: [[grid]] #{index} must be a table")
        where = f"{source} [[grid]] #{index}"
        unknown = set(grid) - _AXIS_KEYS - _CAMPAIGN_KEYS
        if unknown:
            raise SpecFileError(f"{where}: unknown key(s) {sorted(unknown)}")
        for cell in _expand_block(campaign, grid, where):
            if cell.digest() not in seen:
                seen.add(cell.digest())
                cells.append(cell)
    if not cells:
        raise SpecFileError(f"{source}: expands to no cells")
    return cells


def _seed_plan(
    campaign: Mapping[str, Any], grid: Mapping[str, Any], where: str
) -> tuple[Any, Any]:
    """Resolve the (seeds, replicas) axis: one of the two per table, and
    a grid-level setting of either overrides both campaign-level ones.
    Either way the axis must be non-empty -- a campaign of zero cells is
    a mistake, never a result."""
    for name, table in (("[[grid]]", grid), ("[campaign]", campaign)):
        if "seeds" in table and "replicas" in table:
            raise SpecFileError(
                f"{where}: {name} gives both seeds and replicas; pick one"
            )
        if "seeds" in table:
            seeds = _as_list(table["seeds"], where, "seeds")
            if not seeds:
                raise SpecFileError(f"{where}: empty seeds list")
            return seeds, None
        if "replicas" in table:
            replicas = table["replicas"]
            if (
                isinstance(replicas, bool)
                or not isinstance(replicas, int)
                or replicas < 1
            ):
                raise SpecFileError(
                    f"{where}: replicas must be an integer >= 1, got {replicas!r}"
                )
            return None, replicas
    return None, 1


def _expand_block(
    campaign: Mapping[str, Any], grid: Mapping[str, Any], where: str
) -> Iterable[CellSpec]:
    from ..workload.archive import LOG_NAMES, stable_seed

    block = {**campaign, **grid}
    predictors = _component_axis(block, "predictor", where)
    correctors = _component_axis(block, "corrector", where, default=("none",))
    schedulers = _component_axis(block, "scheduler", where)
    logs = _as_list(block.get("logs"), where, "logs")
    if not logs:
        raise SpecFileError(f"{where}: no logs (set [campaign] logs or per-grid logs)")
    unknown_logs = [log for log in logs if log not in LOG_NAMES]
    if unknown_logs:
        raise SpecFileError(
            f"{where}: unknown log(s) {unknown_logs}; known: {', '.join(LOG_NAMES)}"
        )
    n_jobs_axis = _knob_axis(block.get("n_jobs", 2000), where, "n_jobs")
    mp_axis = _knob_axis(block.get("min_prediction", 60.0), where, "min_prediction")
    tau_axis = _knob_axis(block.get("tau", 10.0), where, "tau")
    proc_axis = _knob_axis(block.get("processors"), where, "processors", optional=True)
    filters = tuple(block.get("filters", ()) or ())
    seeds, replicas = _seed_plan(campaign, grid, where)

    try:
        for predictor in predictors:
            for corrector in correctors:
                for scheduler in schedulers:
                    for n_jobs, min_prediction, tau, processors in product(
                        n_jobs_axis, mp_axis, tau_axis, proc_axis
                    ):
                        for log in logs:
                            if seeds is not None:
                                log_seeds = [int(s) for s in seeds]
                            else:
                                base = stable_seed(str(log))
                                log_seeds = [base + r for r in range(replicas)]
                            for seed in log_seeds:
                                yield CellSpec.make(
                                    workload=WorkloadSpec.make(
                                        log=log,
                                        n_jobs=n_jobs,
                                        seed=seed,
                                        processors=processors,
                                        filters=filters,
                                    ),
                                    predictor=predictor,
                                    corrector=corrector,
                                    scheduler=scheduler,
                                    min_prediction=min_prediction,
                                    tau=tau,
                                )
    except (KeyError, ValueError, TypeError) as exc:
        raise SpecFileError(f"{where}: {exc}") from exc


def _knob_axis(
    value: Any, where: str, what: str, optional: bool = False
) -> list:
    """A scalar engine/workload knob, or a list of them (a sweep axis)."""
    if value is None:
        if optional:
            return [None]
        raise SpecFileError(f"{where}: {what} must not be null")
    if isinstance(value, (list, tuple)):
        if not value:
            raise SpecFileError(f"{where}: empty {what} sweep")
        for entry in value:
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise SpecFileError(
                    f"{where}: {what} sweep entries must be numbers, "
                    f"got {entry!r}"
                )
        return list(value)
    return [value]


def _component_axis(
    block: Mapping[str, Any],
    axis: str,
    where: str,
    default: tuple | None = None,
) -> list:
    raw = block.get(axis, default)
    if raw is None:
        raise SpecFileError(f"{where}: missing {axis!r} axis")
    entries = _as_list(raw, where, axis)
    if not entries:
        raise SpecFileError(f"{where}: empty {axis!r} axis")
    out: list[Any] = []
    for entry in entries:
        if entry == "ml:*":
            if axis != "predictor":
                raise SpecFileError(f"{where}: 'ml:*' only expands on the predictor axis")
            from ..predict.loss import all_loss_specs

            out.extend(f"ml:{spec.key}" for spec in all_loss_specs())
        else:
            out.extend(_expand_param_sweeps(entry, where, axis))
    return out


def _expand_param_sweeps(entry: Any, where: str, axis: str) -> list:
    """Expand list-valued params of an inline component table.

    ``{name = "ml", params = {eta = [0.3, 0.5], ...}}`` becomes two
    entries, cross-producting when several params are lists (declaration
    order).  Non-mapping entries and scalar-only params pass through.
    """
    if not isinstance(entry, Mapping):
        return [entry]
    params = entry.get("params")
    if not isinstance(params, Mapping):
        return [entry]
    swept = [key for key, value in params.items() if isinstance(value, (list, tuple))]
    if not swept:
        return [entry]
    for key in swept:
        if not params[key]:
            raise SpecFileError(
                f"{where}: empty sweep for {axis} param {key!r}"
            )
    out = []
    for combo in product(*(params[key] for key in swept)):
        expanded = dict(params)
        expanded.update(zip(swept, combo, strict=True))
        out.append({**entry, "params": expanded})
    return out


def _as_list(value: Any, where: str, what: str) -> list:
    if value is None:
        return []
    if isinstance(value, (str, Mapping)):
        return [value]
    if isinstance(value, (list, tuple)):
        return list(value)
    raise SpecFileError(f"{where}: {what} must be a value or a list")


def triple_keys_of(cells: Iterable[CellSpec]) -> list[str]:
    """Unique legacy triple keys, in first-appearance order (``None``
    entries -- cells with no legacy spelling -- are skipped)."""
    seen: set[str] = set()
    keys: list[str] = []
    for cell in cells:
        key = cell.triple_key
        if key is not None and key not in seen:
            seen.add(key)
            keys.append(key)
    return keys
