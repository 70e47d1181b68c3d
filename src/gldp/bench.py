"""Instance I/O, benchmark orchestration, and performance-profile emission.

Instances are stored as JSON: ``{"jobs": [{"p":..,"r":..,"d":..}, ...]}``
for scheduling and ``{"W":.., "UB":.., "rects":[{"L":..,"H":..}, ...]}`` for
strip packing (``UB`` optional, defaulting to the summed widths).

``run_bench`` runs a factorial (instance x concept x reformulation) sweep
and returns one record per run (status ``error`` for a run that raised) plus
an explicit report of the concept/reformulation pairs that were rejected as
incompatible.  The concepts and ``build_model`` come from
``builders.CONCEPTS``; RHR runs only on ``RHR_CONCEPTS``, the entries of
that table whose disjuncts share a left-hand side as built.  A
``BenchRecord`` is one CSV row, its fields the columns.  Gaps are reported
in percent with the incumbent in the denominator, and ``inf`` marks runs
that ended without an incumbent.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union, get_type_hints

from .builders import (
    CONCEPTS,
    Instance,
    Job,
    Rect,
    SchedulingInstance,
    StripInstance,
    build_model,
    check_concept,
)
from .milp import BBConfig, SolveResult, solve_bb
from .model import GdpModel, MilpModel
from .reformulate import reformulate_bigm, reformulate_hull, reformulate_rhr

REFORMULATIONS = ("BM", "HR", "RHR")

RHR_CONCEPTS = {name for name, c in CONCEPTS.items() if c.rhr}

SOLVED_STATUSES = ("optimal", "gap_limit")

_log = logging.getLogger(__name__)


class InstanceFormatError(ValueError):
    """An instance file violates the JSON schema or an instance invariant."""


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    concept: str
    reformulation: str
    status: str
    objective: float  # incumbent; inf when none was found
    bound: float
    gap: float  # percent, inf when no incumbent
    nodes: int
    wall_time: float


CSV_FIELDS = tuple(f.name for f in fields(BenchRecord))
# The type of each column, which writes and parses its values.
_CSV_TYPES = tuple(get_type_hints(BenchRecord)[name] for name in CSV_FIELDS)


def load_instance(path: Union[str, Path]) -> Instance:
    """Parse an instance file, with field-level diagnostics on bad input."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")

    def number(obj: dict, key: str, where: str) -> float:
        if key not in obj:
            raise InstanceFormatError(f"{path}: {where}: missing field {key!r}")
        val = obj[key]
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise InstanceFormatError(f"{path}: {where}: field {key!r} must be a number")
        # false for NaN and infinities, and for integers beyond float range
        if not abs(val) <= sys.float_info.max:
            raise InstanceFormatError(f"{path}: {where}: field {key!r} must be finite")
        return float(val)

    if "jobs" in data:
        if not isinstance(data["jobs"], list) or not data["jobs"]:
            raise InstanceFormatError(f"{path}: 'jobs' must be a nonempty list")
        jobs = []
        for i, obj in enumerate(data["jobs"]):
            if not isinstance(obj, dict):
                raise InstanceFormatError(f"{path}: job {i}: must be an object")
            jobs.append(
                Job(number(obj, "p", f"job {i}"), number(obj, "r", f"job {i}"), number(obj, "d", f"job {i}"))
            )
        try:
            return SchedulingInstance(jobs)
        except ValueError as exc:
            raise InstanceFormatError(f"{path}: {exc}")
    if "rects" in data:
        if not isinstance(data["rects"], list) or not data["rects"]:
            raise InstanceFormatError(f"{path}: 'rects' must be a nonempty list")
        rects = []
        for i, obj in enumerate(data["rects"]):
            if not isinstance(obj, dict):
                raise InstanceFormatError(f"{path}: rectangle {i}: must be an object")
            rects.append(
                Rect(number(obj, "L", f"rectangle {i}"), number(obj, "H", f"rectangle {i}"))
            )
        W = number(data, "W", "strip")
        UB = number(data, "UB", "strip") if "UB" in data else None
        try:
            return StripInstance(rects, W, UB)
        except ValueError as exc:
            raise InstanceFormatError(f"{path}: {exc}")
    raise InstanceFormatError(f"{path}: expected a 'jobs' or 'rects' field")


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    if isinstance(inst, SchedulingInstance):
        data = {"jobs": [{"p": j.p, "r": j.r, "d": j.d} for j in inst.jobs]}
    else:
        data = {
            "W": inst.W,
            "UB": inst.UB,
            "rects": [{"L": r.L, "H": r.H} for r in inst.rects],
        }
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def reformulate_model(model: GdpModel, reformulation: str) -> MilpModel:
    if reformulation == "BM":
        return reformulate_bigm(model)
    if reformulation == "HR":
        return reformulate_hull(model)
    if reformulation == "RHR":
        return reformulate_rhr(model)
    raise ValueError(f"unknown reformulation {reformulation!r}")


def check_compatible(concept: str, reformulation: str) -> Optional[str]:
    """Reason the pair cannot run, or None when it can."""
    if reformulation != "RHR" or concept in RHR_CONCEPTS:
        return None
    shared = ", ".join(sorted(RHR_CONCEPTS))
    return f"{concept} disjuncts do not share a left-hand side; RHR runs on {shared}"


def _record_from_result(
    instance_id: str, concept: str, reformulation: str, res: SolveResult
) -> BenchRecord:
    return BenchRecord(
        instance=instance_id,
        concept=concept,
        reformulation=reformulation,
        status=res.status,
        objective=res.objective,
        bound=res.bound,
        gap=100.0 * res.gap,
        nodes=res.nodes,
        wall_time=res.wall_time,
    )


def _run_built(
    instance_id: str,
    model: GdpModel,
    concept: str,
    reformulation: str,
    config: Optional[BBConfig],
) -> BenchRecord:
    milp = reformulate_model(model, reformulation)
    res = solve_bb(milp, config)
    return _record_from_result(instance_id, concept, reformulation, res)


def run_single(
    instance_id: str,
    instance: Instance,
    concept: str,
    reformulation: str,
    config: Optional[BBConfig] = None,
) -> BenchRecord:
    model = build_model(instance, concept)
    return _run_built(instance_id, model, concept, reformulation, config)


def _error_record(
    instance_id: str, concept: str, reformulation: str, exc: BaseException
) -> BenchRecord:
    _log.error("%s %s x %s failed: %s: %s", instance_id, concept, reformulation,
               type(exc).__name__, exc, exc_info=exc)
    return BenchRecord(instance_id, concept, reformulation, "error",
                       math.inf, math.inf, math.inf, 0, 0.0)


def _bench_group(task) -> List[BenchRecord]:
    """Build one (instance, concept) model once and run each of its
    reformulations on it; a run that raises becomes an error record."""
    instance_id, instance, concept, reformulations, config = task
    try:
        model = build_model(instance, concept)
    except Exception as exc:
        return [_error_record(instance_id, concept, r, exc) for r in reformulations]
    records = []
    for reform in reformulations:
        try:
            records.append(_run_built(instance_id, model, concept, reform, config))
        except Exception as exc:
            records.append(_error_record(instance_id, concept, reform, exc))
    return records


def _group_alone(task) -> List[BenchRecord]:
    """Run a group whose worker died (its own or another's in the same
    pool) again, in a fresh one-worker pool; error records if it fails
    again."""
    iid, _, concept, reforms, _ = task
    _log.warning("%s %s: worker pool broke; running the group again alone", iid, concept)
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(_bench_group, task).result()
    except Exception as exc:  # the worker died again or could not be reached
        return [_error_record(iid, concept, r, exc) for r in reforms]


def run_bench(
    instances: Sequence[Tuple[str, Instance]],
    concepts: Sequence[str],
    reformulations: Sequence[str],
    config: Optional[BBConfig] = None,
    workers: int = 1,
) -> Tuple[List[BenchRecord], List[Tuple[str, str, str]]]:
    """Full factorial sweep.

    Returns ``(records, rejections)`` where each rejection is a
    ``(concept, reformulation, reason)`` triple for a pair that cannot run;
    rejected pairs are reported rather than silently skipped.  Record order
    follows the input orders of instances, concepts, and reformulations.
    An unknown concept or reformulation raises ``ValueError``, and a concept
    that does not fit an instance's kind ``TypeError``, before any run
    starts.  Each (instance, concept) model is built once and shared by its
    reformulations.  A run that raises gets a record with status ``error``,
    ``inf`` objective, bound and gap, and 0 nodes and wall time; the
    exception is logged and the sweep goes on.  A worker process that dies
    breaks the pool, and every group not yet finished fails with it; each
    failed group is then run again alone, in a fresh one-worker pool, and
    only a group that fails again gets error records.
    """
    for kind, names, known in (
        ("concept", concepts, sorted(CONCEPTS)),
        ("reformulation", reformulations, list(REFORMULATIONS)),
    ):
        for name in names:
            if name not in known:
                raise ValueError(f"unknown {kind} {name!r}; expected one of {known}")
    for _, inst in instances:
        for concept in concepts:
            check_concept(inst, concept)
    rejections: List[Tuple[str, str, str]] = []
    runnable: Dict[str, List[str]] = {}
    for concept in concepts:
        for reform in reformulations:
            reason = check_compatible(concept, reform)
            if reason is None:
                runnable.setdefault(concept, []).append(reform)
            else:
                rejections.append((concept, reform, reason))
    tasks = [
        (iid, inst, concept, reforms, config)
        for iid, inst in instances
        for concept, reforms in runnable.items()
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_bench_group, t) for t in tasks]
        groups = [
            _group_alone(t) if fut.exception() is not None else fut.result()
            for t, fut in zip(tasks, futures)
        ]
    else:
        groups = [_bench_group(t) for t in tasks]
    return [rec for group in groups for rec in group], rejections


def _fmt(value: float) -> str:
    return repr(float(value))


def records_to_csv(records: Sequence[BenchRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in records:
        writer.writerow(
            _fmt(value) if typ is float else value
            for typ, value in zip(_CSV_TYPES, (getattr(r, name) for name in CSV_FIELDS))
        )
    return out.getvalue()


def records_from_csv(text: str) -> List[BenchRecord]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_FIELDS:
        raise ValueError(f"unexpected CSV header {header}")
    records = []
    for row in reader:
        if len(row) != len(CSV_FIELDS):
            raise ValueError(f"CSV line {reader.line_num}: {len(row)} fields, expected {len(CSV_FIELDS)}")
        records.append(BenchRecord(*(typ(value) for typ, value in zip(_CSV_TYPES, row))))
    return records


def _profile_metric(record: BenchRecord, axis: str) -> Optional[float]:
    if axis == "time":
        return record.wall_time if record.status in SOLVED_STATUSES else None
    if axis == "gap":
        return record.gap if math.isfinite(record.objective) else None
    raise ValueError(f"unknown profile axis {axis!r}")


def emit_profile(records: Sequence[BenchRecord], axis: str = "time") -> str:
    """Cumulative step-function profile per variant, as CSV.

    One column per (concept, reformulation) variant plus virtual-best and
    virtual-worst envelopes taken per instance across variants.  A run with
    no metric on the axis (unsolved on the time axis, incumbent-free on the
    gap axis) never contributes, so its column plateaus; the virtual-worst
    envelope drops any instance some variant failed on.
    """
    if not records:
        raise ValueError("no records to profile")
    variants = sorted({(r.concept, r.reformulation) for r in records})
    instances = sorted({r.instance for r in records})
    metric: Dict[Tuple[str, str], Dict[str, Optional[float]]] = {
        v: {i: None for i in instances} for v in variants
    }
    for r in records:
        metric[(r.concept, r.reformulation)][r.instance] = _profile_metric(r, axis)

    columns: Dict[str, List[float]] = {}
    for concept, reform in variants:
        vals = [m for m in metric[(concept, reform)].values() if m is not None]
        columns[f"{concept}_{reform}"] = sorted(vals)
    best: List[float] = []
    worst: List[float] = []
    for i in instances:
        per_variant = [metric[v][i] for v in variants]
        finite = [m for m in per_variant if m is not None]
        if finite:
            best.append(min(finite))
        if len(finite) == len(per_variant):
            worst.append(max(finite))
    columns["virtual_best"] = sorted(best)
    columns["virtual_worst"] = sorted(worst)

    thresholds = sorted({m for vals in columns.values() for m in vals})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["threshold"] + list(columns))
    for th in thresholds:
        row = [_fmt(th)]
        for vals in columns.values():
            row.append(str(sum(1 for m in vals if m <= th)))
        writer.writerow(row)
    return out.getvalue()
