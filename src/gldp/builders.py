"""Builders for the scheduling and strip-packing case studies.

Scheduling: a set of jobs with processing times, release times, and due
times must be sequenced on one machine to minimize the makespan.  Three
disjunctive encodings are provided: pairwise general precedence
(``build_gp``), immediate precedence with first/last roles (``build_ip``),
and a time-slot assignment (``build_ts``).

Strip packing: axis-aligned, non-rotatable rectangles are placed in a strip
of fixed width to minimize the used length, with one four-way non-overlap
disjunction per rectangle pair.  ``build_strip`` produces the plain model
and, with ``symbreak``, the symmetry-breaking variant.

``CONCEPTS`` is the one table of the formulation concepts: for each name,
the instance type it models, the builder of its source model, whether it is
aligned, and whether RHR runs on it.  ``build_model`` builds a concept from
that table.  The aligned concepts (GP_S, S0, S1) are ``align_model`` applied
to their source models: every disjunct carries the same rows, with
right-hand sides equal to the rows' maxima over the disjunct within the
variable boxes, so the reaggregated hull applies and its LP relaxation
equals the hull's.

``gen_scheduling`` / ``gen_strip`` generate seeded random instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .model import EQ, LE, ContinuousVar, Disjunct, Disjunction, GdpModel, LinRow
from .reformulate import align_model

@dataclass(frozen=True)
class Job:
    p: float
    r: float
    d: float


@dataclass(frozen=True)
class SchedulingInstance:
    """Jobs with processing, release, and due times (all nonnegative)."""

    jobs: Tuple[Job, ...]

    def __init__(self, jobs: Sequence[Job]):
        object.__setattr__(self, "jobs", tuple(jobs))
        if not self.jobs:
            raise ValueError("instance needs at least one job")
        for i, j in enumerate(self.jobs):
            if min(j.p, j.r, j.d) < 0:
                raise ValueError(f"job {i}: times must be nonnegative")
            if j.r + j.p > j.d:
                raise ValueError(
                    f"job {i}: release {j.r} + processing {j.p} exceeds due {j.d}"
                )

    @property
    def n(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class Rect:
    L: float
    H: float


@dataclass(frozen=True)
class StripInstance:
    """Rectangles (width L, height H) to pack in a strip of width W.

    ``UB`` is a proven upper bound on the used strip length; it defaults to
    the sum of all rectangle widths (a single row is always feasible).
    """

    rects: Tuple[Rect, ...]
    W: float
    UB: float = 0.0

    def __init__(self, rects: Sequence[Rect], W: float, UB: float | None = None):
        object.__setattr__(self, "rects", tuple(rects))
        object.__setattr__(self, "W", float(W))
        if not self.rects:
            raise ValueError("instance needs at least one rectangle")
        for i, rc in enumerate(self.rects):
            if rc.L <= 0 or rc.H <= 0:
                raise ValueError(f"rectangle {i}: sides must be positive")
            if rc.H > self.W:
                raise ValueError(f"rectangle {i}: height {rc.H} exceeds strip width {self.W}")
        if UB is None:
            UB = sum(rc.L for rc in self.rects)
        if UB < max(rc.L for rc in self.rects):
            raise ValueError("UB is smaller than the widest rectangle")
        object.__setattr__(self, "UB", float(UB))

    @property
    def n(self) -> int:
        return len(self.rects)


def _ms_box(inst: SchedulingInstance) -> Tuple[float, float]:
    # Any feasible schedule completes no earlier than max(r+p) and an
    # earliest-start schedule of a feasible sequence finishes by max(r)+sum(p);
    # due times cap the makespan at max(d).
    ps = [j.p for j in inst.jobs]
    rs = [j.r for j in inst.jobs]
    ds = [j.d for j in inst.jobs]
    lo = max(r + p for r, p in zip(rs, ps))
    hi = min(sum(ps) + max(rs), max(ds))
    return lo, hi


def _sched_vars(inst: SchedulingInstance) -> Tuple[List[ContinuousVar], int]:
    """Start-time variables boxed to [r_i, d_i - p_i], plus the makespan."""
    vars_: List[ContinuousVar] = [
        ContinuousVar(f"x{i}", j.r, j.d - j.p) for i, j in enumerate(inst.jobs)
    ]
    lo, hi = _ms_box(inst)
    vars_.append(ContinuousVar("MS", lo, hi))
    return vars_, len(vars_) - 1


def _makespan_rows(inst: SchedulingInstance, ms: int) -> List[LinRow]:
    return [
        LinRow({i: 1.0, ms: -1.0}, -inst.jobs[i].p) for i in range(inst.n)
    ]


def build_gp(inst: SchedulingInstance) -> GdpModel:
    """General-precedence model: one two-way ordering disjunction per pair."""
    vars_, ms = _sched_vars(inst)
    bools: List[str] = []
    disjunctions: List[Disjunction] = []
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            yij = len(bools)
            bools.append(f"Y_{i}_{j}")
            yji = len(bools)
            bools.append(f"Y_{j}_{i}")
            disjunctions.append(
                Disjunction(
                    [
                        Disjunct(yij, [LinRow({i: 1.0, j: -1.0}, -inst.jobs[i].p)]),
                        Disjunct(yji, [LinRow({j: 1.0, i: -1.0}, -inst.jobs[j].p)]),
                    ],
                    label=f"seq({i},{j})",
                )
            )
    return GdpModel(
        vars=vars_,
        bools=bools,
        objective={ms: 1.0},
        global_rows=_makespan_rows(inst, ms),
        disjunctions=disjunctions,
        logic=[],
        name=f"gp{inst.n}",
    )


def build_ip(inst: SchedulingInstance) -> GdpModel:
    """Immediate-precedence model with successor/predecessor and first/last roles."""
    if inst.n < 2:
        raise ValueError("immediate precedence needs at least two jobs")
    vars_, ms = _sched_vars(inst)
    n = inst.n
    bools: List[str] = []
    succ: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                succ[(i, j)] = len(bools)
                bools.append(f"Y_{i}_{j}")
    first = []
    last = []
    for i in range(n):
        first.append(len(bools))
        bools.append(f"Yf_{i}")
    for i in range(n):
        last.append(len(bools))
        bools.append(f"Yl_{i}")

    def before(i: int, j: int) -> LinRow:
        return LinRow({i: 1.0, j: -1.0}, -inst.jobs[i].p)

    disjunctions: List[Disjunction] = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        disjunctions.append(
            Disjunction(
                [Disjunct(succ[(i, j)], [before(i, j)]) for j in others]
                + [Disjunct(last[i], [before(j, i) for j in others])],
                label=f"succ({i})",
            )
        )
    for i in range(n):
        others = [j for j in range(n) if j != i]
        disjunctions.append(
            Disjunction(
                [Disjunct(succ[(j, i)], [before(j, i)]) for j in others]
                + [Disjunct(first[i], [before(i, j) for j in others])],
                label=f"pred({i})",
            )
        )
    disjunctions.append(
        Disjunction(
            [
                Disjunct(first[i], [before(i, j) for j in range(n) if j != i])
                for i in range(n)
            ],
            label="first",
        )
    )
    disjunctions.append(
        Disjunction(
            [
                Disjunct(last[i], [before(j, i) for j in range(n) if j != i])
                for i in range(n)
            ],
            label="last",
        )
    )
    logic = [LinRow({first[i]: 1, last[i]: 1}, 1, LE) for i in range(n)]
    return GdpModel(
        vars=vars_,
        bools=bools,
        objective={ms: 1.0},
        global_rows=_makespan_rows(inst, ms),
        disjunctions=disjunctions,
        logic=logic,
        name=f"ip{inst.n}",
    )


def build_ts(inst: SchedulingInstance) -> GdpModel:
    """Time-slot model: one job-assignment disjunction per ordered slot.

    Slot start variables share the box [min r, max d]; the disjunct for job
    ``i`` at slot ``t`` reserves ``p_i`` until the next slot start (or the
    makespan at the final slot) and pins the slot inside the job's release
    and due window.  All disjuncts of a slot share one coefficient matrix,
    so RHR runs on the model as built, with a relaxation equal to the hull's
    along the makespan but not as a set (see ``reformulate_rhr``).
    """
    n = inst.n
    rs = [j.r for j in inst.jobs]
    ds = [j.d for j in inst.jobs]
    slot_lo, slot_hi = min(rs), max(ds)
    vars_: List[ContinuousVar] = [
        ContinuousVar(f"xt{t}", slot_lo, slot_hi) for t in range(n)
    ]
    ms_lo, ms_hi = _ms_box(inst)
    vars_.append(ContinuousVar("MS", ms_lo, ms_hi))
    ms = n

    bools = [f"Y_{i}_{t}" for i in range(n) for t in range(n)]
    ybin = lambda i, t: i * n + t

    def slot_rows(i: int, t: int) -> List[LinRow]:
        nxt = ms if t == n - 1 else t + 1
        job = inst.jobs[i]
        return [
            LinRow({t: 1.0, nxt: -1.0}, -job.p),
            LinRow({t: -1.0}, -job.r),
            LinRow({t: 1.0}, job.d - job.p),
        ]

    disjunctions: List[Disjunction] = []
    global_rows: List[LinRow] = []
    if n == 1:
        # A one-slot disjunction would be degenerate; the single job's rows
        # hold globally and its assignment indicator is fixed by logic.
        global_rows.extend(slot_rows(0, 0))
    else:
        for t in range(n):
            disjunctions.append(
                Disjunction(
                    [Disjunct(ybin(i, t), slot_rows(i, t)) for i in range(n)],
                    label=f"slot({t})",
                )
            )
    logic = [
        LinRow({ybin(i, t): 1 for t in range(n)}, 1, EQ) for i in range(n)
    ]
    return GdpModel(
        vars=vars_,
        bools=bools,
        objective={ms: 1.0},
        global_rows=global_rows,
        disjunctions=disjunctions,
        logic=logic,
        name=f"ts{inst.n}",
    )


def build_strip(inst: StripInstance, symbreak: bool = False) -> GdpModel:
    """Strip-packing model with one four-way non-overlap disjunction per pair.

    ``x_i`` is the left edge of rectangle ``i`` and ``y_i`` its top edge, so
    boxes read ``x_i in [0, UB - L_i]`` and ``y_i in [H_i, W]``.  The
    disjuncts are sparse left/left/above/above rows (``S_original``); with
    ``symbreak``, the vertical disjuncts also require horizontal overlap,
    removing mirror-image packings (``S_symbreak``).
    """
    n = inst.n
    W, UB = inst.W, inst.UB
    vars_: List[ContinuousVar] = []
    for i, rc in enumerate(inst.rects):
        vars_.append(ContinuousVar(f"x{i}", 0.0, UB - rc.L))
    for i, rc in enumerate(inst.rects):
        vars_.append(ContinuousVar(f"y{i}", rc.H, W))
    area_lb = sum(rc.L * rc.H for rc in inst.rects) / W
    lt_lo = max(max(rc.L for rc in inst.rects), area_lb)
    vars_.append(ContinuousVar("Lt", lt_lo, UB))
    lt = 2 * n
    yv = lambda i: n + i

    bools: List[str] = []
    disjunctions: List[Disjunction] = []
    for i in range(n):
        for j in range(i + 1, n):
            Li, Hi = inst.rects[i].L, inst.rects[i].H
            Lj, Hj = inst.rects[j].L, inst.rects[j].H
            z = []
            for nm in (f"Z1_{i}_{j}", f"Z1_{j}_{i}", f"Z2_{i}_{j}", f"Z2_{j}_{i}"):
                z.append(len(bools))
                bools.append(nm)
            dx = {i: 1.0, j: -1.0}
            ndx = {i: -1.0, j: 1.0}
            dy = {yv(i): 1.0, yv(j): -1.0}
            ndy = {yv(i): -1.0, yv(j): 1.0}

            def row(coeffs: Dict[int, float], rhs: float) -> LinRow:
                return LinRow(dict(coeffs), rhs)

            if not symbreak:
                rows = [
                    [row(dx, -Li)],
                    [row(ndx, -Lj)],
                    [row(ndy, -Hi)],
                    [row(dy, -Hj)],
                ]
            else:
                rows = [
                    [row(dx, -Li)],
                    [row(ndx, -Lj)],
                    [row(ndy, -Hi), row(ndx, Li), row(dx, Lj)],
                    [row(dy, -Hj), row(ndx, Li), row(dx, Lj)],
                ]
            disjunctions.append(
                Disjunction(
                    [Disjunct(z[q], rows[q]) for q in range(4)],
                    label=f"overlap({i},{j})",
                )
            )
    global_rows = [
        LinRow({i: 1.0, lt: -1.0}, -inst.rects[i].L) for i in range(n)
    ]
    return GdpModel(
        vars=vars_,
        bools=bools,
        objective={lt: 1.0},
        global_rows=global_rows,
        disjunctions=disjunctions,
        logic=[],
        name=f"s_{'symbreak' if symbreak else 'original'}_{n}",
    )


Instance = Union[SchedulingInstance, StripInstance]


class Concept(NamedTuple):
    """One entry of ``CONCEPTS``."""

    kind: type  # the instance type the concept models
    build: Callable[[Instance], GdpModel]  # builds the source model
    aligned: bool  # build_model applies align_model to the source model
    rhr: bool  # its disjuncts share a left-hand side as built: RHR runs on it


_build_symbreak = partial(build_strip, symbreak=True)

CONCEPTS: Dict[str, Concept] = {
    "GP": Concept(SchedulingInstance, build_gp, aligned=False, rhr=False),
    "GP_S": Concept(SchedulingInstance, build_gp, aligned=True, rhr=True),
    "IP": Concept(SchedulingInstance, build_ip, aligned=False, rhr=False),
    "TS": Concept(SchedulingInstance, build_ts, aligned=False, rhr=True),
    "S_original": Concept(StripInstance, build_strip, aligned=False, rhr=False),
    "S_symbreak": Concept(StripInstance, _build_symbreak, aligned=False, rhr=False),
    "S0": Concept(StripInstance, build_strip, aligned=True, rhr=True),
    "S1": Concept(StripInstance, _build_symbreak, aligned=True, rhr=True),
}


def check_concept(instance: Instance, concept: str) -> Concept:
    """The table entry of ``concept``; raises ``ValueError`` for an unknown
    name and ``TypeError`` for an instance of the other kind."""
    entry = CONCEPTS.get(concept)
    if entry is None:
        raise ValueError(f"unknown concept {concept!r}; expected one of {sorted(CONCEPTS)}")
    if not isinstance(instance, entry.kind):
        raise TypeError(f"concept {concept} needs a {entry.kind.__name__}")
    return entry


def build_model(instance: Instance, concept: str) -> GdpModel:
    """Build ``concept``'s model of ``instance``.

    An aligned concept is ``align_model`` of its source model: the
    disjuncts of each disjunction share one coefficient matrix (every row
    of any of them, plus ``±x_v`` for each of its variables), with
    right-hand sides equal to the rows' maxima over the disjunct within the
    boxes, and a disjunct that the boxes rule out has its indicator fixed
    at 0 by a logic row.  Raises ``ValueError`` for an unknown concept and
    ``TypeError`` for an instance of the other kind.
    """
    entry = check_concept(instance, concept)
    model = entry.build(instance)
    if entry.aligned:
        model = replace(align_model(model), name=f"{concept.lower()}_{instance.n}")
    return model


def gen_scheduling(n: int, seed: int) -> SchedulingInstance:
    """Seeded random scheduling instance, always feasible.

    ``p ~ U{1..10}``, ``r ~ U{0..2n}``, ``d = r + p + U{0..3n}``; due times
    are then inflated along the earliest-start schedule in release order so
    at least one feasible sequence exists.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    p = rng.integers(1, 11, n)
    r = rng.integers(0, 2 * n + 1, n)
    d = r + p + rng.integers(0, 3 * n + 1, n)
    t = 0
    for i in sorted(range(n), key=lambda i: (r[i], i)):
        t = max(t, int(r[i])) + int(p[i])
        if t > d[i]:
            d[i] = t
    return SchedulingInstance(
        [Job(float(p[i]), float(r[i]), float(d[i])) for i in range(n)]
    )


def gen_strip(n: int, seed: int) -> StripInstance:
    """Seeded random strip instance: sides ``U{1..10}``, W = 10, UB = sum L."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    L = rng.integers(1, 11, n)
    H = rng.integers(1, 11, n)
    return StripInstance([Rect(float(L[i]), float(H[i])) for i in range(n)], W=10.0)
