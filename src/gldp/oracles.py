"""Brute-force ground truth for small instances and geometric hull checks.

These oracles are deliberately independent of the reformulation passes and
of any LP machinery: scheduling optima come from exhaustive sequence
enumeration, packing optima from exhaustive relation assignments evaluated
with longest-path reasoning on difference constraints, and hull membership
(``hull_oracle_1d2d``) from direct vertex enumeration of the disjunct
polygons.  ``rhr_relaxation_mask`` is not an oracle: it is the reformulation
under test, running ``align_model``, ``reformulate_rhr`` and an ``LpEngine``,
and its mask is checked against ``hull_oracle_1d2d`` with
``masks_agree_within_band``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import Disjunction, GdpModel, LinRow, canonicalize_rows
from .builders import SchedulingInstance, StripInstance

SCHED_ORACLE_MAX = 9
STRIP_ORACLE_MAX = 5

# Pairwise placement relations, in enumeration order.
REL_LEFT_IJ, REL_LEFT_JI, REL_ABOVE_IJ, REL_ABOVE_JI = range(4)


@dataclass(frozen=True)
class ScheduleWitness:
    sequence: Tuple[int, ...]
    starts: Tuple[float, ...]


@dataclass(frozen=True)
class PackingWitness:
    relations: Tuple[int, ...]  # one relation code per pair, pairs in (i<j) order
    positions: Tuple[Tuple[float, float], ...]  # (left edge, top edge)


@dataclass(frozen=True)
class OracleResult:
    """Optimum (``inf`` when infeasible) plus an attaining witness."""

    optimum: float
    witness: Optional[object]


def sched_oracle(inst: SchedulingInstance) -> OracleResult:
    """Exact makespan by enumerating all job sequences.

    For a fixed sequence the earliest-start schedule (each job starts at the
    later of its release and the previous completion) pointwise-minimizes
    every start time; the makespan is monotone in start times, so
    earliest-start is optimal per sequence and enumeration over sequences is
    exact.
    """
    n = inst.n
    if n > SCHED_ORACLE_MAX:
        raise ValueError(f"oracle limited to {SCHED_ORACLE_MAX} jobs, got {n}")
    best = math.inf
    witness: Optional[ScheduleWitness] = None
    for perm in itertools.permutations(range(n)):
        t = 0.0
        starts = [0.0] * n
        ok = True
        for i in perm:
            job = inst.jobs[i]
            s = max(t, job.r)
            if s + job.p > job.d + 1e-9:
                ok = False
                break
            starts[i] = s
            t = s + job.p
        if ok and t < best - 1e-12:
            best = t
            witness = ScheduleWitness(perm, tuple(starts))
    return OracleResult(best, witness)


class _DiffSystem:
    """Incremental least/greatest solutions of monotone difference constraints.

    ``tighten(u, v, w)`` adds ``val[v] >= val[u] + w`` in the ``>=`` mode used
    for x coordinates (least solution, values pushed up) and returns False if
    any value leaves its cap.  Changes are journaled so the enclosing search
    can backtrack.
    """

    def __init__(self, start: Sequence[float], cap: Sequence[float], up: bool):
        self.val = list(start)
        self.cap = list(cap)
        self.up = up
        self.edges: List[List[Tuple[int, float]]] = [[] for _ in start]
        self.journal: List[Tuple[str, int, object]] = []

    def mark(self) -> int:
        return len(self.journal)

    def undo(self, mark: int) -> None:
        while len(self.journal) > mark:
            kind, idx, old = self.journal.pop()
            if kind == "val":
                self.val[idx] = old  # type: ignore[assignment]
            else:
                self.edges[idx].pop()

    def _ok(self, v: int) -> bool:
        return self.val[v] <= self.cap[v] + 1e-9 if self.up else self.val[v] >= self.cap[v] - 1e-9

    def tighten(self, u: int, v: int, w: float) -> bool:
        self.journal.append(("edge", u, None))
        self.edges[u].append((v, w))
        queue = [u]
        while queue:
            a = queue.pop()
            for b, wt in self.edges[a]:
                cand = self.val[a] + wt if self.up else self.val[a] - wt
                better = cand > self.val[b] + 1e-12 if self.up else cand < self.val[b] - 1e-12
                if better:
                    self.journal.append(("val", b, self.val[b]))
                    self.val[b] = cand
                    if not self._ok(b):
                        return False
                    queue.append(b)
        return True


def strip_oracle(inst: StripInstance) -> OracleResult:
    """Exact strip length by enumerating pairwise placement relations.

    Each of the four relations per pair fixes one difference constraint; for
    a full assignment the least x positions (and greatest y tops) come from
    propagating the constraints, so the assignment's best length is
    ``max(x_i + L_i)`` with no linear programming involved.  Subtrees whose
    partial propagation already violates a box, or cannot improve the best
    length found, are skipped; both prunings are exact.
    """
    n = inst.n
    if n > STRIP_ORACLE_MAX:
        raise ValueError(f"oracle limited to {STRIP_ORACLE_MAX} rectangles, got {n}")
    rects = inst.rects
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    xs = _DiffSystem([0.0] * n, [inst.UB - rc.L for rc in rects], up=True)
    ys = _DiffSystem([inst.W] * n, [rc.H for rc in rects], up=False)

    best = math.inf
    best_witness: Optional[PackingWitness] = None
    chosen: List[int] = []

    def length() -> float:
        return max(xs.val[i] + rects[i].L for i in range(n))

    def apply(rel: int, i: int, j: int) -> bool:
        if rel == REL_LEFT_IJ:
            return xs.tighten(i, j, rects[i].L)
        if rel == REL_LEFT_JI:
            return xs.tighten(j, i, rects[j].L)
        if rel == REL_ABOVE_IJ:
            return ys.tighten(i, j, rects[i].H)
        return ys.tighten(j, i, rects[j].H)

    def search(depth: int) -> None:
        nonlocal best, best_witness
        if length() >= best - 1e-12:
            return
        if depth == len(pairs):
            best = length()
            best_witness = PackingWitness(
                tuple(chosen), tuple((xs.val[i], ys.val[i]) for i in range(n))
            )
            return
        i, j = pairs[depth]
        for rel in range(4):
            mx, my = xs.mark(), ys.mark()
            chosen.append(rel)
            if apply(rel, i, j):
                search(depth + 1)
            chosen.pop()
            xs.undo(mx)
            ys.undo(my)

    search(0)
    return OracleResult(best, best_witness)


def _disjunct_interval(
    rows: Sequence[LinRow], var: int, box: Tuple[float, float]
) -> Optional[Tuple[float, float]]:
    lo, hi = box
    for row in rows:
        a = row.coeffs.get(var, 0.0)
        if a > 0:
            hi = min(hi, row.rhs / a)
        elif a < 0:
            lo = max(lo, row.rhs / a)
    return None if lo > hi + 1e-9 else (lo, hi)


def _clip_polygon(
    poly: List[Tuple[float, float]], a: Tuple[float, float], b: float
) -> List[Tuple[float, float]]:
    """Sutherland-Hodgman clip of a convex polygon by ``a . p <= b``."""
    out: List[Tuple[float, float]] = []
    eps = 1e-9
    m = len(poly)
    for idx in range(m):
        p, q = poly[idx], poly[(idx + 1) % m]
        fp = a[0] * p[0] + a[1] * p[1] - b
        fq = a[0] * q[0] + a[1] * q[1] - b
        if fp <= eps:
            out.append(p)
        if (fp < -eps and fq > eps) or (fp > eps and fq < -eps):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _convex_hull(points: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Monotone-chain hull, counterclockwise, without repeated endpoints."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[Tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-12:
            lower.pop()
        lower.append(p)
    upper: List[Tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-12:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _point_in_hull(pt: Tuple[float, float], hull: List[Tuple[float, float]], tol: float) -> bool:
    if not hull:
        return False
    if len(hull) == 1:
        return abs(pt[0] - hull[0][0]) <= tol and abs(pt[1] - hull[0][1]) <= tol
    if len(hull) == 2:
        (x1, y1), (x2, y2) = hull
        dx, dy = x2 - x1, y2 - y1
        t = ((pt[0] - x1) * dx + (pt[1] - y1) * dy) / max(dx * dx + dy * dy, 1e-30)
        t = min(1.0, max(0.0, t))
        px, py = x1 + t * dx, y1 + t * dy
        return math.hypot(pt[0] - px, pt[1] - py) <= tol
    for idx in range(len(hull)):
        a, b = hull[idx], hull[(idx + 1) % len(hull)]
        cross = (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0])
        if cross < -tol:
            return False
    return True


@dataclass(frozen=True)
class HullMask:
    """Grid sampling of conv(union of disjunct sets) over the variable box."""

    var_ids: Tuple[int, ...]
    axes: Tuple[np.ndarray, ...]
    mask: np.ndarray


def hull_oracle_1d2d(
    disjunction: Disjunction,
    boxes: Dict[int, Tuple[float, float]],
    resolution: int = 64,
) -> HullMask:
    """Grid mask of the convex hull of the union of box-clipped disjuncts.

    Supports one or two continuous dimensions.  In one dimension each
    disjunct reduces to an interval and the hull spans the union; in two the
    box rectangle is clipped by each disjunct's rows and the hull of all
    polygon vertices is enumerated directly.  ``resolution`` is the number of
    grid cells per axis (cell width h = box width / resolution).
    """
    canon = [canonicalize_rows(d) for d in disjunction.disjuncts]
    var_ids = tuple(sorted({v for d in canon for r in d.rows for v in r.coeffs}))
    if not 1 <= len(var_ids) <= 2:
        raise ValueError(f"hull oracle supports 1 or 2 dimensions, got {len(var_ids)}")
    axes = tuple(
        np.linspace(boxes[v][0], boxes[v][1], resolution + 1) for v in var_ids
    )
    scale = max(abs(boxes[v][0]) + abs(boxes[v][1]) for v in var_ids) + 1.0
    tol = 1e-9 * scale

    if len(var_ids) == 1:
        v = var_ids[0]
        intervals = [
            iv
            for d in canon
            if (iv := _disjunct_interval(d.rows, v, boxes[v])) is not None
        ]
        mask = np.zeros(axes[0].shape, dtype=bool)
        if intervals:
            lo = min(iv[0] for iv in intervals)
            hi = max(iv[1] for iv in intervals)
            mask = (axes[0] >= lo - tol) & (axes[0] <= hi + tol)
        return HullMask(var_ids, axes, mask)

    vx, vy = var_ids
    (x0, x1), (y0, y1) = boxes[vx], boxes[vy]
    box_poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    vertices: List[Tuple[float, float]] = []
    for d in canon:
        poly = box_poly
        for row in d.rows:
            a = (row.coeffs.get(vx, 0.0), row.coeffs.get(vy, 0.0))
            poly = _clip_polygon(poly, a, row.rhs)
            if not poly:
                break
        vertices.extend(poly)
    hull = _convex_hull(vertices)
    mask = np.zeros((axes[0].size, axes[1].size), dtype=bool)
    for ix, xv in enumerate(axes[0]):
        for iy, yv in enumerate(axes[1]):
            mask[ix, iy] = _point_in_hull((xv, yv), hull, tol)
    return HullMask(var_ids, axes, mask)


def rhr_relaxation_mask(
    disjunction: Disjunction,
    boxes: Dict[int, Tuple[float, float]],
    resolution: int = 64,
) -> HullMask:
    """Grid mask of the reaggregated reformulation's LP-feasible x set.

    Builds a one-disjunction model over the same boxes, reaggregates it as
    ``reformulate_rhr(align_model(model))`` (alignment gives support-value
    right-hand sides to a disjunction that already shares a left-hand side
    too), compiles its LP once into a :class:`~gldp.milp.LpEngine`, and
    re-solves that engine with the continuous variables pinned to each grid
    point in turn; a point is in the mask when its LP is feasible.
    """
    from .model import ContinuousVar, Disjunct, GdpModel
    from .reformulate import align_model, reformulate_rhr
    from .milp import LpEngine

    canon = [canonicalize_rows(d) for d in disjunction.disjuncts]
    var_ids = tuple(sorted({v for d in canon for r in d.rows for v in r.coeffs}))
    if not 1 <= len(var_ids) <= 2:
        raise ValueError(f"mask supports 1 or 2 dimensions, got {len(var_ids)}")
    remap = {v: i for i, v in enumerate(var_ids)}
    vars_ = [ContinuousVar(f"v{v}", boxes[v][0], boxes[v][1]) for v in var_ids]
    nb = max(d.indicator for d in disjunction.disjuncts) + 1
    disj = Disjunction(
        [
            Disjunct(
                d.indicator,
                [
                    LinRow({remap[v]: a for v, a in r.coeffs.items()}, r.rhs, r.sense)
                    for r in d.rows
                ],
            )
            for d in canon
        ],
        disjunction.label,
    )
    model = GdpModel(
        vars=vars_,
        bools=[f"y{b}" for b in range(nb)],
        objective={},
        global_rows=[],
        disjunctions=[disj],
        logic=[],
        name="hullcheck",
    )
    milp = reformulate_rhr(align_model(model))
    axes = tuple(
        np.linspace(boxes[v][0], boxes[v][1], resolution + 1) for v in var_ids
    )
    engine = LpEngine(milp)
    lower, upper = engine.lower.copy(), engine.upper.copy()
    mask = np.zeros(tuple(a.size for a in axes), dtype=bool)
    for idx in np.ndindex(mask.shape):
        for i, k in enumerate(idx):
            lower[i] = upper[i] = axes[i][k]
        mask[idx] = engine.solve(lower, upper).status == "optimal"
    return HullMask(var_ids, axes, mask)


def masks_agree_within_band(reference: np.ndarray, other: np.ndarray, band: int = 2) -> bool:
    """True when the masks differ only within ``band`` cells of the
    reference mask's boundary."""
    from scipy.ndimage import binary_dilation

    if reference.shape != other.shape:
        raise ValueError("mask shapes differ")
    disagree = reference != other
    if not disagree.any():
        return True
    boundary = np.zeros_like(reference)
    for axis in range(reference.ndim):
        a = np.swapaxes(reference, 0, axis)
        edge = np.swapaxes(boundary, 0, axis)
        diff = a[1:] != a[:-1]
        edge[1:] |= diff
        edge[:-1] |= diff
    allowed = binary_dilation(
        boundary, structure=np.ones((3,) * reference.ndim, dtype=bool), iterations=band
    )
    return bool(np.all(allowed[disagree]))
