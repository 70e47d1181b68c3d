"""Reformulation passes from disjunctive programs to flat MILPs.

Three passes are provided:

``reformulate_bigm``
    Relaxes each disjunct row by a big-M term that vanishes when the
    disjunct's indicator is on.  Compact but with a weak LP relaxation.

``reformulate_hull``
    Disaggregates the continuous variables appearing in each disjunction and
    links the copies to the indicators, so the LP relaxation of each
    disjunction is the convex hull of its box-clipped disjuncts.

``reformulate_rhr``
    For disjunctions whose disjuncts share one coefficient matrix and differ
    only in right-hand sides, collapses the hull's disaggregated variables by
    summing the per-disjunct rows, leaving one inequality per shared row with
    an indicator-weighted right-hand side.  Adds no continuous variables.

The passes differ only in the rows they write for a disjunction.  All three
run one loop, ``_lower``: validate the model, copy its variables, indicators,
global rows, logic rows and objective, then, per disjunction, canonicalize
the disjuncts once, let the pass write its rows and add the exclusive-or row
over the indicators.

``align_disjunction`` upgrades a disjunction to the shared-coefficient form:
every disjunct gets every row of the disjunction plus ``±x_v`` for each of
its variables, with right-hand sides equal to the rows' maxima over the
disjunct within the box.  ``align_model`` applies it to the unshared
disjunctions of a model and fixes at 0 the indicator of any disjunct that is
empty within the box.

The reaggregated root equals the hull root when each disjunction is aligned
from difference rows (``x_a - x_b <= c``, ``±x_a <= c``) whose variables
split into factors of at most two variables, as in the general-precedence
and strip-packing models.  With three or more variables in one factor, or
with rows of other forms, it may be weaker.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .model import (
    EQ,
    LE,
    Disjunct,
    Disjunction,
    GdpModel,
    LinRow,
    MilpModel,
    canonicalize_rows,
    validate,
)

Boxes = Mapping[int, Tuple[float, float]]

# A difference-row closure with a cycle below -EMPTY_TOL marks an empty disjunct.
EMPTY_TOL = 1e-9


class SharedLhsViolation(ValueError):
    """A disjunction lacks the shared left-hand-side structure needed for RHR."""


def interval_max(coeffs: Mapping[int, float], boxes: Boxes) -> float:
    """Exact maximum of ``sum(a_v * x_v)`` over the variable boxes."""
    total = 0.0
    for v, a in coeffs.items():
        lo, hi = boxes[v]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"variable {v} has an unbounded box")
        total += a * (hi if a > 0 else lo)
    return total


def big_m_bound(row: LinRow, boxes: Boxes) -> float:
    """Maximum violation of a ``<=`` row over the variable boxes.

    Returns ``max_x (a^T x - rhs)``, which may be negative when the row can
    never be violated inside the box; the big-M pass clamps at zero.
    """
    if row.sense != LE:
        raise ValueError("big_m_bound expects a canonical <= row")
    return interval_max(row.coeffs, boxes) - row.rhs


def _coeff_key(row: LinRow) -> tuple:
    return tuple(sorted(row.coeffs.items()))


def shared_lhs(disjunction: Disjunction) -> bool:
    """True iff all disjuncts carry identical coefficient matrices.

    Rows are canonicalized first; the comparison is positional and requires
    exact coefficient equality (no rescaling detection).
    """
    return _same_lhs([canonicalize_rows(d).rows for d in disjunction.disjuncts])


def _same_lhs(canon: Sequence[Sequence[LinRow]]) -> bool:
    """True iff all disjuncts' canonical rows have the same coefficient vectors."""
    first = [_coeff_key(r) for r in canon[0]]
    return all([_coeff_key(r) for r in rows] == first for rows in canon[1:])


def _difference_form(
    coeffs: Mapping[int, float]
) -> Optional[Tuple[Optional[int], Optional[int], float]]:
    """Read a row as ``t * (x_a - x_b)`` with ``t > 0``.

    ``None`` in place of ``a`` or ``b`` stands for the constant zero, so
    ``x_a <= c`` and ``-x_b <= c`` are difference rows too.  Returns ``None``
    when the row has any other form.
    """
    items = sorted(coeffs.items())
    if len(items) == 1:
        ((v, a),) = items
        return (v, None, a) if a > 0 else (None, v, -a)
    if len(items) == 2:
        (u, a), (v, b) = items
        if a == -b:
            return (u, v, a) if a > 0 else (v, u, b)
    return None


def _difference_closure(
    rows: Sequence[LinRow], dvars: Sequence[int], boxes: Boxes
) -> Optional[Dict[Tuple[Optional[int], Optional[int]], float]]:
    """Tightest bounds ``x_a - x_b <= D[a, b]`` implied by a disjunct's
    difference rows and the box.

    Floyd-Warshall over the variables plus a zero node (key ``None``).  The
    bounds are the exact maxima over the disjunct within the box when every
    row is a difference row.  Returns ``None`` on a negative cycle, that is
    when the difference rows admit no point of the box.
    """
    nodes: List[Optional[int]] = list(dvars) + [None]
    dist = {(a, b): 0.0 if a == b else math.inf for a in nodes for b in nodes}
    for v in dvars:
        lo, hi = boxes[v]
        dist[v, None] = hi
        dist[None, v] = -lo
    for r in rows:
        form = _difference_form(r.coeffs)
        if form is not None:
            a, b, t = form
            dist[a, b] = min(dist[a, b], r.rhs / t)
    for m in nodes:
        for a in nodes:
            for b in nodes:
                if dist[a, m] + dist[m, b] < dist[a, b]:
                    dist[a, b] = dist[a, m] + dist[m, b]
    if any(dist[v, v] < -EMPTY_TOL for v in nodes):
        return None
    return dist


def _align(disjunction: Disjunction, boxes: Boxes) -> Tuple[Disjunction, List[int]]:
    """``align_disjunction`` plus the indicators of the empty disjuncts."""
    canon = [canonicalize_rows(d) for d in disjunction.disjuncts]
    dvars = sorted({v for d in canon for r in d.rows for v in r.coeffs})
    keys = {_coeff_key(r) for d in canon for r in d.rows}
    keys.update(((v, s),) for v in dvars for s in (1.0, -1.0))
    aligned: List[Disjunct] = []
    empty: List[int] = []
    for d in canon:
        own: Dict[tuple, float] = {}
        for r in d.rows:
            k = _coeff_key(r)
            own[k] = min(own.get(k, math.inf), r.rhs)
        closure = _difference_closure(d.rows, dvars, boxes)
        if closure is None:
            empty.append(d.indicator)
        rows = []
        for k in sorted(keys):
            coeffs = dict(k)
            form = _difference_form(coeffs)
            if closure is None or form is None:
                bound = interval_max(coeffs, boxes)
            else:
                a, b, t = form
                bound = t * closure[a, b]
            # "+ 0.0" turns a -0.0 bound into 0.0
            rows.append(LinRow(coeffs, min(own.get(k, math.inf), bound) + 0.0, LE))
        aligned.append(Disjunct(d.indicator, rows))
    return Disjunction(aligned, disjunction.label), empty


def align_disjunction(disjunction: Disjunction, boxes: Boxes) -> Disjunction:
    """Give all disjuncts one shared coefficient matrix with support-value
    right-hand sides.

    The shared matrix holds every coefficient vector found in any disjunct,
    plus ``+x_v`` and ``-x_v`` for every variable of the disjunction.  Each
    disjunct ``D_j`` receives every row with right-hand side
    ``max{a^T x : x in B ∩ D_j}`` (``B`` the box), computed without an LP by
    a shortest-path closure over ``D_j``'s difference rows
    (``x_a - x_b <= c`` and ``±x_a <= c``, up to a positive scale) and the
    box.  The value is exact for difference rows when all of ``D_j``'s rows
    are difference rows.  Rows of any other form get the smaller of the
    disjunct's own right-hand side and the row's interval maximum over the
    box; they are valid but carry no exactness guarantee, and neither do
    difference rows in a disjunct that also has such rows.

    When the closure finds ``B ∩ D_j`` empty, ``D_j`` keeps its own rows and
    gets interval maxima for the rest; its indicator must then be fixed at
    0, which :func:`align_model` does with a logic row.  The hull pass
    forces that indicator to 0 in the LP relaxation by itself.

    Every aligned disjunct has the same feasible set within the box as
    before, the result satisfies ``shared_lhs``, and the operation is
    idempotent.
    """
    return _align(disjunction, boxes)[0]


def align_model(model: GdpModel) -> GdpModel:
    """Apply :func:`align_disjunction` to every disjunction of ``model``
    that does not share a left-hand side.

    Each disjunct found empty within the box gets a logic row fixing its
    indicator at 0.  Disjunctions that already share a left-hand side are
    kept as they are.  Returns a new model; ``model`` is not modified.
    """
    boxes = model.boxes()
    disjunctions: List[Disjunction] = []
    logic = list(model.logic)
    for disj in model.disjunctions:
        if not shared_lhs(disj):
            disj, empty = _align(disj, boxes)
            logic.extend(LinRow({y: 1}, 0, LE) for y in empty)
        disjunctions.append(disj)
    return replace(model, disjunctions=disjunctions, logic=logic)


def _lower(model: GdpModel, pass_name: str, emit: Callable[..., None]) -> MilpModel:
    """The loop every pass shares (see the module docstring).  For each
    disjunction, ``emit(b, tag, canon, ys)`` gets the MILP being built, the
    disjunction's tag, each disjunct's canonical rows and indicator column."""
    # a global looked up on each call, so a wrapper of gldp.reformulate.validate sees it
    diags = validate(model)
    if diags:
        raise ValueError("invalid model: " + "; ".join(diags))
    b = MilpModel(name=f"{model.name or 'model'}_{pass_name}")
    for v in model.vars:
        b.add_cont(v.name, v.lower, v.upper)
    ymap = [b.add_bin(nm) for nm in model.bools]
    for gi, row in enumerate(model.global_rows):
        b.add_row(row.coeffs, row.sense, row.rhs, f"global[{gi}]")
    for li, row in enumerate(model.logic):
        b.add_row({ymap[v]: a for v, a in row.coeffs.items()}, row.sense, row.rhs, f"logic[{li}]")
    b.objective = {v: float(a) for v, a in model.objective.items()}
    for k, disj in enumerate(model.disjunctions):
        tag = f"d{k}" + (f"({disj.label})" if disj.label else "")
        canon = [canonicalize_rows(d).rows for d in disj.disjuncts]
        ys = [ymap[d.indicator] for d in disj.disjuncts]
        emit(b, tag, canon, ys)
        b.add_row(dict.fromkeys(ys, 1.0), EQ, 1.0, f"{pass_name}:{tag}:xor")
    return b


def reformulate_bigm(model: GdpModel) -> MilpModel:
    """Big-M reformulation.

    Each disjunct row ``a^T x <= rhs`` becomes ``a^T x - rhs <= M (1 - y)``
    with ``M`` the row's maximum violation over the box, clamped at zero, plus
    one assignment equality per disjunction.  No continuous variables are
    added.
    """
    boxes = model.boxes()

    def emit(b: MilpModel, tag: str, canon: List[List[LinRow]], ys: List[int]) -> None:
        for j, (rows, y) in enumerate(zip(canon, ys)):
            for ri, row in enumerate(rows):
                m = max(0.0, big_m_bound(row, boxes))
                coeffs = dict(row.coeffs)
                coeffs[y] = m
                b.add_row(coeffs, LE, row.rhs + m, f"bigm:{tag}:j{j}:r{ri}")

    return _lower(model, "bigm", emit)


def reformulate_hull(model: GdpModel) -> MilpModel:
    """Hull reformulation via variable disaggregation.

    Only variables that actually appear in a disjunction's rows are
    disaggregated for that disjunction; variables with zero coefficients
    would contribute vacuous copies.
    """

    def emit(b: MilpModel, tag: str, canon: List[List[LinRow]], ys: List[int]) -> None:
        dvars = sorted({v for rows in canon for r in rows for v in r.coeffs})
        copies: Dict[Tuple[int, int], int] = {}
        for j, (rows, y) in enumerate(zip(canon, ys)):
            for v in dvars:
                var = model.vars[v]
                lo, hi = min(var.lower, 0.0), max(var.upper, 0.0)
                copies[j, v] = b.add_cont(f"{var.name}__{tag}_j{j}", lo, hi)
            for ri, row in enumerate(rows):
                coeffs = {copies[j, v]: a for v, a in row.coeffs.items()}
                coeffs[y] = -row.rhs
                b.add_row(coeffs, LE, 0.0, f"hull:{tag}:j{j}:r{ri}")
            for v in dvars:
                var, xh = model.vars[v], copies[j, v]
                b.add_row({xh: 1.0, y: -var.upper}, LE, 0.0, f"hull:{tag}:j{j}:ub[{v}]")
                b.add_row({xh: -1.0, y: var.lower}, LE, 0.0, f"hull:{tag}:j{j}:lb[{v}]")
        for v in dvars:
            coeffs = {v: 1.0}
            for j in range(len(canon)):
                coeffs[copies[j, v]] = -1.0
            b.add_row(coeffs, EQ, 0.0, f"hull:{tag}:agg[{v}]")

    return _lower(model, "hull", emit)


def reformulate_rhr(model: GdpModel) -> MilpModel:
    """Reaggregated hull reformulation for shared-coefficient disjunctions.

    Emits one row per shared coefficient vector, ``a^T x <= sum_j rhs_j y_j``,
    plus the assignment equality.  The MILP has exactly as many continuous
    variables as the input model.  Disjunctions failing ``shared_lhs`` raise
    :class:`SharedLhsViolation`; call ``reformulate_rhr(align_model(model))``
    to reach the shared form first.  The aligned concepts GP_S, S0 and S1
    are built that way, so their models pass here as built.

    The LP relaxation equals the hull pass's when, in every disjunction, the
    right-hand sides are the support values of the box-clipped disjuncts,
    the shared matrix holds every edge normal of those disjuncts, and the
    rows split into factors of at most two variables (for fixed indicator
    values both passes then describe the same Minkowski sum).  Aligned
    difference-row disjunctions such as ``build_gp``'s and ``build_strip``'s
    meet these conditions; otherwise the relaxation may be weaker than the
    hull's.
    """

    def emit(b: MilpModel, tag: str, canon: List[List[LinRow]], ys: List[int]) -> None:
        if not _same_lhs(canon):
            raise SharedLhsViolation(
                f"disjunction {tag} does not share a left-hand side; align it first"
            )
        for ri, row in enumerate(canon[0]):
            coeffs = dict(row.coeffs)
            for rows, y in zip(canon, ys):
                coeffs[y] = -rows[ri].rhs
            b.add_row(coeffs, LE, 0.0, f"rhr:{tag}:r{ri}")

    return _lower(model, "rhr", emit)
