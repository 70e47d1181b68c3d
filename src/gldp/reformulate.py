"""Reformulation passes from disjunctive programs to flat MILPs.

Three passes are provided:

``reformulate_bigm``
    Relaxes each disjunct row by a big-M term that vanishes when the
    disjunct's indicator is on.  Compact but with a weak LP relaxation.

``reformulate_hull``
    Disaggregates the continuous variables of each disjunction and links the
    copies to the indicators, so the LP relaxation of each disjunction is the
    convex hull of its box-clipped disjuncts.  A disjunct gets a copy only of
    the variables its written rows use; the copies it would have of the
    others are projected out of the aggregation rows.

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

No pass writes a disjunct row that the variable boxes already imply, that is
a row ``a^T x <= rhs`` with ``rhs >= interval_max(a)``: such a row cuts
nothing from any pass's LP relaxation (see each pass).  Aligned disjuncts
carry many of them.  Rows implied only by other rows of the disjunct are
still written.

``align_model`` brings every disjunction of a model to the shared-coefficient
form: every disjunct gets every row of its disjunction plus ``±x_v`` for each
of its variables, with right-hand sides equal to the rows' maxima over the
disjunct within the box, and the indicator of any disjunct that is empty
within the box is fixed at 0.  It is the one way to that form; it aligns a
disjunction that already shares a left-hand side too, because sharing alone
does not make the right-hand sides support values.

The reaggregated root equals the hull root when each disjunction is aligned
from difference rows (``x_a - x_b <= c``, ``±x_a <= c``) whose variables
split into factors of at most two variables, as in the general-precedence
and strip-packing models.  With three or more variables in one factor, or
with rows of other forms, it may be weaker.  A left-hand side shared as
built is not enough: RHR on the time-slot model (``build_ts``) equals the
hull along the makespan, but not as a set until ``align_model`` aligns it.
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

    Returns ``max_x (a^T x - rhs)``, which is at most zero when the row can
    never be violated inside the box; the big-M pass writes no such row.
    """
    if row.sense != LE:
        raise ValueError("big_m_bound expects a canonical <= row")
    return interval_max(row.coeffs, boxes) - row.rhs


def _interval_maxima(canon: Sequence[Sequence[LinRow]], boxes: Boxes) -> Dict[int, float]:
    """``interval_max`` of each coefficient dict of a disjunction's rows,
    keyed by the dict's ``id``: aligned disjuncts share one dict per row, so
    each is computed once per disjunction, not once per disjunct."""
    tops: Dict[int, float] = {}
    for rows in canon:
        for r in rows:
            if id(r.coeffs) not in tops:
                tops[id(r.coeffs)] = interval_max(r.coeffs, boxes)
    return tops


def _with_nonzero(coeffs: Dict[int, float], col: int, a: float) -> Dict[int, float]:
    """``coeffs`` with the coefficient ``a`` on ``col`` unless ``a`` is
    zero: no pass writes a zero coefficient."""
    if a != 0.0:
        coeffs[col] = a
    return coeffs


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
    pos = {v: i for i, v in enumerate(nodes)}
    n, zero = len(nodes), len(nodes) - 1
    d = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for i, v in enumerate(dvars):
        d[i][zero], d[zero][i] = boxes[v][1], -boxes[v][0]
    for r in rows:
        form = _difference_form(r.coeffs)
        if form is not None:
            a, b, t = form
            i, j = pos[a], pos[b]
            d[i][j] = min(d[i][j], r.rhs / t)
    for m in range(n):
        dm = d[m]
        for da in d:
            if da[m] == math.inf:
                continue
            # da[m] is read on each step: on a negative cycle through m it
            # changes during the sweep.
            for b, dmb in enumerate(dm):
                if da[m] + dmb < da[b]:
                    da[b] = da[m] + dmb
    if any(d[i][i] < -EMPTY_TOL for i in range(n)):
        return None
    return {(a, b): d[i][j] for i, a in enumerate(nodes) for j, b in enumerate(nodes)}


def _align(canon: Sequence[Disjunct], label: str, boxes: Boxes) -> Tuple[Disjunction, List[int]]:
    """One disjunction of canonical disjuncts aligned as :func:`align_model`
    describes, plus the indicators of its empty disjuncts."""
    dvars = sorted({v for d in canon for r in d.rows for v in r.coeffs})
    keys = {_coeff_key(r) for d in canon for r in d.rows}
    keys.update(((v, s),) for v in dvars for s in (1.0, -1.0))
    # Per shared row, once per disjunction: its key, coefficients (one dict
    # for every disjunct), difference form and interval maximum.
    shared = []
    for k in sorted(keys):
        coeffs = dict(k)
        shared.append((k, coeffs, _difference_form(coeffs), interval_max(coeffs, boxes)))
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
        for k, coeffs, form, bound in shared:
            if closure is not None and form is not None:
                a, b, t = form
                bound = t * closure[a, b]
            # "+ 0.0" turns a -0.0 bound into 0.0
            rows.append(LinRow(coeffs, min(own.get(k, math.inf), bound) + 0.0, LE))
        aligned.append(Disjunct(d.indicator, rows))
    return Disjunction(aligned, label), empty


def align_model(model: GdpModel) -> GdpModel:
    """Give the disjuncts of every disjunction of ``model`` one shared
    coefficient matrix with support-value right-hand sides.

    A disjunction's shared matrix holds every coefficient vector found in
    any of its disjuncts, plus ``+x_v`` and ``-x_v`` for every variable of
    the disjunction.  Each disjunct ``D_j`` receives every row with
    right-hand side ``max{a^T x : x in B ∩ D_j}`` (``B`` the box), computed
    without an LP by a shortest-path closure over ``D_j``'s difference rows
    (``x_a - x_b <= c`` and ``±x_a <= c``, up to a positive scale) and the
    box.  The value is exact for difference rows when all of ``D_j``'s rows
    are difference rows.  Rows of any other form get the smaller of the
    disjunct's own right-hand side and the row's interval maximum over the
    box; they are valid but carry no exactness guarantee, and neither do
    difference rows in a disjunct that also has such rows.  A disjunction
    that already shares a left-hand side is aligned too: its right-hand
    sides need not be support values.

    When the closure finds ``B ∩ D_j`` empty, ``D_j`` keeps its own rows and
    gets interval maxima for the rest, and a logic row ``y_j <= 0`` fixes
    its indicator at 0 unless one already does.  (The hull pass forces that
    indicator to 0 in the LP relaxation by itself.)

    Every aligned disjunct has the same feasible set within the box as
    before, every disjunction of the result satisfies ``shared_lhs``, and
    ``align_model(align_model(m)) == align_model(m)``.  An invalid model
    raises ``ValueError``, as in the passes.  Returns a new model; ``model``
    is not modified.
    """
    _reject_invalid(model)
    boxes = model.boxes()
    disjunctions: List[Disjunction] = []
    logic = list(model.logic)
    fixed = {y for r in logic for y in r.coeffs if r == LinRow({y: 1}, 0, LE)}
    for disj in model.disjunctions:
        canon = [canonicalize_rows(d) for d in disj.disjuncts]
        disj, empty = _align(canon, disj.label, boxes)
        logic.extend(LinRow({y: 1}, 0, LE) for y in empty if y not in fixed)
        disjunctions.append(disj)
    return replace(model, disjunctions=disjunctions, logic=logic)


def _reject_invalid(model: GdpModel) -> None:
    """Raise ``ValueError`` with every diagnostic of ``validate(model)``."""
    # a global looked up on each call, so a wrapper of gldp.reformulate.validate sees it
    diags = validate(model)
    if diags:
        raise ValueError("invalid model: " + "; ".join(diags))


def _lower(model: GdpModel, pass_name: str, emit: Callable[..., None]) -> MilpModel:
    """The loop every pass shares (see the module docstring).  For each
    disjunction, ``emit(b, tag, canon, ys)`` gets the MILP being built, the
    disjunction's tag, each disjunct's canonical rows and indicator column.
    Global and logic rows are written with float, nonzero coefficients, as
    the passes write theirs."""
    _reject_invalid(model)
    b = MilpModel(name=f"{model.name or 'model'}_{pass_name}")
    for v in model.vars:
        b.add_cont(v.name, v.lower, v.upper)
    ymap = [b.add_bin(nm) for nm in model.bools]
    for gi, row in enumerate(model.global_rows):
        coeffs = {v: float(a) for v, a in row.coeffs.items() if a != 0.0}
        b.add_row(coeffs, row.sense, float(row.rhs), f"global[{gi}]")
    for li, row in enumerate(model.logic):
        coeffs = {ymap[v]: float(a) for v, a in row.coeffs.items() if a != 0.0}
        b.add_row(coeffs, row.sense, float(row.rhs), f"logic[{li}]")
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
    with ``M = big_m_bound(row)`` the row's maximum violation over the box,
    plus one assignment equality per disjunction.  A row with ``M <= 0``
    holds everywhere in the box and is not written.  No continuous
    variables are added.
    """
    boxes = model.boxes()

    def emit(b: MilpModel, tag: str, canon: List[List[LinRow]], ys: List[int]) -> None:
        tops = _interval_maxima(canon, boxes)
        for j, (rows, y) in enumerate(zip(canon, ys)):
            for ri, row in enumerate(rows):
                m = tops[id(row.coeffs)] - row.rhs  # big_m_bound(row, boxes)
                if m <= 0.0:
                    continue
                coeffs = dict(row.coeffs)
                coeffs[y] = m
                b.add_row(coeffs, LE, row.rhs + m, f"bigm:{tag}:j{j}:r{ri}")

    return _lower(model, "bigm", emit)


def reformulate_hull(model: GdpModel) -> MilpModel:
    """Hull reformulation via variable disaggregation.

    Each copy ``x^j`` is linked to its indicator by ``lower * y_j <= x^j <=
    upper * y_j``, so a disjunct row with ``rhs >= interval_max(a)`` is
    implied in its homogenized form ``a^T x^j <= rhs * y_j`` and is not
    written.  A side of that link with a zero bound is not written either:
    it repeats the copy's column bound ``[min(lower, 0), max(upper, 0)]``.
    Disjunct ``j`` gets a copy of a variable only when one of its written
    rows uses it.  A variable ``x`` with a copy in every disjunct is
    their sum, ``x = sum_j x^j``.  Where disjuncts ``R`` have no copy of
    ``x``, the missing copies would appear only in their box rows and in
    that sum, so they are projected out (Fourier-Motzkin): ``lower * sum_R
    y_j <= x - sum_{j not in R} x^j <= upper * sum_R y_j``.  The LP
    relaxation in the model's variables and indicators is unchanged, and per
    disjunction it is still the convex hull of the box-clipped disjuncts
    (Balas 1998).
    """
    boxes = model.boxes()

    def emit(b: MilpModel, tag: str, canon: List[List[LinRow]], ys: List[int]) -> None:
        tops = _interval_maxima(canon, boxes)
        copies: List[Dict[int, int]] = []  # per disjunct: variable -> its copy
        for j, (rows, y) in enumerate(zip(canon, ys)):
            written = [(ri, r) for ri, r in enumerate(rows) if r.rhs < tops[id(r.coeffs)]]
            own: Dict[int, int] = {}
            for v in sorted({v for _, r in written for v in r.coeffs}):
                var = b.variables[v]  # model.vars[v], with float bounds
                lo, hi = min(var.lower, 0.0), max(var.upper, 0.0)
                own[v] = b.add_cont(f"{var.name}__{tag}_j{j}", lo, hi)
            copies.append(own)
            for ri, row in written:
                coeffs = {own[v]: a for v, a in row.coeffs.items()}
                b.add_row(_with_nonzero(coeffs, y, -row.rhs), LE, 0.0, f"hull:{tag}:j{j}:r{ri}")
            for v, xh in own.items():
                var = b.variables[v]
                # a zero bound is the copy's column bound: no row repeats it
                if var.upper != 0.0:
                    b.add_row({xh: 1.0, y: -var.upper}, LE, 0.0, f"hull:{tag}:j{j}:ub[{v}]")
                if var.lower != 0.0:
                    b.add_row({xh: -1.0, y: var.lower}, LE, 0.0, f"hull:{tag}:j{j}:lb[{v}]")
        for v in sorted(set().union(*copies)):
            if all(v in own for own in copies):
                agg = {v: 1.0, **{own[v]: -1.0 for own in copies}}
                b.add_row(agg, EQ, 0.0, f"hull:{tag}:agg[{v}]")
                continue
            # A disjunct without a copy of v stands for one in [lower * y, upper * y].
            var, up, low = b.variables[v], {v: 1.0}, {v: -1.0}
            for own, y in zip(copies, ys):
                if v in own:
                    up[own[v]], low[own[v]] = -1.0, 1.0
                else:
                    _with_nonzero(up, y, -var.upper)
                    _with_nonzero(low, y, var.lower)
            b.add_row(up, LE, 0.0, f"hull:{tag}:aggub[{v}]")
            b.add_row(low, LE, 0.0, f"hull:{tag}:agglb[{v}]")

    return _lower(model, "hull", emit)


def reformulate_rhr(model: GdpModel) -> MilpModel:
    """Reaggregated hull reformulation for shared-coefficient disjunctions.

    Emits one row per shared coefficient vector, ``a^T x <= sum_j rhs_j y_j``,
    plus the assignment equality.  A shared row with ``rhs_j >=
    interval_max(a)`` in every disjunct is implied by the box and the
    assignment equality and is not written.  The MILP has exactly as many
    continuous variables as the input model.  Disjunctions failing
    ``shared_lhs`` raise :class:`SharedLhsViolation`; call
    ``reformulate_rhr(align_model(model))`` to reach the shared form first.
    The aligned concepts GP_S, S0 and S1 are built that way, so their models
    pass here as built.

    The LP relaxation equals the hull pass's when, in every disjunction, the
    right-hand sides are the support values of the box-clipped disjuncts,
    the shared matrix holds every edge normal of those disjuncts, and the
    rows split into factors of at most two variables (for fixed indicator
    values both passes then describe the same Minkowski sum).  Aligned
    difference-row disjunctions such as ``build_gp``'s and ``build_strip``'s
    meet these conditions; otherwise the relaxation may be weaker than the
    hull's.  ``build_ts``'s disjunctions pass here as built without meeting
    them (their right-hand sides are not support values): TS's relaxation
    equals the hull's along the makespan but not as a set, and
    ``reformulate_rhr(align_model(model))`` closes the gap with about 17%
    more rows (35 -> 41 at seven jobs).
    """
    boxes = model.boxes()

    def emit(b: MilpModel, tag: str, canon: List[List[LinRow]], ys: List[int]) -> None:
        if not _same_lhs(canon):
            raise SharedLhsViolation(
                f"disjunction {tag} does not share a left-hand side; align it first"
            )
        for ri, row in enumerate(canon[0]):
            top = interval_max(row.coeffs, boxes)
            if all(rows[ri].rhs >= top for rows in canon):
                continue
            coeffs = dict(row.coeffs)
            for rows, y in zip(canon, ys):
                _with_nonzero(coeffs, y, -rows[ri].rhs)
            b.add_row(coeffs, LE, 0.0, f"rhr:{tag}:r{ri}")

    return _lower(model, "rhr", emit)
