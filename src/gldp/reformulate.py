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
the disjuncts once, make the table of row maxima (``interval_max`` of each
coefficient dict of the canonical rows, once per dict, as aligned disjuncts
share them), let the pass write its rows and add the exclusive-or row over
the indicators.

No pass writes a disjunct row that the variable boxes already imply, that is
a row ``a^T x <= rhs`` with ``rhs >= interval_max(a)``, read from the table:
such a row cuts nothing from any pass's LP relaxation (see each pass).
Aligned disjuncts carry many of them.  Rows implied only by other rows of
the disjunct are still written.

``align_model`` brings every disjunction of a model to the shared-coefficient
form: every disjunct gets every row of its disjunction plus ``±x_v`` for each
of its variables, with right-hand sides equal to the rows' maxima over the
disjunct within the box, and the indicator of any disjunct that is empty
within the box is fixed at 0.  It is the one way to that form; it aligns a
disjunction that already shares a left-hand side too, because sharing alone
does not make the right-hand sides support values.  It works in one batch
per shape of disjunction: the difference bounds of all disjunctions with the
same number of variables and the same row keys are stacked into one numpy
array, closed by one Floyd-Warshall pass, and every support value is read
from that stack.

The reaggregated root equals the hull root when each disjunction is aligned
from difference rows (``x_a - x_b <= c``, ``±x_a <= c``) whose variables
split into factors of at most two variables, as in the general-precedence
and strip-packing models.  With three or more variables in one factor, or
with rows of other forms, it may be weaker.  A left-hand side shared as
built is not enough: RHR on the time-slot model (``build_ts``) equals the
hull along the makespan, but not as a set until ``align_model`` aligns it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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


def _with_nonzero(coeffs: Dict[int, float], col: int, a: float) -> Dict[int, float]:
    """``coeffs`` with the coefficient ``a`` on ``col`` unless ``a`` is
    zero: no pass writes a zero coefficient."""
    if a != 0.0:
        coeffs[col] = a
    return coeffs


def shared_lhs(disjunction: Disjunction) -> bool:
    """True iff all disjuncts carry identical coefficient matrices.

    Rows are canonicalized first; the comparison is positional and requires
    exact coefficient equality (no rescaling detection).
    """
    return _same_lhs([canonicalize_rows(d).rows for d in disjunction.disjuncts])


def _same_lhs(canon: Sequence[Sequence[LinRow]]) -> bool:
    """True iff all disjuncts' canonical rows have the same coefficient
    vectors; canonical rows are sorted by them, so the dicts compare in order."""
    first = [r.coeffs for r in canon[0]]
    return all([r.coeffs for r in rows] == first for rows in canon[1:])


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


def _difference_closures(
    lo: np.ndarray, hi: np.ndarray, disjuncts: int, cells: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Tightest bounds ``x_a - x_b <= D[k, j, a, b]`` implied by the
    difference rows of disjunct ``j`` of disjunction ``k`` and the box, for
    a stack of disjunctions of one shape (see :func:`align_model`).

    ``lo`` and ``hi`` hold the ``(K, n)`` boxes of the disjunctions'
    variables, renamed ``0..n-1``; node ``n`` is the constant zero.  Each
    row ``e`` of the ``(E, 4)`` array ``cells`` is one difference row: its
    disjunct ``j``, its nodes ``a`` and ``b`` and its scale ``t > 0``, so
    that the row of disjunction ``k`` reads ``t * (x_a - x_b) <= rhs[k, e]``.
    Floyd-Warshall runs over ``m`` on the whole ``(K, J, n+1, n+1)`` stack
    at once.  The bounds are the exact maxima over the disjunct within the
    box when every row is a difference row.  A diagonal entry below
    ``-EMPTY_TOL`` marks a negative cycle: the difference rows admit no
    point of the box.
    """
    n = lo.shape[1]
    d = np.full((lo.shape[0], disjuncts, n + 1, n + 1), math.inf)
    diag = np.arange(n + 1)
    d[:, :, diag, diag] = 0.0
    d[:, :, :n, n] = hi[:, None, :]
    d[:, :, n, :n] = -lo[:, None, :]
    j, a, b = cells[:, :3].astype(np.intp).T
    np.minimum.at(d, (slice(None), j, a, b), rhs / cells[:, 3])
    later = np.arange(n + 1)[None, :] > np.arange(n + 1)[:, None]  # later[m, b]: b > m
    for m in range(n + 1):
        # Step m gives the values of the plain triple loop that updates d in
        # place, rows in order and each row left to right: d[a, m] changes
        # at b = m and the later entries of row a add its new value, and
        # the rows after row m read row m as updated.  That differs from an
        # update out of place only on a negative cycle, such as one of
        # weight -5.6e-17 from rounding, too small to make a disjunct empty.
        row, dm = d[..., m, :], d[..., m, m, None]
        step = np.where(later[m], np.minimum(dm + dm, dm), dm)
        via = np.where(later[m][:, None], np.minimum(row, step + row)[..., None, :], row[..., None, :])
        col = d[..., :, m, None]
        d = np.minimum(d, np.where(later[m], col + np.minimum(via[..., m, None], 0.0), col) + via)
    return d


class _Layout(NamedTuple):
    """The index arrays of one shape (see :func:`align_model`): the same for
    every disjunction of that shape."""

    keys: Tuple[tuple, ...]  # the shared keys over variables 0..n-1, sorted
    coef: np.ndarray  # (Q, n): the coefficients of each key
    own: Tuple[np.ndarray, ...]  # per row of the shape: its disjunct and key column
    cells: np.ndarray  # (E, 4): disjunct, nodes a and b, scale t of each difference row
    cell_rows: np.ndarray  # (E,): the rows of the shape that cells describes
    diff: Tuple[np.ndarray, ...]  # per difference key: its column, nodes a and b, scale t


@functools.lru_cache(maxsize=256)
def _layout(shape: tuple) -> _Layout:
    """The layout of ``shape``, made once per shape: small models of a few
    shapes are aligned again and again, and building it is most of their
    cost.  Its arrays are read-only."""
    n, row_keys = shape[0], shape[1:]
    box_keys = (((i, s),) for i in range(n) for s in (1.0, -1.0))
    keys = tuple(sorted({k for ks in row_keys for k in ks}.union(box_keys)))
    col = {k: q for q, k in enumerate(keys)}
    # each row of the shape, across its disjuncts: its disjunct and key column
    rows = [(j, col[k]) for j, ks in enumerate(row_keys) for k in ks]
    coef = np.zeros((len(keys), n))
    for q, key in enumerate(keys):
        for i, a in key:
            coef[q, i] = a
    # A difference key reads t * D[a, b], with the zero node as n.
    cell: Dict[int, Tuple[int, int, float]] = {}
    for q, key in enumerate(keys):
        form = _difference_form(dict(key))
        if form is not None:
            a, b, t = form
            cell[q] = (n if a is None else a, n if b is None else b, t)
    e = [i for i, (_, q) in enumerate(rows) if q in cell]
    own = np.array(rows, dtype=np.intp).reshape(-1, 2).T
    diff = np.array([(q,) + c for q, c in cell.items()]).reshape(-1, 4).T
    layout = _Layout(
        keys,
        coef,
        tuple(own),
        np.array([(rows[i][0],) + cell[rows[i][1]] for i in e]).reshape(-1, 4),
        np.array(e, dtype=np.intp),
        tuple(diff[:3].astype(np.intp)) + (diff[3],),
    )
    for x in (layout.coef, layout.cells, layout.cell_rows, *layout.own, *layout.diff):
        x.flags.writeable = False
    return layout


def _align_shape(
    shape: tuple, members: Sequence[Tuple[List[int], List[Sequence[LinRow]]]], lo: np.ndarray, hi: np.ndarray
) -> Tuple[Tuple[tuple, ...], np.ndarray, np.ndarray]:
    """The support values of a stack of disjunctions of one shape.

    ``members`` holds each disjunction's sorted variables and canonical
    rows.  Returns the shared keys over variables ``0..n-1`` in sorted
    order, the ``(K, J, Q)`` right-hand sides of each disjunct's shared rows
    and the ``(K, J)`` mask of empty disjuncts.
    """
    lay = _layout(shape)
    n, J, Q, K = shape[0], len(shape) - 1, len(lay.keys), len(members)
    rhs = np.array([[r.rhs for rs in canon for r in rs] for _, canon in members], dtype=float).reshape(K, -1)
    dv = np.array([dvars for dvars, _ in members], dtype=np.intp).reshape(K, n)
    klo, khi = lo[dv], hi[dv]

    # interval_max of every key, summed over the variables in sorted order
    tops = np.zeros((K, Q))
    for i in range(n):
        c = lay.coef[:, i]
        tops = tops + c * np.where(c > 0, khi[:, i, None], klo[:, i, None])

    d = _difference_closures(klo, khi, J, lay.cells, rhs[:, lay.cell_rows])
    empty = (np.diagonal(d, axis1=2, axis2=3) < -EMPTY_TOL).any(axis=2)
    bound = np.repeat(tops[:, None, :], J, axis=1)
    q, a, b, t = lay.diff
    bound[:, :, q] = t * d[:, :, a, b]
    bound = np.where(empty[:, :, None], tops[:, None, :], bound)
    # a disjunct's own right-hand side of a key: the smallest of its rows'
    own = np.full((K, J, Q), math.inf)
    np.minimum.at(own, (slice(None), *lay.own), rhs)
    # "+ 0.0" turns a -0.0 bound into 0.0
    return lay.keys, np.minimum(own, bound) + 0.0, empty


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

    The work is batched by shape.  A disjunction's shape is its number of
    variables and its disjuncts' canonical row keys, with the variables
    renamed ``0..n-1`` in sorted order (which keeps the keys' sorted
    order).  The disjunctions of one shape are stacked into one
    ``(K, J, n+1, n+1)`` array of difference bounds, with the boxes on a
    zero node, and one Floyd-Warshall pass closes the whole stack; every
    support value is then read from it by array indexing.  Only the rows of
    the result are built one by one.

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
    lo = np.array([v.lower for v in model.vars], dtype=float)
    hi = np.array([v.upper for v in model.vars], dtype=float)
    parts: List[Tuple[List[int], List[Sequence[LinRow]]]] = []
    shapes: Dict[tuple, List[int]] = {}
    for k, disj in enumerate(model.disjunctions):
        canon = [canonicalize_rows(d).rows for d in disj.disjuncts]
        dvars = sorted({v for rows in canon for r in rows for v in r.coeffs})
        pos = {v: i for i, v in enumerate(dvars)}
        shape = (len(dvars),) + tuple(
            tuple(tuple([(pos[v], a) for v, a in sorted(r.coeffs.items())]) for r in rows)
            for rows in canon
        )
        shapes.setdefault(shape, []).append(k)
        parts.append((dvars, canon))
    aligned: List[tuple] = [()] * len(parts)
    for shape, ks in shapes.items():
        keys, rhs, empty = _align_shape(shape, [parts[k] for k in ks], lo, hi)
        for k, kr, ke in zip(ks, rhs.tolist(), empty.tolist()):
            aligned[k] = (keys, kr, ke)

    disjunctions: List[Disjunction] = []
    logic = list(model.logic)
    fixed = {y for r in logic for y in r.coeffs if r == LinRow({y: 1}, 0, LE)}
    for disj, (dvars, _), (keys, rhs, empty) in zip(model.disjunctions, parts, aligned):
        # one coefficient dict per shared row, for every disjunct
        coeffs = [{dvars[i]: a for i, a in key} for key in keys]
        disjunctions.append(Disjunction(
            [Disjunct(d.indicator, [LinRow(c, b, LE) for c, b in zip(coeffs, rr)])
             for d, rr in zip(disj.disjuncts, rhs)],
            disj.label,
        ))
        logic.extend(
            LinRow({d.indicator: 1}, 0, LE)
            for d, e in zip(disj.disjuncts, empty) if e and d.indicator not in fixed
        )
    return replace(model, disjunctions=disjunctions, logic=logic)


def _reject_invalid(model: GdpModel) -> None:
    """Raise ``ValueError`` with every diagnostic of ``validate(model)``."""
    # a global looked up on each call, so a wrapper of gldp.reformulate.validate sees it
    diags = validate(model)
    if diags:
        raise ValueError("invalid model: " + "; ".join(diags))


def _lower(model: GdpModel, pass_name: str, emit: Callable[..., None]) -> MilpModel:
    """The loop every pass shares (see the module docstring).  For each
    disjunction, ``emit(b, tag, canon, tops, ys)`` gets the MILP being
    built, the disjunction's tag, each disjunct's canonical rows, the row
    maxima ``tops[id(coeffs)]`` and each disjunct's indicator column.
    Global and logic rows are written with float, nonzero coefficients, as
    the passes write theirs."""
    _reject_invalid(model)
    boxes = model.boxes()
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
        tops: Dict[int, float] = {}
        for rows in canon:
            for r in rows:
                if id(r.coeffs) not in tops:
                    tops[id(r.coeffs)] = interval_max(r.coeffs, boxes)
        ys = [ymap[d.indicator] for d in disj.disjuncts]
        emit(b, tag, canon, tops, ys)
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
    def emit(b: MilpModel, tag: str, canon: List[List[LinRow]], tops: Dict[int, float], ys: List[int]) -> None:
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
    def emit(b: MilpModel, tag: str, canon: List[List[LinRow]], tops: Dict[int, float], ys: List[int]) -> None:
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
    def emit(b: MilpModel, tag: str, canon: List[List[LinRow]], tops: Dict[int, float], ys: List[int]) -> None:
        if not _same_lhs(canon):
            raise SharedLhsViolation(
                f"disjunction {tag} does not share a left-hand side; align it first"
            )
        for ri, row in enumerate(canon[0]):
            top = tops[id(row.coeffs)]
            if all(rows[ri].rhs >= top for rows in canon):
                continue
            coeffs = dict(row.coeffs)
            for rows, y in zip(canon, ys):
                _with_nonzero(coeffs, y, -rows[ri].rhs)
            b.add_row(coeffs, LE, 0.0, f"rhr:{tag}:r{ri}")

    return _lower(model, "rhr", emit)
