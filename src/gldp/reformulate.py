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

The passes differ only in the rows they write.  All three run one
lowering, ``_lower``: validate the model, copy its variables, indicators
and objective, write its global and logic rows as one block, then take the
canonical form of the whole model's disjunctions
(``gldp.model.canonical_form``: every disjunct's canonical ``<=`` rows as
one CSR block, cached on the disjunctions, so a model lowered by several
passes is canonicalized once, and an aligned one never), compute every
row's maximum over the box in one numpy pass (``interval_max``'s terms,
added in the same order), let the pass write its rows for the whole model
as numpy blocks, and add each disjunction's exclusive-or row.  Every block
goes to the MILP's row store (``gldp.model.RowStore``) with a sort key per
row, and the store sorts them once into the MILP's row order: the global
rows, the logic rows, then disjunction after disjunction, each one's rows
as the pass lists them, then its exclusive-or row.

That pass over the row maxima is the one place that decides whether the
variable boxes imply a disjunct row ``a^T x <= rhs``: they do when ``rhs
>= interval_max(a)``.  No pass writes such a row: it cuts nothing from any
pass's LP relaxation (see each pass).  Rows implied only by other rows of
the disjunct are still written.  Provenance names each written row's
source: ``…:j<j>:r<i>`` is row ``i`` of disjunct ``j`` as the model holds
it, and ``r<i>-`` the ``>=`` side of an equality.

``align_model`` brings every disjunction of a model to the shared-coefficient
form: every disjunct gets every row of its disjunction plus ``±x_v`` for each
of its variables, with right-hand sides equal to the rows' maxima over the
disjunct within the box, less the rows that the box implies in every
disjunct, and the indicator of any disjunct that is empty within the box is
fixed at 0.  It is the one way to that form; it aligns a
disjunction that already shares a left-hand side too, because sharing alone
does not make the right-hand sides support values.  It works in one batch
per shape of disjunction: the difference bounds of all disjunctions with the
same number of variables and the same row keys are stacked into one numpy
array, closed by one Floyd-Warshall pass, and every support value is read
from that stack.  It reads the source rows from their canonical form and
builds no :class:`LinRow`: the aligned disjuncts' rows are made from the
aligned canonical form when they are first read.

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
from itertools import chain
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .model import (
    EQ,
    LE,
    SENSES,
    CanonicalRows,
    Disjunction,
    GdpModel,
    LinRow,
    MilpModel,
    MilpVar,
    _canonical_block,
    _entries,
    _reject_mistyped,
    canonical_form,
    canonical_rows,
    shared_disjunctions,
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
    entries: Tuple[np.ndarray, ...]  # the keys in CSR: (Q+1,) starts, variables and coefficients


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
    kstart = np.zeros(len(keys) + 1, dtype=np.intp)
    np.cumsum([len(key) for key in keys], out=kstart[1:])
    items = np.array([item for key in keys for item in key]).reshape(-1, 2)
    layout = _Layout(
        keys,
        coef,
        tuple(own),
        np.array([(rows[i][0],) + cell[rows[i][1]] for i in e]).reshape(-1, 4),
        np.array(e, dtype=np.intp),
        tuple(diff[:3].astype(np.intp)) + (diff[3],),
        (kstart, items[:, 0].astype(np.intp), items[:, 1]),
    )
    for x in (layout.coef, layout.cells, layout.cell_rows, *layout.own, *layout.diff, *layout.entries):
        x.flags.writeable = False
    return layout


def _align_shape(
    shape: tuple, rhs: np.ndarray, dv: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support values of a stack of disjunctions of one shape.

    ``rhs`` holds the ``(K, R)`` right-hand sides of each disjunction's
    canonical rows, disjunct by disjunct, and ``dv`` its ``(K, n)`` sorted
    variables.  Returns the ``(K, J, Q)`` right-hand sides of each
    disjunct's rows over the shape's keys (``_layout(shape).keys``), the
    ``(K, J)`` mask of empty disjuncts and the ``(K, Q)`` mask of the keys
    that some disjunct's right-hand side cuts below the key's interval
    maximum.
    """
    lay = _layout(shape)
    n, J, Q, K = shape[0], len(shape) - 1, len(lay.keys), len(rhs)
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
    support = np.minimum(own, bound) + 0.0
    return support, empty, (support < tops[:, None, :]).any(axis=1)


def align_model(model: GdpModel) -> GdpModel:
    """Give the disjuncts of every disjunction of ``model`` one shared
    coefficient matrix with support-value right-hand sides.

    A disjunction's shared matrix holds every coefficient vector found in
    any of its disjuncts, plus ``+x_v`` and ``-x_v`` for every variable of
    the disjunction, less the rows that the box implies in every disjunct
    (``rhs >= interval_max(a)`` in each), which no pass writes.  Each
    disjunct ``D_j`` receives every row with right-hand side ``max{a^T x :
    x in B ∩ D_j}`` (``B`` the box), computed without an LP by a
    shortest-path closure over ``D_j``'s difference rows (``x_a - x_b <=
    c`` and ``±x_a <= c``, up to a positive scale) and the box.  The value
    is exact for difference rows when all of ``D_j``'s rows are difference
    rows.  Rows of any other form get the smaller of the disjunct's own
    right-hand side and the row's interval maximum over the box; they are
    valid but carry no exactness guarantee, and neither do difference rows
    in a disjunct that also has such rows.  A disjunction that already
    shares a left-hand side is aligned too: its right-hand sides need not
    be support values.

    The work is batched by shape.  A disjunction's shape is its number of
    variables and its disjuncts' canonical row keys, with the variables
    renamed ``0..n-1`` in sorted order (which keeps the keys' sorted
    order).  The disjunctions of one shape are stacked into one
    ``(K, J, n+1, n+1)`` array of difference bounds, with the boxes on a
    zero node, and one Floyd-Warshall pass closes the whole stack; every
    support value is then read from it by array indexing.  The source
    rows are read from the model's canonical form
    (``gldp.model.canonical_form``), and each shape is found from its
    arrays.  The aligned rows of the whole model are laid out as one block
    of canonical rows (see ``gldp.model.CanonicalRows``), which becomes the
    aligned disjunctions' cached canonical form.  No :class:`LinRow` of an
    aligned disjunct is built here: each aligned disjunct is a view whose
    rows are made from that block when first read
    (``gldp.model.shared_disjunctions``).

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
    src = canonical_form(model.disjunctions)
    K, nv = len(model.disjunctions), max(len(model.vars), 1)
    # Each disjunction's sorted variables, and each entry's rank among them.
    lens = src.start[1:] - src.start[:-1]
    erow = np.arange(len(lens)).repeat(lens)
    ek = src.k[erow]
    ekey = ek * nv + src.cols
    pairs = np.unique(ekey)
    voff = np.zeros(K + 1, dtype=np.intp)
    np.bincount(pairs // nv, minlength=K).cumsum(out=voff[1:])
    dvars = pairs % nv
    pos = pairs.searchsorted(ekey) - voff[ek]
    # The shape of each disjunction: its number of variables and each
    # disjunct's row keys, the sorted items over the renamed variables.
    by_var = np.lexsort((src.cols, erow))
    items = list(zip(pos[by_var].tolist(), src.vals[by_var].tolist()))
    st, ro = src.start.tolist(), src.rowoff.tolist()
    keys = [tuple(items[a:b]) for a, b in zip(st, st[1:])]
    disjunct_keys = [tuple(keys[a:b]) for a, b in zip(ro, ro[1:])]
    shapes: Dict[tuple, List[int]] = {}
    for k, (a, b, n) in enumerate(zip(src.doff.tolist(), src.doff[1:].tolist(), np.diff(voff).tolist())):
        shapes.setdefault((n,) + tuple(disjunct_keys[a:b]), []).append(k)

    # The kept rows of every shape, each disjunct's in key order: the
    # disjunction, the disjunct, the rank among the disjunction's kept keys,
    # the rhs, and the coefficients in CSR.
    empty: List[Tuple[int, int]] = []
    blocks = []
    for shape, ks in shapes.items():
        lay = _layout(shape)
        ks = np.array(ks)
        dv = dvars[voff[ks, None] + np.arange(shape[0])]
        rhs = src.rhs[src.first[ks, None] + np.arange(src.first[ks[0] + 1] - src.first[ks[0]])]
        support, shape_empty, keep = _align_shape(shape, rhs, dv, lo, hi)
        e, j = shape_empty.nonzero()
        empty += zip(ks[e].tolist(), j.tolist())
        m, j, q = np.nonzero(np.broadcast_to(keep[:, None, :], support.shape))
        kstart, kvar, kval = lay.entries
        lens = kstart[q + 1] - kstart[q]
        nz, at = _entries(kstart, q)
        blocks.append((ks[m], j, (np.cumsum(keep, axis=1) - 1)[m, q], support[m, j, q],
                       lens, dv[m[at], kvar[nz]], kval[nz]))
    kk, j, rank, rhs, lens, cols, vals = (
        np.concatenate([b[f] for b in blocks]) if blocks else np.zeros(0, dtype=np.intp) for f in range(7)
    )
    # the rows in model order: by disjunction, the shape's order within one
    order = kk.argsort(kind="stable")
    start = np.zeros(len(order) + 1, dtype=np.intp)
    start[1:] = lens[order].cumsum()
    row_start = np.zeros(len(lens) + 1, dtype=np.intp)
    row_start[1:] = lens.cumsum()
    nz, _ = _entries(row_start, order)
    form = canonical_rows(
        start, cols[nz].astype(np.intp), vals[nz].astype(float), rhs[order].astype(float),
        src.doff[kk[order]] + j[order], rank[order], np.zeros(len(order), dtype=bool), src.doff,
    )

    logic = list(model.logic)
    # the indicators that a logic row y <= 0 fixes already
    fixed = {y for r in logic if len(r.coeffs) == 1 and (r.rhs, r.sense, r.provenance) == (0, LE, "")
             for y, a in r.coeffs.items() if a == 1}
    for k, j in sorted(empty):
        y = model.disjunctions[k].disjuncts[j].indicator
        if y not in fixed:
            logic.append(LinRow({y: 1}, 0, LE))
    return replace(model, disjunctions=shared_disjunctions(form, model.disjunctions), logic=logic)


def _reject_invalid(model: GdpModel) -> None:
    """Raise ``ValueError`` with every diagnostic of ``validate(model)``."""
    # a global looked up on each call, so a wrapper of gldp.reformulate.validate sees it
    diags = validate(model)
    if diags:
        raise ValueError("invalid model: " + "; ".join(diags))


def _row_maxima(form: CanonicalRows, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``interval_max`` of every row of ``form`` over the box ``[lo, hi]``,
    each row's terms added one by one in coefficient order, as
    ``interval_max`` adds them, so that the values are the same to the bit."""
    start = form.start
    terms = form.vals * np.where(form.vals > 0, hi[form.cols], lo[form.cols])
    lens = start[1:] - start[:-1]
    top = np.zeros(len(lens))
    for p in range(lens.max(initial=0)):
        rows = (lens > p).nonzero()[0]
        top[rows] += terms[start[rows] + p]
    return top


def _unshared(form: CanonicalRows) -> np.ndarray:
    """The ``(K,)`` mask of the disjunctions whose disjuncts' canonical rows
    do not all have the same coefficient vectors.  Canonical rows are
    sorted by those vectors, so row ``i`` of every disjunct is compared with
    row ``i`` of the first, as dicts: the same columns with the same
    values, in any order."""
    f = form
    K = len(f.doff) - 1
    nrows = f.rowoff[1:] - f.rowoff[:-1]
    bad = np.bincount(f.dk, nrows != nrows[f.doff[f.dk]], K) > 0
    g = (~bad[f.k]).nonzero()[0]
    g0 = g - f.rowoff[f.gd[g]] + f.rowoff[f.doff[f.k[g]]]  # the same row of the first disjunct
    lens = f.start[1:] - f.start[:-1]
    same = lens[g] == lens[g0]
    by_col = np.lexsort((f.cols, np.repeat(np.arange(len(lens)), lens)))
    cols, vals = f.cols[by_col], f.vals[by_col]
    nz, at = _entries(f.start, g[same])
    nz0 = nz - f.start[g[same]][at] + f.start[g0[same]][at]
    differs = (cols[nz] != cols[nz0]) | (vals[nz] != vals[nz0])
    wrong = np.concatenate([g[~same], g[same][at[differs]]])
    return bad | (np.bincount(f.k[wrong], minlength=K) > 0)


def shared_lhs(disjunction: Disjunction) -> bool:
    """True iff all disjuncts carry identical coefficient matrices.

    Rows are canonicalized first; the comparison is positional and requires
    exact coefficient equality (no rescaling detection).  A row that
    ``validate`` rejects by type raises ``ValueError``.
    """
    _reject_mistyped(disjunction.disjuncts)
    return not _unshared(_canonical_block([disjunction]))[0]


class _Lowering(NamedTuple):
    """The disjunct rows of a whole model, as ``_lower`` hands them to a
    pass: the canonical form of every disjunction, where each row sits, the
    model's boxes and names, and the one decision whether the box implies a
    row."""

    form: CanonicalRows
    top: np.ndarray  # (R,) interval_max of each row over the box
    written: np.ndarray  # (R,) rhs < top: the box does not imply the row
    ycol: np.ndarray  # (G,) each disjunct's indicator column
    tags: List[str]  # (K,) each disjunction's tag, as in provenance
    lo: np.ndarray  # (n,) the model's boxes
    hi: np.ndarray
    names: List[str]  # (n,) the model's variable names

    def provenance(self, prefix: str, g: np.ndarray, disjunct: bool = True) -> List[str]:
        """``prefix:tag:j<j>:r<i>`` of rows ``g`` (without ``j<j>`` when
        ``disjunct`` is false): ``i`` is the index of the disjunct's own row,
        with a ``-`` after it for the ``>=`` side of an equality."""
        f, tags = self.form, self.tags
        rs = [f"r{i}-" if h else f"r{i}" for i, h in zip(f.source[g].tolist(), f.half[g].tolist())]
        if not disjunct:
            return [f"{prefix}:{tags[k]}:{r}" for k, r in zip(f.k[g].tolist(), rs)]
        return [f"{prefix}:{tags[k]}:j{j}:{r}" for k, j, r in zip(f.k[g].tolist(), f.disjunct[g].tolist(), rs)]


LE_CODE, EQ_CODE = SENSES.index(LE), SENSES.index(EQ)


def _lower(model: GdpModel, pass_name: str, emit: Callable[[MilpModel, _Lowering], None]) -> MilpModel:
    """The lowering every pass shares (see the module docstring).  The
    model's global rows, then its logic rows, go to the MILP's row store as
    one block keyed ahead of every disjunction, with float, nonzero
    coefficients, as the passes write theirs.  ``emit(b, low)`` then gets
    the MILP being built and the whole model's disjunct rows, and writes
    its rows to ``b.store``, each keyed by its disjunction so that the
    MILP's rows come disjunction after disjunction, each closed by its
    exclusive-or row."""
    _reject_invalid(model)
    b = MilpModel(name=f"{model.name or 'model'}_{pass_name}")
    nv, G = len(model.vars), len(model.global_rows)
    b.variables += [MilpVar(v.name, float(v.lower), float(v.upper)) for v in model.vars]
    b.variables += [MilpVar(name, 0.0, 1.0, True) for name in model.bools]
    b.objective = {v: float(a) for v, a in model.objective.items()}
    rows = [*model.global_rows, *model.logic]
    coeffs = list(map(attrgetter("coeffs"), rows))
    lens = np.fromiter(map(len, coeffs), np.intp, len(rows))
    cols = np.fromiter(chain.from_iterable(coeffs), np.intp, lens.sum())
    vals = np.fromiter(chain.from_iterable(map(dict.values, coeffs)), float, len(cols))
    cols[lens[:G].sum():] += nv  # a logic row's columns are the indicators
    code = np.fromiter(map(SENSES.index, map(attrgetter("sense"), rows)), np.intp, len(rows))
    rhs = np.fromiter(map(attrgetter("rhs"), rows), float, len(rows))
    ids = b.store.add_rows(np.full(len(rows), -1), 0, 0, 0, code, rhs, lambda: [
        f"global[{i}]" if i < G else f"logic[{i - G}]" for i in range(len(rows))])
    keep = vals != 0.0
    b.store.entries(ids.repeat(lens)[keep], cols[keep], vals[keep])

    disjunctions = model.disjunctions
    form = canonical_form(disjunctions)
    counts = [len(d.disjuncts) for d in disjunctions]
    lo = np.array([v.lower for v in model.vars], dtype=float)
    hi = np.array([v.upper for v in model.vars], dtype=float)
    top = _row_maxima(form, lo, hi)
    ycol = nv + np.array([d.indicator for disj in disjunctions for d in disj.disjuncts], dtype=np.intp)
    tags = [f"d{k}" + (f"({disj.label})" if disj.label else "") for k, disj in enumerate(disjunctions)]
    low = _Lowering(form, top, form.rhs < top, ycol, tags, lo, hi, [v.name for v in model.vars])
    emit(b, low)
    ids = b.store.add_rows(np.arange(len(tags)), 3, 0, 0, EQ_CODE, 1.0,
                           lambda: [f"{pass_name}:{t}:xor" for t in tags])
    b.store.entries(np.repeat(ids, counts), ycol, 1.0)
    return b


def reformulate_bigm(model: GdpModel) -> MilpModel:
    """Big-M reformulation.

    Each disjunct row ``a^T x <= rhs`` becomes ``a^T x - rhs <= M (1 - y)``
    with ``M = big_m_bound(row)`` the row's maximum violation over the box,
    plus one assignment equality per disjunction.  A row with ``M <= 0``
    holds everywhere in the box and is not written.  No continuous
    variables are added.
    """
    def emit(b: MilpModel, low: _Lowering) -> None:
        f, g = low.form, low.written.nonzero()[0]
        rhs = f.rhs[g]
        m = low.top[g] - rhs  # big_m_bound of each row, above 0
        ids = b.store.add_rows(f.k[g], 0, g, 0, LE_CODE, rhs + m, lambda: low.provenance("bigm", g))
        nz, at = _entries(f.start, g)
        b.store.entries(ids[at], f.cols[nz], f.vals[nz])
        b.store.entries(ids, low.ycol[f.gd[g]], m)

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

    Copies are numbered by disjunction, disjunct and variable.  Within a
    disjunction, each disjunct's rows come first, then its copies' upper
    and lower links, variable by variable; then the aggregation rows,
    variable by variable.
    """
    def emit(b: MilpModel, low: _Lowering) -> None:
        f, nv, tags = low.form, len(low.lo), low.tags
        g = low.written.nonzero()[0]
        nz, at = _entries(f.start, g)
        # the copies: one per disjunct and variable of its written rows
        gd = f.gd[g]
        key = gd[at] * nv + f.cols[nz]
        copies = np.unique(key)
        cgd, cv = np.divmod(copies, nv)
        ck = f.dk[cgd]
        cj = cgd - f.doff[ck]
        ccol = len(b.variables) + np.arange(len(copies))
        clo, chi = low.lo[cv], low.hi[cv]
        names = low.names
        b.variables += map(
            MilpVar,
            [f"{names[v]}__{tags[k]}_j{j}" for v, k, j in zip(cv.tolist(), ck.tolist(), cj.tolist())],
            np.where(0.0 < clo, 0.0, clo).tolist(),  # min(lower, 0.0)
            np.where(chi < 0.0, 0.0, chi).tolist(),  # max(upper, 0.0)
        )
        # each written row in its disjunct's copies: a^T x^j - rhs y_j <= 0
        rhs = f.rhs[g]
        ids = b.store.add_rows(f.k[g], 0, gd, g, LE_CODE, 0.0, lambda: low.provenance("hull", g))
        b.store.entries(ids[at], ccol[copies.searchsorted(key)], f.vals[nz])
        cut = (rhs != 0.0).nonzero()[0]
        b.store.entries(ids[cut], low.ycol[gd[cut]], -rhs[cut])
        # the links x^j <= upper y_j and -x^j <= -lower y_j; a zero bound
        # is the copy's column bound, and no row repeats it
        R, cy = len(f.rhs), low.ycol[cgd]
        for side, bound, sign, rank in (("ub", chi, 1.0, 0), ("lb", clo, -1.0, 1)):
            s = (bound != 0.0).nonzero()[0]

            def prov(side=side, s=s) -> List[str]:
                return [f"hull:{tags[k]}:j{j}:{side}[{v}]"
                        for k, j, v in zip(ck[s].tolist(), cj[s].tolist(), cv[s].tolist())]

            ids = b.store.add_rows(ck[s], 0, cgd[s], R + 2 * cv[s] + rank, LE_CODE, 0.0, prov)
            b.store.entries(ids, ccol[s], sign)
            b.store.entries(ids, cy[s], -sign * bound[s])
        # aggregation, per disjunction and variable with a copy: one entry
        # per disjunct of the disjunction, its copy or, when it has none,
        # its indicator times the bound
        pairs = np.unique(ck * nv + cv)
        pk, pv = np.divmod(pairs, nv)
        J = f.doff[pk + 1] - f.doff[pk]
        pe = np.repeat(np.arange(len(pairs)), J)
        egd = (f.doff[pk] - J.cumsum() + J)[pe] + np.arange(len(pe))
        ekey = egd * nv + pv[pe]
        ci = np.minimum(copies.searchsorted(ekey), len(copies) - 1)
        has = copies[ci] == ekey
        full = np.bincount(pe, has, len(pairs)) == J
        ecol = np.where(has, ccol[ci], low.ycol[egd])
        def up() -> List[str]:
            return [f"hull:{tags[k]}:{'agg' if a else 'aggub'}[{v}]"
                    for k, v, a in zip(pk.tolist(), pv.tolist(), full.tolist())]

        ids = b.store.add_rows(pk, 1, pv, 0, np.where(full, EQ_CODE, LE_CODE), 0.0, up)
        b.store.entries(ids, pv, 1.0)
        bound = -low.hi[pv[pe]]
        s = (has | (bound != 0.0)).nonzero()[0]
        b.store.entries(ids[pe[s]], ecol[s], np.where(has[s], -1.0, bound[s]))
        part = (~full).nonzero()[0]
        def down() -> List[str]:
            return [f"hull:{tags[k]}:agglb[{v}]" for k, v in zip(pk[part].tolist(), pv[part].tolist())]

        lb_ids = np.zeros(len(pairs), dtype=np.intp)
        lb_ids[part] = b.store.add_rows(pk[part], 1, pv[part], 1, LE_CODE, 0.0, down)
        b.store.entries(lb_ids[part], pv[part], -1.0)
        bound = low.lo[pv[pe]]
        s = (~full[pe] & (has | (bound != 0.0))).nonzero()[0]
        b.store.entries(lb_ids[pe[s]], ecol[s], np.where(has[s], 1.0, bound[s]))

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
    def emit(b: MilpModel, low: _Lowering) -> None:
        f = low.form
        bad = _unshared(f).nonzero()[0]
        if bad.size:
            raise SharedLhsViolation(
                f"disjunction {low.tags[bad[0]]} does not share a left-hand side; align it first"
            )
        g0 = np.arange(len(f.rhs)) - f.rowoff[f.gd] + f.rowoff[f.doff[f.k]]  # the same row of the first disjunct
        # written unless the box implies it in every disjunct, all compared
        # with the first disjunct's maximum
        cut = np.bincount(g0[f.rhs < low.top[g0]], minlength=len(g0)) > 0
        r0 = cut.nonzero()[0]
        ids = b.store.add_rows(f.k[r0], 0, r0, 0, LE_CODE, 0.0, lambda: low.provenance("rhr", r0, disjunct=False))
        nz, at = _entries(f.start, r0)
        b.store.entries(ids[at], f.cols[nz], f.vals[nz])
        row_id = np.zeros(len(g0), dtype=np.intp)
        row_id[r0] = ids
        s = (cut[g0] & (f.rhs != 0.0)).nonzero()[0]
        b.store.entries(row_id[g0[s]], low.ycol[f.gd[s]], -f.rhs[s])

    return _lower(model, "rhr", emit)
