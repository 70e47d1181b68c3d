"""In-memory representations of linear disjunctive programs and MILPs.

A :class:`GdpModel` holds box-bounded continuous variables, named binary
indicators, global linear rows, exclusive-or disjunctions, and pre-linearized
logic rows over the indicators.  Objectives are linear in the continuous
variables and always minimized.

A :class:`MilpModel` is the flat mixed-integer program produced by the
reformulation passes in :mod:`gldp.reformulate`.  Every MILP row carries a
provenance tag naming the pass and source entity that produced it.  Its rows
live in one CSR store (:class:`RowStore`): row starts, column indices and
coefficients, a sense code and right-hand side per row, and the provenance
strings.  A pass writes its rows in any order, as numpy blocks with a sort
key per row, and the store sorts them into the MILP's row order once, when
its arrays are first read; ``MilpModel.rows`` is a read-only view of the
store as :class:`LinRow` objects, built when it is first read after a
change.

A disjunction's canonical rows (:func:`canonicalize_rows`, every disjunct
at once) are kept as :class:`CanonicalRows` arrays, made in numpy from the
rows of all of a model's disjunctions at once and cached on the frozen
:class:`Disjunction` by :func:`canonical_form`, or set by ``align_model``
for the disjunctions it makes.  The form is made once: a row changed after
that changes neither what the passes write nor what :func:`validate`
checks.  The disjuncts that ``align_model`` makes are views of their form,
as ``MilpModel.rows`` is of the row store: their ``rows`` are built as
:class:`LinRow` objects when first read (:func:`shared_disjunctions`).

Global, disjunct, logic and MILP rows are all of one type, :class:`LinRow`,
and :func:`row_range` is the one place where a row sense gets its meaning:
the interval that a row's activity must lie in.

A :class:`GdpModel` is treated as immutable after construction, and a
:class:`MilpModel` once its pass returns it; either may then be shared
freely across threads for read-only use.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import attrgetter, is_, itemgetter, le
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

LE = "<="
GE = ">="
EQ = "=="

SENSES = (LE, GE, EQ)

VarId = int
BoolId = int


@dataclass(frozen=True)
class ContinuousVar:
    """A continuous decision variable with a finite box [lower, upper]."""

    name: str
    lower: float
    upper: float


def row_range(sense: str, rhs: float) -> Tuple[float, float]:
    """The interval ``(lo, hi)`` that a row's activity must lie in; an
    unknown sense raises ``ValueError``."""
    if sense == LE:
        return -math.inf, rhs
    if sense == GE:
        return rhs, math.inf
    if sense == EQ:
        return rhs, rhs
    raise ValueError(f"unknown row sense {sense!r}")


@dataclass(frozen=True)
class LinRow:
    """One linear row ``sum(coeffs[v] * x[v]) <sense> rhs``.

    The one row type: the global and disjunct rows of a :class:`GdpModel`
    over its continuous variables, its logic rows over its indicators, and
    every row of a :class:`MilpModel`, where ``provenance`` names the pass
    and source entity that wrote it.
    """

    coeffs: Dict[int, float]
    rhs: float
    sense: str = LE
    provenance: str = ""

    def violation(self, x: Mapping[int, float]) -> float:
        """How far the row's activity at ``x`` lies outside its range
        (negative when strictly inside)."""
        lo, hi = row_range(self.sense, self.rhs)
        lhs = sum(a * x[v] for v, a in self.coeffs.items())
        return max(lo - lhs, lhs - hi)

    def satisfied(self, x: Mapping[int, float], tol: float = 1e-6) -> bool:
        return self.violation(x) <= tol


@dataclass(frozen=True)
class Disjunct:
    """One alternative of a disjunction: an indicator plus its linear rows.

    A disjunct that ``align_model`` makes is a view: its ``rows`` are made
    from its disjunction's canonical form when first read (see
    :func:`shared_disjunctions`), and are then the same tuple of
    :class:`LinRow` as any other disjunct's.
    """

    indicator: BoolId
    rows: Tuple[LinRow, ...]

    def __init__(self, indicator: BoolId, rows: Iterable[LinRow]):
        object.__setattr__(self, "indicator", indicator)
        object.__setattr__(self, "rows", tuple(rows))

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: the rows of a
        # view, on their first read.
        view = self.__dict__.get("_view") if name == "rows" else None
        if view is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows, g = view
        object.__setattr__(self, "rows", rows.disjunct(g))
        del self.__dict__["_view"]
        return self.rows


@dataclass(frozen=True)
class Disjunction:
    """An exclusive-or block of two or more disjuncts.

    Exactly-one semantics over the indicators is implicit; every
    reformulation pass emits the corresponding assignment equality.  The
    disjunction's id is its position in ``GdpModel.disjunctions``; ``label``
    is a human-readable tag used in diagnostics and row provenance.
    """

    disjuncts: Tuple[Disjunct, ...]
    label: str = ""
    _canonical = None  # (block, position) once the canonical form is made; not a field

    def __init__(self, disjuncts: Iterable[Disjunct], label: str = ""):
        object.__setattr__(self, "disjuncts", tuple(disjuncts))
        object.__setattr__(self, "label", label)


@dataclass
class GdpModel:
    """A generalized linear disjunctive program (minimization)."""

    vars: List[ContinuousVar]
    bools: List[str]
    objective: Dict[VarId, float]
    global_rows: List[LinRow]
    disjunctions: List[Disjunction]
    logic: List[LinRow]
    name: str = ""

    def boxes(self) -> Dict[VarId, Tuple[float, float]]:
        return {i: (v.lower, v.upper) for i, v in enumerate(self.vars)}

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    @property
    def num_bools(self) -> int:
        return len(self.bools)


def canonicalize_rows(disjunct: Disjunct) -> Disjunct:
    """Normalize a disjunct to ``<=``-only rows in a deterministic order.

    ``>=`` rows are negated, equalities are split into a ``<=`` pair, zero
    coefficients are dropped, and the result is sorted lexicographically by
    sorted coefficient items with ties broken by right-hand side, then by
    the source row.  The operation is idempotent and preserves the
    disjunct's feasible set.  An unknown sense, or a row that
    :func:`validate` rejects by type, raises ``ValueError``.
    """
    _reject_mistyped([disjunct])
    f = _canonical_block([Disjunction([disjunct])])
    st, cl, vl = f.start.tolist(), f.cols.tolist(), f.vals.tolist()
    coeffs = [dict(zip(cl[a:b], vl[a:b])) for a, b in zip(st, st[1:])]
    return Disjunct(disjunct.indicator, map(LinRow, coeffs, f.rhs.tolist()))


def _reject_mistyped(disjuncts: Sequence[Disjunct]) -> None:
    """Raise ``ValueError`` at the first row of ``disjuncts`` that the walk
    of :func:`validate` rejects by type, or for a negative variable, in the
    walk's words: ``disjunct <j>, row <i>: <why>``."""
    for j, d in enumerate(disjuncts):
        if not isinstance(d, Disjunct):
            raise ValueError(f"disjunct {j}: {d!r} is not a Disjunct")
        for i, row in enumerate(d.rows):
            if why := _mistyped(row):
                raise ValueError(f"disjunct {j}, row {i}: {why}")


def _mistyped(row: LinRow) -> str:
    """Why the walk of :func:`validate` rejects ``row`` by type, or ""."""
    if not isinstance(row, LinRow):
        return f"{row!r} is not a LinRow"
    if not isinstance(row.coeffs, dict):
        return "coefficients are not a dict"
    for v, a in row.coeffs.items():
        if not isinstance(v, int) or v < 0:
            return f"references undeclared variable {v}"
        if not isinstance(a, _REAL):
            return f"coefficient on variable {v} is not a number"
    return "" if isinstance(row.rhs, _REAL) else "right-hand side is not a number"


class CanonicalRows(NamedTuple):
    """The canonical rows of a run of disjunctions (see
    :func:`canonicalize_rows`), as CSR arrays, with where each row sits.

    Row ``r`` reads ``sum(vals[p] * x[cols[p]]) <= rhs[r]`` over ``p`` in
    ``start[r]:start[r + 1]``, with the coefficients in the order of the
    canonical row's dict.  Disjunction ``k`` of the run holds rows
    ``first[k]:first[k + 1]``, disjunct by disjunct, each disjunct's rows in
    canonical order.  ``disjunct[r]`` is the row's disjunct in its
    disjunction, ``source[r]`` the index of that disjunct's row it comes
    from, and ``half[r]`` is true for the ``>=`` side of an equality.
    Disjuncts are also numbered over the run: disjunction ``k`` has
    disjuncts ``doff[k]:doff[k + 1]``, and disjunct ``g`` rows
    ``rowoff[g]:rowoff[g + 1]``.
    """

    start: np.ndarray  # (R+1,)
    cols: np.ndarray  # (nnz,)
    vals: np.ndarray  # (nnz,)
    rhs: np.ndarray  # (R,)
    disjunct: np.ndarray  # (R,)
    source: np.ndarray  # (R,)
    half: np.ndarray  # (R,) bool
    first: np.ndarray  # (K+1,)
    k: np.ndarray  # (R,) each row's disjunction
    gd: np.ndarray  # (R,) each row's disjunct, numbered over the run
    dk: np.ndarray  # (G,) each disjunct's disjunction
    doff: np.ndarray  # (K+1,)
    rowoff: np.ndarray  # (G+1,)


def canonical_rows(
    start: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray, gd: np.ndarray,
    source: np.ndarray, half: np.ndarray, doff: np.ndarray,
) -> CanonicalRows:
    """A :class:`CanonicalRows` of the given arrays, with each row's
    disjunct ``gd`` numbered over the run (ascending) and disjunction ``k``
    holding disjuncts ``doff[k]:doff[k + 1]``, the other index arrays
    computed."""
    dk = np.arange(len(doff) - 1).repeat(doff[1:] - doff[:-1])
    k = dk[gd]
    rowoff = gd.searchsorted(np.arange(doff[-1] + 1))
    return CanonicalRows(start, cols, vals, rhs, gd - doff[k], source, half, rowoff[doff], k, gd, dk, doff, rowoff)


def _entries(start: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The positions of the entries of ``rows`` in a CSR with row starts
    ``start``, row after row, and the index into ``rows`` of each."""
    first = start[rows]
    lens = start[rows + 1] - first
    at = np.arange(len(rows)).repeat(lens)
    return (first - lens.cumsum() + lens)[at] + np.arange(len(at)), at


_SENSE_CODE = {s: c for c, s in enumerate(SENSES)}
# by sense code: whether a row has a <= side (a finite upper end) and a >= side
_SIDES = np.isfinite([row_range(s, 0.0)[::-1] for s in SENSES])
# by side: the sign of a side's coefficients and rhs; by sense code and
# side: whether the side is the second half of a row that has two
_SIGN = np.array([1.0, -1.0])
_HALF = _SIDES.all(axis=1)[:, None] & np.array([False, True])


def _canonical_block(disjunctions: Sequence[Disjunction]) -> CanonicalRows:
    """The canonical rows of ``disjunctions`` (see :func:`canonicalize_rows`),
    made from their rows.

    One pass reads every disjunct row's coefficients, right-hand side and
    sense into flat arrays.  Each row then gives its ``<=`` side and its
    negated ``>=`` side, where it has one, with zero coefficients dropped
    and the rest in the order of the row's dict.  One ``np.lexsort`` puts
    each disjunct's rows in the order of Python's tuples ``(sorted items,
    rhs, source row, half)``, the items padded with variable -1 so that a
    prefix sorts first (columns of a valid model are at least 0).
    """
    per_disjunction = list(map(attrgetter("disjuncts"), disjunctions))
    per_disjunct = list(map(attrgetter("rows"), chain.from_iterable(per_disjunction)))
    rows = list(chain.from_iterable(per_disjunct))
    coeffs = list(map(attrgetter("coeffs"), rows))
    R = len(rows)
    lens = np.fromiter(map(len, coeffs), np.intp, R)
    erow = np.arange(R).repeat(lens)
    cols = np.fromiter(chain.from_iterable(coeffs), np.intp, len(erow))
    vals = np.fromiter(chain.from_iterable(map(dict.values, coeffs)), float, len(erow))
    rhs = np.fromiter(map(attrgetter("rhs"), rows), float, R)
    senses = list(map(attrgetter("sense"), rows))
    try:
        code = np.fromiter(map(_SENSE_CODE.__getitem__, senses), np.intp, R)
    except (KeyError, TypeError):
        for sense in senses:
            row_range(sense, 0.0)  # raises ValueError on the first unknown sense
        raise

    # each source row's nonzero entries in dict order, and sorted by column
    keep = vals != 0.0
    erow, cols, vals = erow[keep], cols[keep], vals[keep]
    lens = np.bincount(erow, minlength=R)
    start = np.zeros(R + 1, dtype=np.intp)
    lens.cumsum(out=start[1:])
    by_var = np.lexsort((cols, erow))
    row = erow[by_var]
    p = np.arange(len(row)) - start[row]
    # sort key columns: the sorted (variable, coefficient) items, padded
    # with variable -1, below every column, so that a prefix sorts first
    var = np.full((R, int(p.max(initial=-1)) + 1), -1)
    coef = np.zeros(var.shape)
    var[row, p] = cols[by_var]
    coef[row, p] = vals[by_var]

    # the canonical rows, unsorted: each source row's <= side, then its
    # negated >= side; src is the source row, g its disjunct and i its
    # index there
    src, side = _SIDES[code].nonzero()
    sign, half = _SIGN[side], _HALF[code[src], side]
    nrows = np.fromiter(map(len, per_disjunct), np.intp, len(per_disjunct))
    g = np.arange(len(nrows)).repeat(nrows)[src]
    i = src - (nrows.cumsum() - nrows)[g]
    rhs = rhs[src] * sign
    keys = [half, i, rhs]
    var, coef = var[src], coef[src] * sign[:, None]
    for q in range(var.shape[1] - 1, -1, -1):
        keys += [coef[:, q], var[:, q]]
    order = np.lexsort(keys + [g])

    src, sign, lens = src[order], sign[order], lens[src[order]]
    cstart = np.zeros(len(order) + 1, dtype=np.intp)
    lens.cumsum(out=cstart[1:])
    # the entries of the sorted rows, as _entries(start, src) finds them
    at = np.arange(len(order)).repeat(lens)
    nz = (start[src] - cstart[:-1])[at] + np.arange(len(at))
    doff = np.zeros(len(disjunctions) + 1, dtype=np.intp)
    np.fromiter(map(len, per_disjunction), np.intp, len(disjunctions)).cumsum(out=doff[1:])
    return canonical_rows(cstart, cols[nz], vals[nz] * sign[at], rhs[order], g[order], i[order], half[order], doff)


def canonical_form(disjunctions: Sequence[Disjunction]) -> CanonicalRows:
    """The canonical rows of ``disjunctions``, in one block.

    Each disjunction caches its form: the block it was made in and its
    position there.  When the disjunctions are exactly one cached block, in
    order, that block is returned as it is.  Otherwise the rows of all of
    them are canonicalized in one batch, and the new block becomes their
    cached form.  ``align_model`` sets the form of the disjunctions it
    makes, so an aligned model is never canonicalized from its rows.

    The form is made once: a row changed after that changes neither what
    the passes write nor what :func:`validate` checks, which both read the
    form.  Make it only of rows that ``validate`` accepts: it holds their
    values as ``float`` and their columns as integers.
    """
    block = _cached_form(disjunctions)
    if block is None:
        block = _canonical_block(disjunctions)
        set_canonical_form(disjunctions, block)
    return block


def _cached_form(disjunctions: Sequence[Disjunction]) -> Optional[CanonicalRows]:
    """The cached block of ``disjunctions`` when they are exactly one, in
    order, else None."""
    cached = list(map(_CACHED, disjunctions))
    if not cached or None in cached or len(cached[0][0].first) != len(cached) + 1:
        return None
    block = cached[0][0]
    same = all(map(is_, map(itemgetter(0), cached), repeat(block)))
    return block if same and list(map(itemgetter(1), cached)) == list(range(len(cached))) else None


_CACHED = attrgetter("_canonical")


def set_canonical_form(disjunctions: Sequence[Disjunction], block: CanonicalRows) -> None:
    """Cache ``block`` as the canonical form of ``disjunctions``, which must
    be its disjunctions in order."""
    for k, d in enumerate(disjunctions):
        d.__dict__["_canonical"] = (block, k)


class _SharedRows:
    """The rows of the disjuncts of a block of canonical rows whose
    disjunctions share one coefficient matrix, made on the first read of
    any of them: row ``q`` of every disjunct of a disjunction holds the
    coefficient dict of row ``q`` of its first disjunct."""

    def __init__(self, form: CanonicalRows):
        self.form = form
        self.rows: Optional[List[Tuple[LinRow, ...]]] = None

    def disjunct(self, g: int) -> Tuple[LinRow, ...]:
        if self.rows is None:
            f = self.form
            st, cl, vl, rl = f.start.tolist(), f.cols.tolist(), f.vals.tolist(), f.rhs.tolist()
            ro, do = f.rowoff.tolist(), f.doff.tolist()
            self.rows = []
            for a, b in zip(do, do[1:]):
                coeffs = [dict(zip(cl[st[r]:st[r + 1]], vl[st[r]:st[r + 1]])) for r in range(ro[a], ro[a + 1])]
                self.rows += (tuple(map(LinRow, coeffs, rl[ro[g]:ro[g + 1]])) for g in range(a, b))
        return self.rows[g]


def shared_disjunctions(form: CanonicalRows, like: Sequence[Disjunction]) -> List[Disjunction]:
    """The disjunctions of ``form``, with the labels and indicators of
    ``like``, where every disjunct of a disjunction has the same
    coefficient vectors, row by row.

    ``form`` becomes their cached canonical form.  Each disjunct is a view:
    its rows, ``sum(vals[p] * x[cols[p]]) <= rhs[r]`` with the form's
    ``float`` rhs and coefficient dicts, are made when the rows of any
    disjunct of the block are first read.
    """
    source = _SharedRows(form)
    g = count()
    disjunctions = []
    for disj in like:
        disjuncts = []
        for d in disj.disjuncts:
            view = object.__new__(Disjunct)
            view.__dict__.update(indicator=d.indicator, _view=(source, next(g)))
            disjuncts.append(view)
        disjunctions.append(Disjunction(disjuncts, disj.label))
    set_canonical_form(disjunctions, form)
    return disjunctions


# Builtins first, so the common case skips the slower abstract-class check.
_REAL = (float, int, numbers.Real)


def _not_finite(x) -> str:
    """Why ``x`` is not a finite number, or "" when it is one."""
    if not isinstance(x, _REAL):
        return "not a number"
    try:
        return "" if math.isfinite(x) else "not finite"
    except OverflowError:  # an integer beyond float range
        return "not finite"


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) or (not _not_finite(x) and float(x).is_integer())


def validate(model: GdpModel) -> List[str]:
    """Check the model against the representation invariants.

    Returns a list of human-readable diagnostics; an empty list means the
    model is well formed.  Validation never raises: a value that is not a
    finite number where one is expected, coefficients or an objective that
    are not a ``dict`` and a name that is not a ``str`` are reported as
    diagnostics.

    A bulk check runs first.  It gathers every bound, index, coefficient and
    right-hand side into flat lists and tests each list at once: the set of
    its types, its minimum and maximum index, whether its sum is finite,
    and duplicate names through a set.  When the disjunctions are one
    cached canonical form (see :func:`canonical_form`), as every aligned
    model's are, the bulk check reads its arrays in place of the disjunct
    rows: every value and right-hand side finite, every column in range,
    no row empty.  When that passes the model is well formed.  Otherwise
    the model is walked row by row, which writes the diagnostics; a value
    the bulk check does not take (a ``Fraction``, a ``numpy`` scalar, a
    bool) may still be valid there.
    """
    if _bulk_valid(model):
        return []
    return _diagnose(model)


def _numbers(values: List) -> bool:
    """True when every value is an ``int`` or ``float`` (no bool) and their
    sum is finite, so each value is."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return math.isfinite(sum(values))
    except OverflowError:  # an integer beyond float range
        return False


def _indices(values: List, size: int) -> bool:
    """True when every value is an ``int`` (no bool) in ``range(size)``."""
    return not values or (set(map(type, values)) <= {int} and min(values) >= 0 and max(values) < size)


def _bulk_valid(model: GdpModel) -> bool:
    """True only when :func:`_diagnose` finds nothing (see :func:`validate`)."""
    if not (
        all(type(x) in (list, tuple) for x in (model.vars, model.bools, model.global_rows,
                                                model.disjunctions, model.logic))
        and set(map(type, model.vars)) <= {ContinuousVar}
        and set(map(type, model.disjunctions)) <= {Disjunction}
    ):
        return False
    nv, nb = len(model.vars), len(model.bools)
    lowers = [v.lower for v in model.vars]
    uppers = [v.upper for v in model.vars]
    per_disjunction = list(map(attrgetter("disjuncts"), model.disjunctions))
    counts = list(map(len, per_disjunction))
    disjuncts = list(chain.from_iterable(per_disjunction))
    if not set(map(type, disjuncts)) <= {Disjunct}:
        return False
    indicators = list(map(attrgetter("indicator"), disjuncts))
    # the disjunct rows: their cached canonical form, else the rows
    form = _cached_form(model.disjunctions)
    rows = list(model.global_rows)
    if form is None:
        rows += chain.from_iterable(map(attrgetter("rows"), disjuncts))
    elif not _valid_form(form, nv):
        return False
    if not set(map(type, chain(rows, model.logic))) <= {LinRow}:
        return False
    coeffs = list(map(attrgetter("coeffs"), rows))
    logic = list(map(attrgetter("coeffs"), model.logic))
    try:
        senses = set(map(attrgetter("sense"), rows))
        logic_senses = set(map(attrgetter("sense"), model.logic))
    except TypeError:  # an unhashable sense
        return False
    if not (set(map(type, chain(coeffs, logic))) <= {dict} and type(model.objective) is dict):
        return False
    # each dict once: the disjuncts of an aligned disjunction share theirs
    coeffs = list({id(c): c for c in coeffs}.values())
    per_row = list(map(dict.values, coeffs))
    logic_values = list(chain.from_iterable(map(dict.values, logic)))
    logic_values += map(attrgetter("rhs"), model.logic)
    names = [v.name for v in model.vars] + list(model.bools)
    return (
        _numbers(lowers + uppers + list(chain.from_iterable(per_row)) + list(map(attrgetter("rhs"), rows)))
        and _numbers(list(model.objective.values()))
        and all(map(le, lowers, uppers))
        and all(map(any, per_row))
        and senses <= set(SENSES)
        and _indices(list(chain.from_iterable(coeffs)), nv)
        and _indices(list(model.objective), nv)
        and min(counts, default=2) >= 2
        and _indices(indicators, nb)
        # no indicator twice in one disjunction
        and len(set(zip(chain.from_iterable(map(repeat, range(len(counts)), counts)), indicators)))
        == len(indicators)
        and logic_senses <= {LE, EQ}
        and _indices(list(chain.from_iterable(logic)), nb)
        and all(type(a) is int or (type(a) is float and a.is_integer()) for a in logic_values)
        and set(map(type, names)) <= {str}
        and len(set(names)) == len(names)
    )


def _valid_form(form: CanonicalRows, nv: int) -> bool:
    """True when every row of ``form`` has a coefficient, every column is
    in ``range(nv)`` and every value and right-hand side is finite."""
    return bool(
        (form.start[1:] > form.start[:-1]).all()
        and np.isfinite(form.vals).all()
        and np.isfinite(form.rhs).all()
        and (not form.cols.size or (form.cols.min() >= 0 and form.cols.max() < nv))
    )


def _diagnose(model: GdpModel) -> List[str]:
    """The row-by-row walk of :func:`validate`, which writes its messages."""
    diags: List[str] = []
    bools = model.bools
    if not isinstance(bools, (list, tuple)):
        diags.append("bools: not a list")
        bools = []
    nv, nb = len(model.vars), len(bools)

    def typed(x, cls: type, where: str) -> bool:
        if not isinstance(x, cls):
            diags.append(f"{where}: {x!r} is not a {cls.__name__}")
        return isinstance(x, cls)

    for i, v in enumerate(model.vars):
        if not typed(v, ContinuousVar, f"variable {i}"):
            continue
        if problem := _not_finite(v.lower) or _not_finite(v.upper):
            diags.append(f"variable {i} ({v.name}): box bound is {problem}")
        elif v.lower > v.upper:
            diags.append(
                f"variable {i} ({v.name}): lower {v.lower} exceeds upper {v.upper}"
            )

    def items(coeffs) -> Iterable:  # none when coeffs is not a dict, which is reported
        return coeffs.items() if isinstance(coeffs, dict) else ()

    def check_row(row: LinRow, where: str) -> None:
        if not typed(row, LinRow, where):
            return
        if row.sense not in SENSES:
            diags.append(f"{where}: unknown sense {row.sense!r}")
        if not isinstance(row.coeffs, dict):
            diags.append(f"{where}: coefficients are not a dict")
        elif not any(_not_finite(a) or a != 0.0 for a in row.coeffs.values()):
            diags.append(f"{where}: row has no nonzero coefficient")
        for v, a in items(row.coeffs):
            if not isinstance(v, int) or not 0 <= v < nv:
                diags.append(f"{where}: references undeclared variable {v}")
            if problem := _not_finite(a):
                diags.append(f"{where}: coefficient on variable {v} is {problem}")
        if problem := _not_finite(row.rhs):
            diags.append(f"{where}: right-hand side is {problem}")

    for gi, row in enumerate(model.global_rows):
        check_row(row, f"global row {gi}")

    for k, disj in enumerate(model.disjunctions):
        if not typed(disj, Disjunction, f"disjunction {k}"):
            continue
        tag = f"disjunction {k}" + (f" ({disj.label})" if disj.label else "")
        if len(disj.disjuncts) < 2:
            diags.append(f"{tag}: needs at least two disjuncts")
        seen = set()
        for j, d in enumerate(disj.disjuncts):
            if not typed(d, Disjunct, f"{tag}, disjunct {j}"):
                continue
            if not isinstance(d.indicator, numbers.Integral) or not 0 <= d.indicator < nb:
                diags.append(f"{tag}, disjunct {j}: undeclared indicator {d.indicator}")
            elif d.indicator in seen:
                diags.append(f"{tag}, disjunct {j}: duplicate indicator {d.indicator}")
            else:
                seen.add(d.indicator)
            for ri, row in enumerate(d.rows):
                check_row(row, f"{tag}, disjunct {j}, row {ri}")

    for li, lrow in enumerate(model.logic):
        if not typed(lrow, LinRow, f"logic row {li}"):
            continue
        if lrow.sense not in (LE, EQ):
            diags.append(f"logic row {li}: sense must be {LE} or {EQ}")
        if not isinstance(lrow.coeffs, dict):
            diags.append(f"logic row {li}: coefficients are not a dict")
        for b, a in items(lrow.coeffs):
            if not isinstance(b, numbers.Integral) or not 0 <= b < nb:
                diags.append(f"logic row {li}: references undeclared indicator {b}")
            if not _is_integer(a):
                diags.append(f"logic row {li}: non-integer coefficient {a}")
        if not _is_integer(lrow.rhs):
            diags.append(f"logic row {li}: non-integer right-hand side")

    if not isinstance(model.objective, dict):
        diags.append("objective: not a dict")
    for v, a in items(model.objective):
        if not isinstance(v, numbers.Integral) or not 0 <= v < nv:
            diags.append(f"objective: references undeclared variable {v}")
        if problem := _not_finite(a):
            diags.append(f"objective: coefficient on variable {v} is {problem}")

    names = [(f"variable {i}", v.name) for i, v in enumerate(model.vars) if isinstance(v, ContinuousVar)]
    names += [(f"indicator {b}", n) for b, n in enumerate(bools)]
    diags += [f"{where}: name {n!r} is not a string" for where, n in names if not isinstance(n, str)]
    counts = Counter(n for _, n in names if isinstance(n, str))
    for n in sorted(n for n, c in counts.items() if c > 1):
        diags.append(f"duplicate variable name {n!r}")

    return diags


def check_assignment(
    model: GdpModel,
    x: Mapping[VarId, float],
    y: Mapping[BoolId, bool],
    tol: float = 1e-6,
) -> List[str]:
    """Evaluate a candidate point against the original disjunctive program.

    ``y`` gives truth values for every indicator.  Returns a list of violated
    conditions (empty means feasible).  Used to close the loop on oracle
    witnesses and solver incumbents independently of any reformulation.
    """
    problems: List[str] = []
    for i, v in enumerate(model.vars):
        if not (v.lower - tol <= x[i] <= v.upper + tol):
            problems.append(f"variable {v.name}={x[i]} outside box [{v.lower}, {v.upper}]")
    for gi, row in enumerate(model.global_rows):
        if not row.satisfied(x, tol):
            problems.append(f"global row {gi} violated")
    for k, disj in enumerate(model.disjunctions):
        active = [j for j, d in enumerate(disj.disjuncts) if y[d.indicator]]
        if len(active) != 1:
            problems.append(
                f"disjunction {k} ({disj.label}): {len(active)} active disjuncts"
            )
            continue
        d = disj.disjuncts[active[0]]
        for ri, row in enumerate(d.rows):
            if not row.satisfied(x, tol):
                problems.append(
                    f"disjunction {k} ({disj.label}), disjunct {active[0]}, row {ri} violated"
                )
    for li, lrow in enumerate(model.logic):
        if not lrow.satisfied({b: 1 if y[b] else 0 for b in lrow.coeffs}, tol):
            problems.append(f"logic row {li} violated")
    return problems


@dataclass(frozen=True)
class MilpVar:
    name: str
    lower: float
    upper: float
    is_binary: bool = False


class RowStore:
    """The rows of a :class:`MilpModel`, in one CSR store.

    Row ``r`` has the column indices ``cols[start[r]:start[r + 1]]`` and the
    coefficients ``vals`` at the same positions, in the order they were
    written; its sense is ``senses[code[r]]``, its right-hand side
    ``rhs[r]`` and its provenance ``provenance[r]``.  ``senses`` starts as
    ``SENSES``; a row written with another sense appends it, so that a
    solver can reject it.  Rows are written in any order, as blocks with a
    sort key per row (:meth:`add_rows`, or :meth:`add` for one row keyed
    after every key a pass uses), and their coefficients as entries of row
    ids (:meth:`entries`).  :meth:`arrays` sorts the rows written since its
    last call by key, once (stably), and appends them, each with its
    entries in the order written, to the rows it joined before; the joined
    arrays are read-only.  A block's provenance strings are made when
    :attr:`provenance` is first read: solving a MILP reads none.
    """

    def __init__(self) -> None:
        self.senses: List[str] = list(SENSES)
        self._names: List = []  # provenance of the joined rows: lists of strings, or functions that make one
        self._joined = _frozen(np.zeros(1, np.int32), np.zeros(0, np.int32), np.zeros(0),
                               np.zeros(0, np.int8), np.zeros(0))
        # written since arrays(): each block's (count, k, r1, r2, r3, code,
        # rhs, provenance), and each call's (count, ids, cols, vals)
        self._rows: List[tuple] = []
        self._ents: List[tuple] = []
        self._new = 0
        self._view: Optional[Tuple[LinRow, ...]] = None

    def __len__(self) -> int:
        return len(self._joined[4]) + self._new

    def __eq__(self, other: object) -> bool:
        return self.view() == other.view() if isinstance(other, RowStore) else NotImplemented

    @property
    def provenance(self) -> List[str]:
        self.arrays()
        if any(map(callable, self._names)):
            self._names = [_made(self._names)]
        return self._names[0] if self._names else []

    def copy(self) -> RowStore:
        other = RowStore()
        other.senses = list(self.senses)
        other._names = [list(self.provenance)]
        other._joined = self.arrays()
        return other

    def add_rows(self, k: np.ndarray, r1, r2, r3, code, rhs, provenance) -> np.ndarray:
        """Append rows with sort keys ``(k, r1, r2, r3)``, sense codes into
        :attr:`senses`, right-hand sides and their provenance (a list of
        strings, or a function that makes one); returns their ids for
        :meth:`entries`.  Any field but ``k`` may be one value for all of
        the rows."""
        ids = np.arange(self._new, self._new + len(k))
        self._rows.append((len(k), k, r1, r2, r3, code, rhs, provenance))
        self._new += len(k)
        self._view = None
        return ids

    def entries(self, ids: np.ndarray, cols, vals) -> None:
        """One entry ``(cols[e], vals[e])`` at the end of row ``ids[e]``, for
        each ``e``; ``cols`` or ``vals`` may be one value for all of them.
        The ids are those :meth:`add_rows` gave since :meth:`arrays` was
        last called."""
        self._ents.append((len(ids), ids, cols, vals))

    def add(self, coeffs: Mapping[int, float], sense: str, rhs: float, provenance: str) -> None:
        """Append one row, keyed after every row a pass writes."""
        if sense not in self.senses:
            self.senses.append(sense)
        ids = self.add_rows(np.full(1, np.iinfo(np.intp).max), 0, 0, 0, self.senses.index(sense), rhs, [provenance])
        self.entries(ids.repeat(len(coeffs)), list(coeffs), list(coeffs.values()))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(start, cols, vals, code, rhs)`` of every row: ``int32`` row
        starts and column indices, ``float64`` coefficients and right-hand
        sides, ``int8`` sense codes."""
        if self._rows:
            n = self._new
            k, r1, r2, r3, code, rhs = (_join(self._rows, f) for f in range(1, 7))
            order = np.lexsort((r3, r2, r1, k))
            pos = np.empty(n, dtype=np.intp)
            pos[order] = np.arange(n)
            # each entry's row in the sorted order; the starts count them
            at = pos[_join(self._ents, 1)]
            by_row = at.argsort(kind="stable")
            start, cols, vals, codes, rhss = self._joined
            self._joined = _frozen(
                np.concatenate([start, start[-1] + np.bincount(at, minlength=n).cumsum()]).astype(np.int32),
                np.concatenate([cols, _join(self._ents, 2)[by_row]]).astype(np.int32),
                np.concatenate([vals, _join(self._ents, 3)[by_row]]).astype(float),
                np.concatenate([codes, code[order]]).astype(np.int8),
                np.concatenate([rhss, rhs[order]]).astype(float),
            )
            made = [b[7] for b in self._rows]
            self._names.append(lambda: list(map(_made(made).__getitem__, order.tolist())))
            self._rows, self._ents, self._new = [], [], 0
        return self._joined

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """The interval ``(lower, upper)`` that each row's activity must lie
        in, by :func:`row_range`; a row of unknown sense raises ``ValueError``."""
        _, _, _, code, rhs = self.arrays()
        # the meaning of each sense, from row_range: which side is rhs, which infinite
        sides = np.array([row_range(s, 0.0) for s in self.senses[: code.max(initial=-1) + 1]])
        sides = sides.reshape(-1, 2)[code]
        return (np.where(np.isinf(sides[:, 0]), sides[:, 0], rhs),
                np.where(np.isinf(sides[:, 1]), sides[:, 1], rhs))

    def view(self) -> Tuple[LinRow, ...]:
        """Every row as a :class:`LinRow`, built on the first call after a
        change."""
        if self._view is None:
            start, cols, vals, code, rhs = self.arrays()
            st, cl, vl = start.tolist(), cols.tolist(), vals.tolist()
            self._view = tuple(map(
                LinRow,
                [dict(zip(cl[a:b], vl[a:b])) for a, b in zip(st, st[1:])],
                rhs.tolist(),
                [self.senses[c] for c in code.tolist()],
                self.provenance,
            ))
        return self._view


def _join(blocks: List[tuple], f: int) -> np.ndarray:
    """Field ``f`` of ``blocks`` joined, a block's single value repeated to
    its count, field 0."""
    return np.concatenate([b[f] if type(b[f]) is np.ndarray else np.full(b[0], b[f]) for b in blocks])


def _made(parts: List) -> List[str]:
    """Provenance strings from lists of them and functions that make one."""
    return list(chain.from_iterable(p() if callable(p) else p for p in parts))


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(init=False)
class MilpModel:
    """A flat mixed-integer linear program (minimization).

    A pass starts from an empty model, appends to :attr:`variables` and
    writes its rows as keyed blocks to :attr:`store` (see
    ``RowStore.add_rows``).  The rows live in one :class:`RowStore`;
    :attr:`rows` is a read-only view of them as :class:`LinRow` objects,
    built on demand.  :meth:`add_row` appends one row after every row a
    pass writes, and ``rows`` given to the constructor are appended so to
    ``store``, which is copied.
    """

    variables: List[MilpVar]
    objective: Dict[int, float]
    name: str
    store: RowStore

    def __init__(
        self,
        variables: Optional[List[MilpVar]] = None,
        rows: Iterable[LinRow] = (),
        objective: Optional[Dict[int, float]] = None,
        name: str = "",
        store: Optional[RowStore] = None,
    ):
        self.variables = [] if variables is None else variables
        self.objective = {} if objective is None else objective
        self.name = name
        self.store = RowStore() if store is None else store.copy()
        for r in rows:
            self.add_row(r.coeffs, r.sense, r.rhs, r.provenance)

    @property
    def rows(self) -> Tuple[LinRow, ...]:
        return self.store.view()

    def add_cont(self, name: str, lower: float, upper: float) -> int:
        self.variables.append(MilpVar(name, float(lower), float(upper), False))
        return len(self.variables) - 1

    def add_bin(self, name: str) -> int:
        self.variables.append(MilpVar(name, 0.0, 1.0, True))
        return len(self.variables) - 1

    def add_row(self, coeffs: Mapping[int, float], sense: str, rhs: float, provenance: str) -> None:
        """Append a row; ``coeffs`` must hold float, nonzero coefficients
        and ``rhs`` must be a float."""
        self.store.add(coeffs, sense, rhs, provenance)

    @property
    def binary_indices(self) -> List[int]:
        return [i for i, v in enumerate(self.variables) if v.is_binary]

    @property
    def num_continuous(self) -> int:
        return sum(1 for v in self.variables if not v.is_binary)

    @property
    def num_binary(self) -> int:
        return sum(1 for v in self.variables if v.is_binary)

    def stats(self) -> Dict[str, int]:
        start, _, _, code, _ = self.store.arrays()
        by_sense = np.bincount(code, minlength=len(SENSES)).tolist()
        return {
            "continuous": self.num_continuous,
            "binary": self.num_binary,
            "rows": len(self.store),
            "rows_le": by_sense[SENSES.index(LE)],
            "rows_ge": by_sense[SENSES.index(GE)],
            "rows_eq": by_sense[SENSES.index(EQ)],
            "nonzeros": int(start[-1]),
        }
