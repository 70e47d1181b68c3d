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
strings.  Passes append whole blocks of rows as arrays and single rows one
at a time; ``MilpModel.rows`` is a read-only view of the store as
:class:`LinRow` objects, built when it is first read after a change.

A disjunction's canonical rows (:func:`canonicalize_rows`, every disjunct
at once) are kept as :class:`CanonicalRows` arrays, cached on the frozen
:class:`Disjunction` by :func:`canonical_form`, or set by ``align_model``
for the disjunctions it makes.

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
from itertools import chain
from operator import attrgetter, le
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
    """One alternative of a disjunction: an indicator plus its linear rows."""

    indicator: BoolId
    rows: Tuple[LinRow, ...]

    def __init__(self, indicator: BoolId, rows: Iterable[LinRow]):
        object.__setattr__(self, "indicator", indicator)
        object.__setattr__(self, "rows", tuple(rows))


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


def _as_le_rows(row: LinRow) -> List[LinRow]:
    """Rewrite a row as one or two ``<=`` rows with zero coefficients dropped.

    A row that is already canonical (``<=``, float coefficients, none zero,
    a float right-hand side, no provenance) is returned as it is.
    """
    values = row.coeffs.values()
    if (
        row.sense == LE
        and type(row.rhs) is float
        and not row.provenance
        and set(map(type, values)) == {float}
        and 0.0 not in values
    ):
        return [row]
    coeffs = {v: float(a) for v, a in row.coeffs.items() if a != 0.0}
    lo, hi = row_range(row.sense, float(row.rhs))
    rows: List[LinRow] = []
    if hi < math.inf:
        rows.append(LinRow(coeffs, hi))
    if lo > -math.inf:
        rows.append(LinRow({v: -a for v, a in coeffs.items()}, -lo))
    return rows


def _canonical_entries(disjunct: Disjunct) -> List[Tuple[tuple, float, int, int, LinRow]]:
    """The canonical rows of a disjunct (see :func:`canonicalize_rows`), in
    order, each as its sorted coefficient items, its right-hand side, the
    index of the disjunct's row it comes from, its half (1 for the ``>=``
    side of an equality, else 0) and the row.  No two entries tie before
    the row: the halves of an equality differ in their items."""
    entries = [
        (tuple(sorted(r.coeffs.items())), r.rhs, i, h, r)
        for i, row in enumerate(disjunct.rows)
        for h, r in enumerate(_as_le_rows(row))
    ]
    entries.sort()
    return entries


def canonicalize_rows(disjunct: Disjunct) -> Disjunct:
    """Normalize a disjunct to ``<=``-only rows in a deterministic order.

    ``>=`` rows are negated, equalities are split into a ``<=`` pair, and the
    result is sorted lexicographically by coefficient vector with ties broken
    by right-hand side.  The operation is idempotent and preserves the
    disjunct's feasible set.
    """
    return Disjunct(disjunct.indicator, [e[-1] for e in _canonical_entries(disjunct)])


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
    start: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray, disjunct: np.ndarray,
    source: np.ndarray, half: np.ndarray, first: np.ndarray, counts: Sequence[int],
) -> CanonicalRows:
    """A :class:`CanonicalRows` of the given arrays, whose disjunctions have
    ``counts`` disjuncts, with the index arrays computed."""
    K = len(counts)
    doff = np.zeros(K + 1, dtype=np.intp)
    doff[1:] = np.cumsum(counts)
    k = np.repeat(np.arange(K), first[1:] - first[:-1])
    gd = doff[k] + disjunct
    rowoff = np.zeros(doff[-1] + 1, dtype=np.intp)
    rowoff[1:] = np.bincount(gd, minlength=doff[-1]).cumsum()
    dk = np.repeat(np.arange(K), counts)
    return CanonicalRows(start, cols, vals, rhs, disjunct, source, half, first, k, gd, dk, doff, rowoff)


def _canonical_block(disjunctions: Sequence[Disjunction]) -> CanonicalRows:
    """The canonical rows of ``disjunctions``, made from their rows."""
    rows: List[LinRow] = []
    tags: List[Tuple[int, int, int]] = []
    first = [0]
    for disj in disjunctions:
        for j, d in enumerate(disj.disjuncts):
            for _, _, i, h, r in _canonical_entries(d):
                rows.append(r)
                tags.append((j, i, h))
        first.append(len(rows))
    coeffs = list(map(attrgetter("coeffs"), rows))
    start = np.zeros(len(rows) + 1, dtype=np.intp)
    start[1:] = np.fromiter(map(len, coeffs), np.intp, len(rows)).cumsum()
    j, i, h = np.array(tags, dtype=np.intp).reshape(-1, 3).T
    return canonical_rows(
        start,
        np.fromiter(chain.from_iterable(coeffs), np.intp, start[-1]),
        np.fromiter(chain.from_iterable(map(dict.values, coeffs)), float, start[-1]),
        np.fromiter(map(attrgetter("rhs"), rows), float, len(rows)),
        j,
        i,
        h.astype(bool),
        np.array(first, dtype=np.intp),
        [len(d.disjuncts) for d in disjunctions],
    )


def canonical_form(disjunctions: Sequence[Disjunction]) -> CanonicalRows:
    """The canonical rows of ``disjunctions``, in one block.

    Each disjunction caches its form: the block it was made in and its
    position there.  When the disjunctions are exactly one cached block, in
    order, that block is returned as it is.  Otherwise the rows of all of
    them are canonicalized in one batch, and the new block becomes their
    cached form.  ``align_model`` sets the form of the disjunctions it
    makes, so an aligned model is never canonicalized from its rows.
    """
    cached = [d.__dict__.get("_canonical") for d in disjunctions]
    block = cached[0][0] if cached and cached[0] is not None else None
    if block is not None and len(block.first) == len(cached) + 1 and all(
        c is not None and c[0] is block and c[1] == k for k, c in enumerate(cached)
    ):
        return block
    block = _canonical_block(disjunctions)
    set_canonical_form(disjunctions, block)
    return block


def set_canonical_form(disjunctions: Sequence[Disjunction], block: CanonicalRows) -> None:
    """Cache ``block`` as the canonical form of ``disjunctions``, which must
    be its disjunctions in order."""
    for k, d in enumerate(disjunctions):
        d.__dict__["_canonical"] = (block, k)


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
    and duplicate names through a set.  When that passes the model is well
    formed.  Otherwise the model is walked row by row, which writes the
    diagnostics; a value the bulk check does not take (a ``Fraction``, a
    ``numpy`` scalar, a bool) may still be valid there.
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
    disjuncts = list(chain.from_iterable(d.disjuncts for d in model.disjunctions))
    if not set(map(type, disjuncts)) <= {Disjunct}:
        return False
    rows = list(chain(model.global_rows, chain.from_iterable(map(attrgetter("rows"), disjuncts))))
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
        and all(len(d.disjuncts) >= 2 for d in model.disjunctions)
        and _indices(list(map(attrgetter("indicator"), disjuncts)), nb)
        and all(
            len(set(map(attrgetter("indicator"), d.disjuncts))) == len(d.disjuncts)
            for d in model.disjunctions
        )
        and logic_senses <= {LE, EQ}
        and _indices(list(chain.from_iterable(logic)), nb)
        and all(type(a) is int or (type(a) is float and a.is_integer()) for a in logic_values)
        and set(map(type, names)) <= {str}
        and len(set(names)) == len(names)
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
    solver can reject it.  Rows come one at a time (:meth:`add`) or as a
    block of arrays (:meth:`add_block`); :meth:`arrays` joins them once, and
    the joined arrays are read-only.  A block's provenance strings are made
    when :attr:`provenance` is first read: solving a MILP reads none.
    """

    def __init__(self) -> None:
        self.senses: List[str] = list(SENSES)
        self._count = 0
        self._names: List = []  # provenance: lists of strings, or functions that make one
        self._joined = _frozen(np.zeros(1, np.int32), np.zeros(0, np.int32), np.zeros(0),
                               np.zeros(0, np.int8), np.zeros(0))
        self._blocks: List[Tuple[np.ndarray, ...]] = []  # (lens, cols, vals, code, rhs), not yet joined
        self._single: Tuple[List, ...] = ([], [], [], [], [])
        self._view: Optional[Tuple[LinRow, ...]] = None

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other: object) -> bool:
        return self.view() == other.view() if isinstance(other, RowStore) else NotImplemented

    @property
    def provenance(self) -> List[str]:
        if any(map(callable, self._names)):
            self._names = [list(chain.from_iterable(p() if callable(p) else p for p in self._names))]
        return self._names[0] if self._names else []

    def copy(self) -> RowStore:
        other = RowStore()
        other.senses = list(self.senses)
        other._count = self._count
        other._names = [list(self.provenance)]
        other._joined = self.arrays()
        return other

    def add(self, coeffs: Mapping[int, float], sense: str, rhs: float, provenance: str) -> None:
        if sense not in self.senses:
            self.senses.append(sense)
        lens, cols, vals, code, rhss = self._single
        lens.append(len(coeffs))
        cols.extend(coeffs)
        vals.extend(coeffs.values())
        code.append(self.senses.index(sense))
        rhss.append(rhs)
        if not self._names or callable(self._names[-1]):
            self._names.append([])
        self._names[-1].append(provenance)
        self._count += 1
        self._view = None

    def add_block(self, lens: np.ndarray, cols: np.ndarray, vals: np.ndarray, code: np.ndarray,
                  rhs: np.ndarray, provenance: Callable[[], List[str]]) -> None:
        """Append rows with ``lens[r]`` coefficients each, read in turn from
        ``cols`` and ``vals``, sense codes into ``SENSES``, and a function
        that makes their provenance strings."""
        self._flush()
        self._blocks.append((lens, cols, vals, code, rhs))
        self._names.append(provenance)
        self._count += len(lens)
        self._view = None

    def _flush(self) -> None:
        if self._single[0]:
            self._blocks.append(tuple(map(np.array, self._single)))
            self._single = ([], [], [], [], [])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(start, cols, vals, code, rhs)`` of every row: ``int32`` row
        starts and column indices, ``float64`` coefficients and right-hand
        sides, ``int8`` sense codes."""
        self._flush()
        if self._blocks:
            start, *rest = self._joined
            blocks = [(np.diff(start), *rest)] + self._blocks
            lens, cols, vals, code, rhs = (np.concatenate([b[f] for b in blocks]) for f in range(5))
            start = np.zeros(len(lens) + 1, dtype=np.int32)
            np.cumsum(lens, out=start[1:])
            self._joined = _frozen(start, cols.astype(np.int32), vals.astype(float),
                                   code.astype(np.int8), rhs.astype(float))
            self._blocks = []
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


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(init=False)
class MilpModel:
    """A flat mixed-integer linear program (minimization).

    A pass starts from an empty model and fills it with :meth:`add_cont`,
    :meth:`add_bin`, :meth:`add_row` and ``store.add_block``.  The rows live
    in one :class:`RowStore`; :attr:`rows` is a read-only view of them as
    :class:`LinRow` objects, built on demand.  ``rows`` given to the
    constructor are appended to ``store``, which is copied.
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
