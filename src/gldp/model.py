"""In-memory representations of linear disjunctive programs and MILPs.

A :class:`GdpModel` holds box-bounded continuous variables, named binary
indicators, global linear rows, exclusive-or disjunctions, and pre-linearized
logic rows over the indicators.  Objectives are linear in the continuous
variables and always minimized.

A :class:`MilpModel` is the flat mixed-integer program produced by the
reformulation passes in :mod:`gldp.reformulate`.  Every MILP row carries a
provenance tag naming the pass and source entity that produced it.

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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

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


def _row_sort_key(row: LinRow) -> tuple:
    return (tuple(sorted(row.coeffs.items())), row.rhs)


def _as_le_rows(row: LinRow) -> List[LinRow]:
    """Rewrite a row as one or two ``<=`` rows with zero coefficients dropped."""
    coeffs = {v: float(a) for v, a in row.coeffs.items() if a != 0.0}
    lo, hi = row_range(row.sense, float(row.rhs))
    rows: List[LinRow] = []
    if hi < math.inf:
        rows.append(LinRow(coeffs, hi))
    if lo > -math.inf:
        rows.append(LinRow({v: -a for v, a in coeffs.items()}, -lo))
    return rows


def canonicalize_rows(disjunct: Disjunct) -> Disjunct:
    """Normalize a disjunct to ``<=``-only rows in a deterministic order.

    ``>=`` rows are negated, equalities are split into a ``<=`` pair, and the
    result is sorted lexicographically by coefficient vector with ties broken
    by right-hand side.  The operation is idempotent and preserves the
    disjunct's feasible set.
    """
    rows: List[LinRow] = []
    for row in disjunct.rows:
        rows.extend(_as_le_rows(row))
    rows.sort(key=_row_sort_key)
    return Disjunct(disjunct.indicator, rows)


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
    finite number where one is expected is reported as a diagnostic.
    """
    diags: List[str] = []
    nv, nb = len(model.vars), len(model.bools)

    for i, v in enumerate(model.vars):
        if problem := _not_finite(v.lower) or _not_finite(v.upper):
            diags.append(f"variable {i} ({v.name}): box bound is {problem}")
        elif v.lower > v.upper:
            diags.append(
                f"variable {i} ({v.name}): lower {v.lower} exceeds upper {v.upper}"
            )

    def check_row(row: LinRow, where: str) -> None:
        if row.sense not in SENSES:
            diags.append(f"{where}: unknown sense {row.sense!r}")
        if not row.coeffs or all(a == 0.0 for a in row.coeffs.values()):
            diags.append(f"{where}: row has no nonzero coefficient")
        for v, a in row.coeffs.items():
            if not isinstance(v, int) or not 0 <= v < nv:
                diags.append(f"{where}: references undeclared variable {v}")
            if problem := _not_finite(a):
                diags.append(f"{where}: coefficient on variable {v} is {problem}")
        if problem := _not_finite(row.rhs):
            diags.append(f"{where}: right-hand side is {problem}")

    for gi, row in enumerate(model.global_rows):
        check_row(row, f"global row {gi}")

    for k, disj in enumerate(model.disjunctions):
        tag = f"disjunction {k}" + (f" ({disj.label})" if disj.label else "")
        if len(disj.disjuncts) < 2:
            diags.append(f"{tag}: needs at least two disjuncts")
        seen = set()
        for j, d in enumerate(disj.disjuncts):
            if not isinstance(d.indicator, numbers.Integral) or not 0 <= d.indicator < nb:
                diags.append(f"{tag}, disjunct {j}: undeclared indicator {d.indicator}")
            elif d.indicator in seen:
                diags.append(f"{tag}, disjunct {j}: duplicate indicator {d.indicator}")
            else:
                seen.add(d.indicator)
            for ri, row in enumerate(d.rows):
                check_row(row, f"{tag}, disjunct {j}, row {ri}")

    for li, lrow in enumerate(model.logic):
        if lrow.sense not in (LE, EQ):
            diags.append(f"logic row {li}: sense must be {LE} or {EQ}")
        for b, a in lrow.coeffs.items():
            if not isinstance(b, numbers.Integral) or not 0 <= b < nb:
                diags.append(f"logic row {li}: references undeclared indicator {b}")
            if not _is_integer(a):
                diags.append(f"logic row {li}: non-integer coefficient {a}")
        if not _is_integer(lrow.rhs):
            diags.append(f"logic row {li}: non-integer right-hand side")

    for v in model.objective:
        if not isinstance(v, numbers.Integral) or not 0 <= v < nv:
            diags.append(f"objective: references undeclared variable {v}")

    counts = Counter([v.name for v in model.vars] + list(model.bools))
    for n in sorted((n for n, c in counts.items() if c > 1), key=str):
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


@dataclass
class MilpModel:
    """A flat mixed-integer linear program (minimization).

    A pass starts from an empty model and fills it with :meth:`add_cont`,
    :meth:`add_bin` and :meth:`add_row`.
    """

    variables: List[MilpVar] = field(default_factory=list)
    rows: List[LinRow] = field(default_factory=list)
    objective: Dict[int, float] = field(default_factory=dict)
    name: str = ""

    def add_cont(self, name: str, lower: float, upper: float) -> int:
        self.variables.append(MilpVar(name, float(lower), float(upper), False))
        return len(self.variables) - 1

    def add_bin(self, name: str) -> int:
        self.variables.append(MilpVar(name, 0.0, 1.0, True))
        return len(self.variables) - 1

    def add_row(
        self, coeffs: Mapping[int, float], sense: str, rhs: float, provenance: str
    ) -> None:
        clean = {v: float(a) for v, a in coeffs.items() if a != 0.0}
        self.rows.append(LinRow(clean, float(rhs), sense, provenance))

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
        by_sense = {LE: 0, GE: 0, EQ: 0}
        for r in self.rows:
            by_sense[r.sense] += 1
        return {
            "continuous": self.num_continuous,
            "binary": self.num_binary,
            "rows": len(self.rows),
            "rows_le": by_sense[LE],
            "rows_ge": by_sense[GE],
            "rows_eq": by_sense[EQ],
            "nonzeros": sum(len(r.coeffs) for r in self.rows),
        }
