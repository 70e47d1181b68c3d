"""LP relaxations and branch-and-bound for the reformulated MILPs.

One :class:`LpEngine` holds the LP relaxation of a MILP (binaries relaxed to
[0, 1]) as a persistent HiGHS model, built once.  Every later solve only
changes column bounds and re-runs HiGHS dual simplex, which returns an
optimal basic solution.  HiGHS presolves only a cold solve, one without a
basis in the model: a one-off root LP (``solve_lp``) is presolved, a warm
re-solve is not.  ``solve_bb`` runs a best-bound branch-and-bound on one
engine; each open node keeps the basis of its own LP, and both of its
children start from it.  Branching fixes the most fractional binary, and the
search ends on a relative optimality gap, matching how the case-study runs
are reported.  ``oracles.rhr_relaxation_mask`` re-solves one engine per grid
point.

No cutting planes and no model tightening are applied anywhere: node
relaxations are exactly the formulation being measured, so bound
comparisons between reformulations are meaningful.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np

# HiGHS through SciPy's private binding: the only module that imports it.
from scipy.optimize._highspy import _core as highs

from .model import EQ, GE, LE, MilpModel

INT_TOL = 1e-6
FEAS_TOL = 1e-7
GAP_EPS = 1e-9
PRUNE_TOL = 1e-9

LP_OPTIONS = {
    "output_flag": False,
    "solver": "simplex",
    "simplex_strategy": 1,  # serial dual simplex
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

_STATUS = {
    highs.HighsModelStatus.kOptimal: "optimal",
    highs.HighsModelStatus.kInfeasible: "infeasible",
    highs.HighsModelStatus.kUnbounded: "unbounded",
    highs.HighsModelStatus.kTimeLimit: "time_limit",
}


@dataclass
class LpResult:
    """Outcome of one LP relaxation solve."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "time_limit"
    objective: Optional[float]
    x: Optional[np.ndarray]
    nit: int = 0  # simplex iterations of this solve


@dataclass
class BBConfig:
    rel_gap: float = 1e-4
    time_limit: Optional[float] = None
    node_limit: Optional[int] = None


@dataclass
class SolveResult:
    """Outcome of a branch-and-bound run.

    ``status`` is one of:

    - ``optimal``: the search tree was exhausted; the incumbent is proven
      optimal and ``bound`` equals the incumbent.
    - ``gap_limit``: open nodes remain but the relative gap dropped to the
      configured tolerance; the incumbent is optimal within that gap.
    - ``time_limit`` / ``node_limit``: a resource limit fired first.
    - ``infeasible``: the tree was exhausted without any feasible point.

    ``objective`` is the incumbent value (``inf`` when none exists), ``gap``
    is ``(objective - bound) / max(|objective|, 1e-9)`` and ``inf`` without
    an incumbent.
    """

    status: str
    objective: float
    bound: float
    gap: float
    nodes: int
    wall_time: float
    x: Optional[np.ndarray]


class LpEngine:
    """The LP relaxation of one MILP as a persistent HiGHS model.

    The rows are compiled once; :meth:`solve` sets every column's bounds and
    re-runs the dual simplex from the basis in the model, or from ``basis``
    when one is given.
    """

    def __init__(self, model: MilpModel):
        n = len(model.variables)
        rows = model.rows
        start = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(np.fromiter((len(r.coeffs) for r in rows), np.int32, len(rows)), out=start[1:])
        nnz = int(start[-1])
        rhs = np.fromiter((r.rhs for r in rows), float, len(rows))
        sense = np.array([r.sense for r in rows], dtype=object)
        self.n = n
        self.lower = np.fromiter((v.lower for v in model.variables), float, n)
        self.upper = np.fromiter((v.upper for v in model.variables), float, n)
        self.columns = np.arange(n, dtype=np.int32)

        lp = highs.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = len(rows)
        cost = np.zeros(n)
        for v, a in model.objective.items():
            cost[v] = a
        lp.col_cost_ = cost
        lp.col_lower_ = self.lower
        lp.col_upper_ = self.upper
        lp.row_lower_ = np.where(sense == LE, -highs.kHighsInf, rhs)
        lp.row_upper_ = np.where(sense == GE, highs.kHighsInf, rhs)
        lp.a_matrix_.format_ = highs.MatrixFormat.kRowwise
        lp.a_matrix_.num_col_ = n
        lp.a_matrix_.num_row_ = len(rows)
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = np.fromiter(
            itertools.chain.from_iterable(r.coeffs for r in rows), np.int32, nnz
        )
        lp.a_matrix_.value_ = np.fromiter(
            itertools.chain.from_iterable(r.coeffs.values() for r in rows), float, nnz
        )
        self.highs = highs._Highs()
        for key, value in LP_OPTIONS.items():
            self.highs.setOptionValue(key, value)
        if self.highs.passModel(lp) == highs.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the LP of model {model.name!r}")

    def solve(
        self,
        lower: Optional[np.ndarray] = None,
        upper: Optional[np.ndarray] = None,
        basis: Optional[highs.HighsBasis] = None,
        time_limit: float = math.inf,
    ) -> LpResult:
        """Solve with the given column bounds (the model's boxes by default),
        starting from ``basis`` (from :meth:`basis`) when given, in at most
        ``time_limit`` seconds."""
        return linprog(
            self,
            self.lower if lower is None else lower,
            self.upper if upper is None else upper,
            basis,
            time_limit,
        )

    def basis(self) -> highs.HighsBasis:
        """The basis the last solve ended with, for a later warm start."""
        return self.highs.getBasis()


def linprog(
    engine: LpEngine,
    lower: np.ndarray,
    upper: np.ndarray,
    basis: Optional[highs.HighsBasis],
    time_limit: float,
) -> LpResult:
    """One HiGHS run of ``engine`` with the given bounds: the single place
    where gldp solves an LP.

    Kept as a module-level function under this name so that a profiler can
    wrap ``gldp.milp.linprog`` and see every LP; :meth:`LpEngine.solve`
    looks it up as a global on each call.  It is gldp's own function, not
    ``scipy.optimize.linprog``.  A HiGHS status other than optimal,
    infeasible, unbounded or time limit raises ``RuntimeError``.
    """
    h = engine.highs
    h.changeColsBounds(engine.n, engine.columns, lower, upper)
    if basis is not None:
        h.setBasis(basis)
    # HiGHS checks time_limit against its run clock, which adds up over
    # every run of the model, so the limit is set from that clock.
    h.setOptionValue("time_limit", h.getRunTime() + time_limit)
    h.run()
    model_status = h.getModelStatus()
    status = _STATUS.get(model_status)
    if status is None:
        raise RuntimeError(f"HiGHS LP solve ended with status {h.modelStatusToString(model_status)!r}")
    info = h.getInfo()
    if status != "optimal":
        return LpResult(status, None, None, info.simplex_iteration_count)
    return LpResult(
        "optimal",
        float(info.objective_function_value),
        np.array(h.getSolution().col_value, dtype=float),
        info.simplex_iteration_count,
    )


def solve_lp(
    model: MilpModel,
    bound_overrides: Optional[Mapping[int, Tuple[float, float]]] = None,
) -> LpResult:
    """Solve the LP relaxation of ``model`` (binary integrality dropped).

    ``bound_overrides`` replaces selected variable boxes, e.g. to fix a
    variable to a point.  All boxes must be finite, which rules out
    unbounded LPs.
    """
    engine = LpEngine(model)
    lower, upper = engine.lower.copy(), engine.upper.copy()
    for v, (lo, hi) in (bound_overrides or {}).items():
        lower[v], upper[v] = lo, hi
    return engine.solve(lower, upper)


def max_violation(model: MilpModel, x: np.ndarray) -> float:
    """Largest constraint or box violation of a point (0 when feasible)."""
    worst = 0.0
    for i, v in enumerate(model.variables):
        worst = max(worst, v.lower - x[i], x[i] - v.upper)
    for r in model.rows:
        lhs = sum(a * x[v] for v, a in r.coeffs.items())
        if r.sense == LE:
            worst = max(worst, lhs - r.rhs)
        elif r.sense == GE:
            worst = max(worst, r.rhs - lhs)
        else:
            worst = max(worst, abs(lhs - r.rhs))
    return worst


def _relative_gap(incumbent: float, bound: float) -> float:
    if not math.isfinite(incumbent):
        return math.inf
    return (incumbent - bound) / max(abs(incumbent), GAP_EPS)


def solve_bb(model: MilpModel, config: Optional[BBConfig] = None) -> SolveResult:
    """Branch-and-bound over LP relaxations.

    Best-bound node selection (ties broken toward deeper nodes, then
    insertion order); branching fixes the most fractional binary (lowest
    index on ties) to 0 and to 1, and both children's LPs start from the
    parent's basis.  Nodes are pruned by bound, infeasibility, and
    integrality.  Each LP gets what is left of ``time_limit``; one that runs
    out ends the search with status ``time_limit`` (bound ``-inf`` at the
    root).  Deterministic for a given model and configuration, apart from
    ``wall_time`` and from where a time limit falls.
    """
    cfg = config or BBConfig()
    t0 = time.perf_counter()
    engine = LpEngine(model)
    bins = np.array(model.binary_indices, dtype=int)

    nodes = 0
    incumbent = math.inf
    inc_x: Optional[np.ndarray] = None

    def result(status: str, bound: float) -> SolveResult:
        bound = min(bound, incumbent)
        return SolveResult(
            status=status,
            objective=incumbent,
            bound=bound,
            gap=max(0.0, _relative_gap(incumbent, bound)),
            nodes=nodes,
            wall_time=time.perf_counter() - t0,
            x=inc_x,
        )

    def solve(lower=None, upper=None, basis=None) -> LpResult:
        nonlocal nodes
        nodes += 1
        left = math.inf
        if cfg.time_limit is not None:
            left = max(0.0, cfg.time_limit - (time.perf_counter() - t0))
        return engine.solve(lower, upper, basis, left)

    root = solve()
    if root.status == "time_limit":
        return result("time_limit", -math.inf)
    if root.status == "infeasible":
        return result("infeasible", math.inf)
    if root.status != "optimal":
        raise RuntimeError("LP relaxation unbounded despite finite boxes")

    def most_fractional(x: np.ndarray) -> Optional[int]:
        if bins.size == 0:
            return None
        frac = np.abs(x[bins] - np.round(x[bins]))
        best = int(np.argmax(frac))
        return None if frac[best] <= INT_TOL else int(bins[best])

    counter = itertools.count()
    # (bound, -depth, order, x, lower, upper, basis)
    heap: List[tuple] = []
    if most_fractional(root.x) is None:
        incumbent = root.objective
        inc_x = root.x
        return result("optimal", incumbent)
    heapq.heappush(
        heap, (root.objective, 0, next(counter), root.x, engine.lower, engine.upper, engine.basis())
    )

    while heap:
        bound, neg_depth, _, x, lower, upper, basis = heapq.heappop(heap)
        if bound >= incumbent - PRUNE_TOL:
            continue
        if _relative_gap(incumbent, bound) <= cfg.rel_gap:
            return result("gap_limit", bound)
        if cfg.time_limit is not None and time.perf_counter() - t0 >= cfg.time_limit:
            return result("time_limit", bound)
        if cfg.node_limit is not None and nodes >= cfg.node_limit:
            return result("node_limit", bound)

        branch = most_fractional(x)
        assert branch is not None  # integral nodes never enter the heap
        for val in (0.0, 1.0):
            child_lower, child_upper = lower.copy(), upper.copy()
            child_lower[branch] = child_upper[branch] = val
            res = solve(child_lower, child_upper, basis)
            if res.status == "time_limit":
                return result("time_limit", bound)
            if res.status != "optimal":
                continue
            child_bound = max(res.objective, bound)  # keep bounds monotone
            if child_bound >= incumbent - PRUNE_TOL:
                continue
            if most_fractional(res.x) is None:
                incumbent = res.objective
                inc_x = res.x
            else:
                heapq.heappush(
                    heap,
                    (child_bound, neg_depth - 1, next(counter), res.x,
                     child_lower, child_upper, engine.basis()),
                )

    if inc_x is None:
        return result("infeasible", math.inf)
    return result("optimal", incumbent)
