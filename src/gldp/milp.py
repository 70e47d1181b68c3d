"""LP relaxations and branch-and-bound for the reformulated MILPs.

One :class:`LpEngine` holds the LP relaxation of a MILP (binaries relaxed to
[0, 1]) as a persistent HiGHS model, built once from the arrays of the
MILP's row store, which the array overload of ``passModel`` hands HiGHS
row-wise as they are; no row is read in Python, and no ``HighsLp`` is
built.  Every later solve only
changes column bounds and re-runs HiGHS dual simplex, which returns an
optimal basic solution.  No LP is presolved, cold or warm: on these models
HiGHS's presolve costs more than the simplex solve it prepares.  The dual
simplex prices with devex.  When HiGHS ends a solve with a status other than
optimal, infeasible, unbounded or time limit (such as ``Unknown``, seen on
warm devex solves), the solver state is cleared and the same bounds are
solved once more cold, by the same deadline; only a second such status
raises.  ``solve_bb`` runs a best-bound branch-and-bound on one
engine; each open node keeps the basis of its own LP, and both of its
children start from it.  Branching fixes the most fractional binary, and the
search ends on a relative optimality gap, matching how the case-study runs
are reported.  The root and every child take one path: solve the node's LP,
then stop on the time limit, drop an infeasible or bound-pruned node, take
an integral one as the incumbent, or queue it.  An unbounded LP raises at
any node, though with finite boxes it can only happen at the root.
``oracles.rhr_relaxation_mask`` re-solves one engine per grid point.

HiGHS comes from SciPy's private binding, imported when the first
:class:`LpEngine` is built, or when :func:`solve_bb` starts, before its
clock: importing ``scipy.optimize`` takes about half a second, which a
session that solves no LP does not pay.

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
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from .model import MilpModel

if TYPE_CHECKING:
    from scipy.optimize._highspy._core import HighsBasis

INT_TOL = 1e-6
GAP_EPS = 1e-9
PRUNE_TOL = 1e-9

LP_OPTIONS = {
    "output_flag": False,
    "solver": "simplex",
    "simplex_strategy": 1,  # serial dual simplex
    # Presolve costs more than the simplex solve on these models, and only a
    # cold solve (each engine's first) would run it.
    "presolve": "off",
    # Devex dual pricing: cheaper per iteration than the default dual steepest
    # edge, and it halves B&B time on the largest hull models.
    "simplex_dual_edge_weight_strategy": 1,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
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
        start, index, value, _, _ = model.store.arrays()
        row_lower, row_upper = model.store.bounds()
        self.n = n
        self.lower = np.fromiter((v.lower for v in model.variables), float, n)
        self.upper = np.fromiter((v.upper for v in model.variables), float, n)
        self.columns = np.arange(n, dtype=np.int32)

        # SciPy's private HiGHS binding: this module is the only one that names it.
        from scipy.optimize._highspy import _core as highs

        s = highs.HighsModelStatus
        # HiGHS model status -> LpResult status, read by linprog.
        self.statuses = {
            s.kOptimal: "optimal",
            s.kInfeasible: "infeasible",
            s.kUnbounded: "unbounded",
            s.kTimeLimit: "time_limit",
        }
        cost = np.zeros(n)
        cost[list(model.objective)] = list(model.objective.values())
        self.highs = highs._Highs()
        for key, option in LP_OPTIONS.items():
            self.highs.setOptionValue(key, option)
        # The array overload: int32 starts and indices, float64 for the rest,
        # and a full-length integrality array (all continuous).
        status = self.highs.passModel(
            n, len(row_lower), len(index), int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize),
            0.0, cost, self.lower, self.upper, row_lower, row_upper, start, index, value,
            np.zeros(n, np.int32),
        )
        if status == highs.HighsStatus.kError:
            raise RuntimeError(f"HiGHS rejected the LP of model {model.name!r}")

    def solve(
        self,
        lower: Optional[np.ndarray] = None,
        upper: Optional[np.ndarray] = None,
        basis: Optional[HighsBasis] = None,
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

    def basis(self) -> HighsBasis:
        """The basis the last solve ended with, for a later warm start."""
        return self.highs.getBasis()


def linprog(
    engine: LpEngine,
    lower: np.ndarray,
    upper: np.ndarray,
    basis: Optional[HighsBasis],
    time_limit: float,
) -> LpResult:
    """One HiGHS run of ``engine`` with the given bounds: the single place
    where gldp solves an LP.

    Kept as a module-level function under this name so that a profiler can
    wrap ``gldp.milp.linprog`` and see every LP; :meth:`LpEngine.solve`
    looks it up as a global on each call.  It is gldp's own function, not
    ``scipy.optimize.linprog``.  A HiGHS status other than optimal,
    infeasible, unbounded or time limit is retried once cold, with the
    solver state cleared, in what is left of ``time_limit``; a second one
    raises ``RuntimeError``.
    """
    h = engine.highs
    h.changeColsBounds(engine.n, engine.columns, lower, upper)
    if basis is not None:
        h.setBasis(basis)
    # HiGHS checks time_limit against its run clock, which adds up over
    # every run of the model, so the limit is set from that clock.
    h.setOptionValue("time_limit", h.getRunTime() + time_limit)
    h.run()
    # Two single reads cost about 1 us; the whole getInfo() about 12 us.
    nit = h.getInfoValue("simplex_iteration_count")[1]
    status = engine.statuses.get(h.getModelStatus())
    if status is None:
        # Clearing the solver keeps the model, its bounds and the run clock,
        # so the retry starts cold and stops at the same time limit.
        h.clearSolver()
        h.run()
        nit += h.getInfoValue("simplex_iteration_count")[1]
        model_status = h.getModelStatus()
        status = engine.statuses.get(model_status)
        if status is None:
            raise RuntimeError(
                f"HiGHS LP solve ended with status {h.modelStatusToString(model_status)!r},"
                " also when retried cold"
            )
    if status != "optimal":
        return LpResult(status, None, None, nit)
    return LpResult(
        "optimal",
        float(h.getObjectiveValue()),
        np.array(h.getSolution().col_value, dtype=float),
        nit,
    )


def solve_lp(model: MilpModel) -> LpResult:
    """Solve the LP relaxation of ``model`` (binary integrality dropped).

    All boxes must be finite, which rules out unbounded LPs.  For other
    column bounds, use ``LpEngine(model).solve(lower, upper)``.
    """
    return LpEngine(model).solve()


def max_violation(model: MilpModel, x: np.ndarray) -> float:
    """Largest constraint or box violation of a point (0 when feasible)."""
    x = np.asarray(x, dtype=float)
    start, cols, vals, _, _ = model.store.arrays()
    row_lower, row_upper = model.store.bounds()
    rows = np.repeat(np.arange(len(row_lower)), np.diff(start))
    activity = np.bincount(rows, vals * x[cols], minlength=len(row_lower))
    lower = np.fromiter((v.lower for v in model.variables), float, len(model.variables))
    upper = np.fromiter((v.upper for v in model.variables), float, len(model.variables))
    gaps = (lower - x, x - upper, row_lower - activity, activity - row_upper)
    return float(max([0.0] + [g.max() for g in gaps if g.size]))


def _relative_gap(incumbent: float, bound: float) -> float:
    if not math.isfinite(incumbent):
        return math.inf
    return (incumbent - bound) / max(abs(incumbent), GAP_EPS)


def solve_bb(model: MilpModel, config: Optional[BBConfig] = None) -> SolveResult:
    """Branch-and-bound over LP relaxations.

    Best-bound node selection (ties broken toward deeper nodes, then
    insertion order); branching fixes the most fractional binary (lowest
    index on ties) to 0 and to 1, and both children's LPs start from the
    parent's basis.  The root is a node like any other, with parent bound
    ``-inf`` and depth 0.  Nodes are pruned by bound, infeasibility, and
    integrality.  Each LP gets what is left of ``time_limit``; one that runs
    out ends the search with status ``time_limit`` (bound ``-inf`` at the
    root).  Deterministic for a given model and configuration, apart from
    ``wall_time`` and from where a time limit falls.
    """
    cfg = config or BBConfig()
    # The first import of the HiGHS binding takes about half a second; it
    # happens before the clock starts, so that it costs this solve neither
    # wall_time nor time_limit.
    import scipy.optimize._highspy._core  # noqa: F401

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

    def most_fractional(x: np.ndarray) -> Optional[int]:
        if bins.size == 0:
            return None
        frac = np.abs(x[bins] - np.round(x[bins]))
        best = int(np.argmax(frac))
        return None if frac[best] <= INT_TOL else int(bins[best])

    counter = itertools.count()
    # (bound, -depth, order, branch variable, lower, upper, basis)
    heap: List[tuple] = []

    def visit(lower, upper, basis, parent_bound: float, depth: int) -> bool:
        """Solve a node's LP and decide the node: drop it when infeasible or
        pruned by bound, take it as the incumbent when integral, else queue
        it.  Returns False when the time limit stopped the LP."""
        nonlocal nodes, incumbent, inc_x
        nodes += 1
        left = math.inf
        if cfg.time_limit is not None:
            left = max(0.0, cfg.time_limit - (time.perf_counter() - t0))
        res = engine.solve(lower, upper, basis, left)
        if res.status == "time_limit":
            return False
        if res.status == "unbounded":
            raise RuntimeError("LP relaxation unbounded despite finite boxes")
        if res.status == "infeasible":
            return True
        node_bound = max(res.objective, parent_bound)  # keep bounds monotone
        if node_bound >= incumbent - PRUNE_TOL:
            return True
        branch = most_fractional(res.x)
        if branch is None:
            incumbent, inc_x = res.objective, res.x
        else:
            heapq.heappush(
                heap, (node_bound, -depth, next(counter), branch, lower, upper, engine.basis())
            )
        return True

    if not visit(engine.lower, engine.upper, None, -math.inf, 0):
        return result("time_limit", -math.inf)
    while heap:
        bound, neg_depth, _, branch, lower, upper, basis = heapq.heappop(heap)
        if bound >= incumbent - PRUNE_TOL:
            continue
        if _relative_gap(incumbent, bound) <= cfg.rel_gap:
            return result("gap_limit", bound)
        if cfg.time_limit is not None and time.perf_counter() - t0 >= cfg.time_limit:
            return result("time_limit", bound)
        if cfg.node_limit is not None and nodes >= cfg.node_limit:
            return result("node_limit", bound)

        for val in (0.0, 1.0):
            child_lower, child_upper = lower.copy(), upper.copy()
            child_lower[branch] = child_upper[branch] = val
            if not visit(child_lower, child_upper, basis, bound, 1 - neg_depth):
                return result("time_limit", bound)

    if inc_x is None:
        return result("infeasible", math.inf)
    return result("optimal", incumbent)
