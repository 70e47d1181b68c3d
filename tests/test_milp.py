import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gldp import (
    EQ,
    GE,
    LE,
    BBConfig,
    ContinuousVar,
    Disjunct,
    Disjunction,
    GdpModel,
    LinRow,
    MilpModel,
    MilpVar,
    align_model,
    build_gp,
    build_ip,
    build_ts,
    gen_scheduling,
    gen_strip,
    max_violation,
    reformulate_bigm,
    reformulate_hull,
    reformulate_rhr,
    sched_oracle,
    solve_bb,
    strip_oracle,
    solve_lp,
)
from gldp.bench import build_model, reformulate_model
from gldp.milp import LpEngine

SRC = Path(__file__).resolve().parent.parent / "src"


def box_lp():
    return MilpModel(
        variables=[MilpVar("x", 3.0, 10.0)],
        rows=[],
        objective={0: 1.0},
        name="box",
    )


def test_box_only_lp():
    res = solve_lp(box_lp())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0)
    assert res.x[0] == pytest.approx(3.0)


def test_lp_bound_overrides():
    res = LpEngine(box_lp()).solve(np.array([7.0]), np.array([7.0]))
    assert res.objective == pytest.approx(7.0)


def test_lp_infeasible_status():
    m = MilpModel(
        variables=[MilpVar("x", 0.0, 1.0)],
        rows=[LinRow({0: 1.0}, -1.0, LE, "r")],
        objective={0: 1.0},
    )
    assert solve_lp(m).status == "infeasible"


def test_lp_rejects_an_unknown_row_sense():
    m = MilpModel(
        variables=[MilpVar("x", 0.0, 10.0)],
        rows=[LinRow({0: 1.0}, 4.0, "<", "r")],
        objective={0: 1.0},
    )
    with pytest.raises(ValueError, match="unknown row sense '<'"):
        solve_lp(m)


def interval_union_with_floor():
    """[x <= 2] v [x >= 5], x in [0, 10], global x >= 3, min x."""
    return GdpModel(
        vars=[ContinuousVar("x", 0.0, 10.0)],
        bools=["y1", "y2"],
        objective={0: 1.0},
        global_rows=[LinRow({0: -1.0}, -3.0)],
        disjunctions=[
            Disjunction(
                [
                    Disjunct(0, [LinRow({0: 1.0}, 2.0)]),
                    Disjunct(1, [LinRow({0: -1.0}, -5.0)]),
                ]
            )
        ],
        logic=[],
    )


def test_bm_and_hull_relaxations_admit_the_floor():
    m = interval_union_with_floor()
    z_bm = solve_lp(reformulate_bigm(m)).objective
    z_hr = solve_lp(reformulate_hull(m)).objective
    z_rhr = solve_lp(reformulate_rhr(align_model(m))).objective
    assert z_bm == pytest.approx(3.0, abs=1e-9)
    assert z_hr == pytest.approx(3.0, abs=1e-9)
    assert z_rhr == pytest.approx(3.0, abs=1e-9)
    # the integer optimum sits at x = 5
    assert solve_bb(reformulate_bigm(m)).objective == pytest.approx(5.0, abs=1e-6)


def test_hull_and_rhr_roots_agree_on_time_slot_models():
    for seed in range(5):
        m = build_ts(gen_scheduling(5, seed))
        z_hr = solve_lp(reformulate_hull(m)).objective
        z_rhr = solve_lp(reformulate_rhr(m)).objective
        assert z_hr == pytest.approx(z_rhr, abs=1e-6)


def test_lp_solutions_satisfy_rows():
    for seed in range(4):
        milp = reformulate_hull(build_gp(gen_scheduling(4, seed)))
        res = solve_lp(milp)
        assert res.status == "optimal"
        assert max_violation(milp, res.x) <= 1e-7
        recomputed = sum(a * res.x[v] for v, a in milp.objective.items())
        assert abs(recomputed - res.objective) <= 1e-7


def test_bb_two_job_instance_is_exact_and_optimal():
    inst = gen_scheduling(2, 5)
    opt = sched_oracle(inst).optimum
    for reform in (reformulate_bigm, reformulate_hull):
        res = solve_bb(reform(build_gp(inst)))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(opt, abs=1e-6)
        assert res.bound <= res.objective + 1e-6


def test_bb_solves_at_root_when_logic_fixes_binaries():
    m = GdpModel(
        vars=[ContinuousVar("x", 0.0, 10.0)],
        bools=["y1", "y2"],
        objective={0: 1.0},
        global_rows=[],
        disjunctions=[
            Disjunction(
                [
                    Disjunct(0, [LinRow({0: -1.0}, -5.0)]),
                    Disjunct(1, [LinRow({0: 1.0}, 2.0)]),
                ]
            )
        ],
        logic=[LinRow({0: 1}, 1, EQ)],
    )
    res = solve_bb(reformulate_bigm(m))
    assert res.status == "optimal" and res.nodes == 1
    assert res.objective == pytest.approx(5.0)


def test_bb_infeasible_model():
    m = MilpModel(
        variables=[MilpVar("x", 0.0, 1.0), MilpVar("y", 0.0, 1.0, True)],
        rows=[LinRow({0: 1.0, 1: 1.0}, -1.0, LE, "r")],
        objective={0: 1.0},
    )
    res = solve_bb(m)
    assert res.status == "infeasible"
    assert res.objective == math.inf and res.x is None and res.gap == math.inf


def test_bb_node_limit():
    milp = reformulate_bigm(build_gp(gen_scheduling(6, 0)))
    res = solve_bb(milp, BBConfig(node_limit=3))
    assert res.status == "node_limit"
    assert res.nodes <= 5  # the pending pop costs at most one more expansion


def test_bb_time_limit():
    milp = reformulate_bigm(build_gp(gen_scheduling(7, 0)))
    res = solve_bb(milp, BBConfig(time_limit=0.0))
    assert res.status == "time_limit"


def test_bb_determinism():
    milp = reformulate_bigm(build_gp(gen_scheduling(5, 9)))
    a = solve_bb(milp)
    b = solve_bb(milp)
    assert (a.status, a.objective, a.bound, a.gap, a.nodes) == (
        b.status,
        b.objective,
        b.bound,
        b.gap,
        b.nodes,
    )
    assert np.array_equal(a.x, b.x)


def test_bb_bound_monotone_and_below_incumbent():
    # Runs with a growing node limit are prefixes of one deterministic search.
    milp = reformulate_bigm(build_gp(gen_scheduling(6, 3)))
    runs = []
    limit = 1
    while not runs or runs[-1].status == "node_limit":
        runs.append(solve_bb(milp, BBConfig(rel_gap=0.0, node_limit=limit)))
        limit *= 2
    optimum = runs[-1].objective
    assert runs[-1].status == "optimal" and len(runs) > 2
    bounds = [r.bound for r in runs]
    assert all(b1 <= b2 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(r.bound <= min(r.objective, optimum) + 1e-6 for r in runs)


def test_bb_incumbent_satisfies_model_rows():
    milp = reformulate_hull(build_ts(gen_scheduling(4, 2)))
    res = solve_bb(milp)
    assert res.status == "optimal"
    assert max_violation(milp, res.x) <= 1e-6
    bins = milp.binary_indices
    assert max(abs(res.x[b] - round(res.x[b])) for b in bins) <= 1e-6


def test_bb_time_limit_at_root_has_no_bound():
    milp = reformulate_bigm(build_gp(gen_scheduling(7, 0)))
    res = solve_bb(milp, BBConfig(time_limit=0.0))
    assert res.status == "time_limit"
    assert res.bound == -math.inf and res.objective == math.inf and res.x is None


def test_engine_time_limit_is_per_solve():
    """HiGHS's run clock adds up over the solves of one model; each solve
    still gets the whole time_limit it is given."""
    milp = reformulate_hull(build_ip(gen_scheduling(6, 0)))
    engine = LpEngine(milp)
    assert engine.solve().status == "optimal"
    basis = engine.basis()
    bins = milp.binary_indices
    k = 0
    while engine.highs.getRunTime() < 0.6:
        lower, upper = engine.lower.copy(), engine.upper.copy()
        lower[bins[k % len(bins)]] = upper[bins[k % len(bins)]] = float(k % 2)
        engine.solve(lower, upper, basis)
        k += 1
    lower, upper = engine.lower.copy(), engine.upper.copy()
    lower[bins[3]] = upper[bins[3]] = 1.0
    assert engine.solve(lower, upper, basis, time_limit=0.3).status == "optimal"


# ---- the LP engine against SciPy's public solvers -----------------------

def scipy_arrays(model):
    """(c, A, row lower, row upper) of a model, for scipy.optimize."""
    n = len(model.variables)
    c = np.zeros(n)
    for v, a in model.objective.items():
        c[v] = a
    ri = [k for k, r in enumerate(model.rows) for _ in r.coeffs]
    ci = [v for r in model.rows for v in r.coeffs]
    vals = [a for r in model.rows for a in r.coeffs.values()]
    A = sp.csr_array((vals, (ri, ci)), shape=(len(model.rows), n))
    lo = np.array([-np.inf if r.sense == LE else r.rhs for r in model.rows])
    hi = np.array([np.inf if r.sense == GE else r.rhs for r in model.rows])
    return c, A, lo, hi


def public_linprog(model, lower, upper):
    c, A, lo, hi = scipy_arrays(model)
    le = np.isfinite(hi)
    ge = np.isfinite(lo)
    A_ub = sp.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([hi[le], -lo[ge]])
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, bounds=np.column_stack([lower, upper]), method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    assert res.status in (0, 2), res.message
    return ("optimal", res.fun) if res.status == 0 else ("infeasible", None)


coef = st.integers(-3, 3).map(float)


@st.composite
def random_lp(draw):
    n = draw(st.integers(1, 5))
    boxes = []
    for _ in range(n):
        lo = draw(st.integers(-5, 5))
        boxes.append((float(lo), float(lo + draw(st.integers(0, 6)))))
    rows = []
    for k in range(draw(st.integers(0, 6))):
        coeffs = {v: a for v, a in enumerate(draw(st.lists(coef, min_size=n, max_size=n))) if a}
        rows.append(LinRow(coeffs, float(draw(st.integers(-8, 8))),
                           draw(st.sampled_from([LE, GE, EQ])), f"r{k}"))
    model = MilpModel(
        variables=[MilpVar(f"x{i}", lo, hi) for i, (lo, hi) in enumerate(boxes)],
        rows=rows,
        objective={v: a for v, a in enumerate(draw(st.lists(coef, min_size=n, max_size=n))) if a},
    )
    # bound changes: each narrows one column's box to a sub-interval
    changes = []
    for _ in range(draw(st.integers(1, 6))):
        v = draw(st.integers(0, n - 1))
        lo, hi = boxes[v]
        a = draw(st.integers(int(lo), int(hi)))
        b = draw(st.integers(a, int(hi)))
        changes.append((v, float(a), float(b)))
    return model, changes


@settings(max_examples=200, deadline=None)
@given(random_lp(), st.booleans())
def test_engine_matches_public_linprog_over_bound_changes(case, from_first_basis):
    """Cold solve, then warm re-solves after each bound change (from the
    basis left in the model, or from the first solve's basis)."""
    model, changes = case
    engine = LpEngine(model)
    lower, upper = engine.lower.copy(), engine.upper.copy()
    steps = [(lower.copy(), upper.copy())]
    for v, lo, hi in changes:
        lower[v], upper[v] = lo, hi
        steps.append((lower.copy(), upper.copy()))
    first_basis = None
    for k, (lo, hi) in enumerate(steps):
        got = engine.solve(lo, hi, first_basis if k and from_first_basis else None)
        if k == 0 and got.status == "optimal":
            first_basis = engine.basis()
        status, objective = public_linprog(model, lo, hi)
        assert got.status == status
        if status == "optimal":
            assert got.objective == pytest.approx(objective, abs=1e-7)
            assert max_violation(
                MilpModel([MilpVar(f"x{i}", a, b) for i, (a, b) in enumerate(zip(lo, hi))],
                          model.rows, model.objective),
                got.x,
            ) <= 1e-7


SCHED_PAIRS = [("GP", "BM"), ("GP", "HR"), ("GP_S", "BM"), ("GP_S", "HR"), ("GP_S", "RHR"),
               ("IP", "BM"), ("IP", "HR"), ("TS", "BM"), ("TS", "HR"), ("TS", "RHR")]
STRIP_PAIRS = [("S_original", "BM"), ("S_original", "HR"), ("S_symbreak", "BM"),
               ("S_symbreak", "HR"), ("S0", "BM"), ("S0", "HR"), ("S0", "RHR"),
               ("S1", "BM"), ("S1", "HR"), ("S1", "RHR")]


@pytest.mark.parametrize(
    "instance, pairs",
    [(gen_scheduling(3, s), SCHED_PAIRS) for s in range(3)]
    + [(gen_strip(3, s), STRIP_PAIRS) for s in range(2)],
)
def test_bb_matches_the_oracle_on_every_pair(instance, pairs):
    oracle = sched_oracle if pairs is SCHED_PAIRS else strip_oracle
    optimum = oracle(instance).optimum
    for concept, reform in pairs:
        res = solve_bb(reformulate_model(build_model(instance, concept), reform), BBConfig(rel_gap=0.0))
        assert res.status == "optimal", (concept, reform)
        assert res.objective == pytest.approx(optimum, abs=1e-6), (concept, reform)


def test_private_highs_binding_stays_in_milp():
    users = sorted(p.name for p in SRC.rglob("*.py") if "_highspy" in p.read_text())
    assert users == ["milp.py"]
    assert not [p for p in SRC.rglob("*.py") if "from scipy.optimize import linprog" in p.read_text()]
