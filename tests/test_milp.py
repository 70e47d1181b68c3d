import math

import numpy as np
import pytest

from gldp import (
    EQ,
    LE,
    BBConfig,
    ContinuousVar,
    Disjunct,
    Disjunction,
    GdpModel,
    LinRow,
    LogicRow,
    MilpModel,
    MilpRow,
    MilpVar,
    align_model,
    build_gp,
    build_ts,
    gen_scheduling,
    max_violation,
    reformulate_bigm,
    reformulate_hull,
    reformulate_rhr,
    sched_oracle,
    solve_bb,
    solve_lp,
)


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
    res = solve_lp(box_lp(), {0: (7.0, 7.0)})
    assert res.objective == pytest.approx(7.0)


def test_lp_infeasible_status():
    m = MilpModel(
        variables=[MilpVar("x", 0.0, 1.0)],
        rows=[MilpRow({0: 1.0}, -1.0, LE, "r")],
        objective={0: 1.0},
    )
    assert solve_lp(m).status == "infeasible"


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
        logic=[LogicRow({0: 1}, 1, EQ)],
    )
    res = solve_bb(reformulate_bigm(m))
    assert res.status == "optimal" and res.nodes == 1
    assert res.objective == pytest.approx(5.0)


def test_bb_infeasible_model():
    m = MilpModel(
        variables=[MilpVar("x", 0.0, 1.0), MilpVar("y", 0.0, 1.0, True)],
        rows=[MilpRow({0: 1.0, 1: 1.0}, -1.0, LE, "r")],
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
    milp = reformulate_bigm(build_gp(gen_scheduling(6, 3)))
    res = solve_bb(milp, BBConfig(keep_trace=True))
    bounds = [b for _, b, _ in res.trace]
    assert all(b1 <= b2 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(b <= inc + 1e-6 for _, b, inc in res.trace)
    assert res.bound <= res.objective + 1e-6


def test_bb_incumbent_satisfies_model_rows():
    milp = reformulate_hull(build_ts(gen_scheduling(4, 2)))
    res = solve_bb(milp)
    assert res.status == "optimal"
    assert max_violation(milp, res.x) <= 1e-6
    bins = milp.binary_indices
    assert max(abs(res.x[b] - round(res.x[b])) for b in bins) <= 1e-6
