import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from gldp import (
    EQ,
    LE,
    ContinuousVar,
    Disjunct,
    Disjunction,
    GdpModel,
    Job,
    LinRow,
    SchedulingInstance,
    SharedLhsViolation,
    align_disjunction,
    align_model,
    big_m_bound,
    build_gp,
    build_ip,
    build_model,
    build_ts,
    canonicalize_rows,
    gen_scheduling,
    gen_strip,
    reformulate_bigm,
    reformulate_hull,
    reformulate_rhr,
    sched_oracle,
    shared_lhs,
    solve_lp,
    validate,
)
from gldp.milp import LpEngine


def interval_union_model():
    """One disjunction [x <= 2] v [x >= 5] over x in [0, 10], min x."""
    return GdpModel(
        vars=[ContinuousVar("x", 0.0, 10.0)],
        bools=["y1", "y2"],
        objective={0: 1.0},
        global_rows=[],
        disjunctions=[
            Disjunction(
                [
                    Disjunct(0, [LinRow({0: 1.0}, 2.0)]),
                    Disjunct(1, [LinRow({0: -1.0}, -5.0)]),
                ],
                label="split",
            )
        ],
        logic=[],
    )


def corner_max(coeffs, boxes):
    """Independent oracle: enumerate box corners for max of a linear form."""
    ids = sorted(coeffs)
    best = -math.inf
    for corner in itertools.product(*[boxes[v] for v in ids]):
        best = max(best, sum(coeffs[v] * c for v, c in zip(ids, corner)))
    return best


def test_big_m_bound_examples():
    boxes = {0: (0.0, 10.0), 1: (0.0, 10.0)}
    assert big_m_bound(LinRow({0: 1.0, 1: -1.0}, -2.0), boxes) == 12.0
    assert big_m_bound(LinRow({0: 1.0}, 5.0), {0: (0.0, 4.0)}) == -1.0
    boxes20 = {0: (0.0, 20.0), 1: (0.0, 20.0)}
    row = LinRow({0: 1.0, 1: -1.0}, -3.0)
    expected = corner_max(row.coeffs, boxes20) - row.rhs
    assert expected == 23.0
    assert big_m_bound(row, boxes20) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 2),
        st.integers(-5, 5).filter(lambda a: a != 0).map(float),
        min_size=1,
        max_size=3,
    ),
    st.integers(-10, 10).map(float),
    st.lists(
        st.tuples(st.integers(-8, 8), st.integers(0, 10)).map(
            lambda t: (float(t[0]), float(t[0] + t[1]))
        ),
        min_size=3,
        max_size=3,
    ),
)
def test_big_m_bound_matches_corner_enumeration(coeffs, rhs, boxlist):
    boxes = dict(enumerate(boxlist))
    row = LinRow(coeffs, rhs)
    assert big_m_bound(row, boxes) == pytest.approx(corner_max(coeffs, boxes) - rhs)


def test_big_m_bound_rejects_unbounded_box():
    with pytest.raises(ValueError):
        big_m_bound(LinRow({0: 1.0}, 0.0), {0: (0.0, math.inf)})


def test_bigm_interval_union_rows():
    milp = reformulate_bigm(interval_union_model())
    # x <= 2 + 8 (1 - y1)  and  -x <= -5 + 5 (1 - y2)
    rows = {r.provenance: r for r in milp.rows}
    r1 = rows["bigm:d0(split):j0:r0"]
    assert r1.coeffs == {0: 1.0, 1: 8.0} and r1.rhs == 10.0
    r2 = rows["bigm:d0(split):j1:r0"]
    assert r2.coeffs == {0: -1.0, 2: 5.0} and r2.rhs == 0.0
    xor = rows["bigm:d0(split):xor"]
    assert xor.sense == EQ and xor.rhs == 1.0 and xor.coeffs == {1: 1.0, 2: 1.0}
    assert milp.num_continuous == 1 and milp.num_binary == 2


def test_bigm_clamps_never_violated_rows():
    m = GdpModel(
        vars=[ContinuousVar("x", 0.0, 4.0)],
        bools=["y1", "y2"],
        objective={0: 1.0},
        global_rows=[],
        disjunctions=[
            Disjunction(
                [
                    Disjunct(0, [LinRow({0: 1.0}, 5.0)]),  # slack inside the box
                    Disjunct(1, [LinRow({0: -1.0}, -1.0)]),
                ]
            )
        ],
        logic=[],
    )
    milp = reformulate_bigm(m)
    slack = next(r for r in milp.rows if r.provenance == "bigm:d0:j0:r0")
    # M clamped to 0: the indicator drops out entirely
    assert slack.coeffs == {0: 1.0} and slack.rhs == 5.0


def test_empty_disjunction_pass_is_identity_lp():
    m = GdpModel(
        vars=[ContinuousVar("x", 3.0, 10.0)],
        bools=[],
        objective={0: 1.0},
        global_rows=[LinRow({0: 1.0}, 8.0)],
        disjunctions=[],
        logic=[],
    )
    for pass_ in (reformulate_bigm, reformulate_hull, reformulate_rhr):
        milp = pass_(m)
        assert milp.num_continuous == 1 and milp.num_binary == 0
        assert len(milp.rows) == 1
        assert solve_lp(milp).objective == pytest.approx(3.0)


def test_hull_interval_union_projection():
    milp = reformulate_hull(interval_union_model())
    # fresh copies x^1, x^2 plus x = sum of copies
    assert milp.num_continuous == 3
    lo = solve_lp(milp).objective
    flipped = reformulate_hull(interval_union_model())
    flipped.objective = {0: -1.0}
    hi = -solve_lp(flipped).objective
    # conv([0,2] u [5,10]) projected to x is [0,10]
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(10.0, abs=1e-9)


def test_hull_links_scale_with_indicator():
    milp = reformulate_hull(interval_union_model())
    # forcing y1 = 1 pins the second copy at 0 and x in [0, 2]
    y1 = next(i for i, v in enumerate(milp.variables) if v.name == "y1")
    engine = LpEngine(milp)
    lower, upper = engine.lower.copy(), engine.upper.copy()
    lower[y1] = upper[y1] = 1.0
    assert engine.solve(lower, upper).status == "optimal"
    res = LpEngine(replace(milp, objective={0: -1.0})).solve(lower, upper)
    assert -res.objective == pytest.approx(2.0, abs=1e-9)


def test_shared_lhs_examples():
    inst = gen_scheduling(4, 7)
    assert all(shared_lhs(d) for d in build_ts(inst).disjunctions)
    ip = build_ip(inst)
    succ = [d for d in ip.disjunctions if d.label.startswith("succ")]
    assert succ and all(not shared_lhs(d) for d in succ)
    assert not shared_lhs(interval_union_model().disjunctions[0])


def test_align_interval_union():
    m = interval_union_model()
    out = align_disjunction(m.disjunctions[0], m.boxes())
    got = [[(dict(r.coeffs), r.rhs) for r in d.rows] for d in out.disjuncts]
    assert got == [
        [({0: -1.0}, 0.0), ({0: 1.0}, 2.0)],
        [({0: -1.0}, -5.0), ({0: 1.0}, 10.0)],
    ]
    assert shared_lhs(out)
    again = align_disjunction(out, m.boxes())
    assert [d.rows for d in again.disjuncts] == [d.rows for d in out.disjuncts]


def test_align_keeps_tighter_rhs():
    # second disjunct's existing bound x <= 1 beats the box bound 10
    d = Disjunction(
        [
            Disjunct(0, [LinRow({0: 1.0}, 2.0), LinRow({0: -1.0}, 0.0)]),
            Disjunct(1, [LinRow({0: 1.0}, 1.0)]),
        ]
    )
    out = align_disjunction(d, {0: (0.0, 10.0)})
    rows1 = {tuple(sorted(r.coeffs.items())): r.rhs for r in out.disjuncts[1].rows}
    assert rows1[((0, 1.0),)] == 1.0
    assert rows1[((0, -1.0),)] == 0.0


def test_rhr_interval_union_matches_hull():
    m = interval_union_model()
    aligned = GdpModel(
        vars=m.vars,
        bools=m.bools,
        objective=m.objective,
        global_rows=m.global_rows,
        disjunctions=[align_disjunction(m.disjunctions[0], m.boxes())],
        logic=[],
    )
    milp = reformulate_rhr(aligned)
    assert milp.num_continuous == 1  # no disaggregated copies
    rows = {r.provenance: r for r in milp.rows}
    #  x <= 2 y1 + 10 y2   and  -x <= 0 y1 - 5 y2
    assert rows["rhr:d0(split):r1"].coeffs == {0: 1.0, 1: -2.0, 2: -10.0}
    assert rows["rhr:d0(split):r0"].coeffs == {0: -1.0, 2: 5.0}
    lo = solve_lp(milp).objective
    milp.objective = {0: -1.0}
    hi = -solve_lp(milp).objective
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(10.0, abs=1e-9)


def test_rhr_rejects_unaligned_without_flag():
    m = interval_union_model()
    with pytest.raises(SharedLhsViolation, match="split"):
        reformulate_rhr(m)
    milp = reformulate_rhr(align_model(m))
    assert milp.num_continuous == 1


def test_rhr_rejects_ip_successor_disjunctions():
    with pytest.raises(SharedLhsViolation, match="succ"):
        reformulate_rhr(build_ip(gen_scheduling(3, 0)))


def test_size_accounting():
    for n in (3, 5):
        inst = gen_scheduling(n, 11)
        ts = build_ts(inst)
        hr = reformulate_hull(ts)
        rhr = reformulate_rhr(ts)
        assert rhr.num_continuous == n + 1
        extra = sum(
            len(d.disjuncts)
            * len({v for dd in d.disjuncts for r in dd.rows for v in r.coeffs})
            for d in ts.disjunctions
        )
        assert extra == 2 * n * n
        assert hr.num_continuous == (n + 1) + extra


def test_relaxation_ordering_and_exactness_small():
    from gldp import sched_oracle, solve_bb

    for seed in range(5):
        inst = gen_scheduling(4, seed)
        opt = sched_oracle(inst).optimum
        gp = build_gp(inst)
        bm, hr = reformulate_bigm(gp), reformulate_hull(gp)
        z_bm, z_hr = solve_lp(bm).objective, solve_lp(hr).objective
        assert z_bm <= z_hr + 1e-6
        for milp in (bm, hr):
            assert solve_bb(milp).objective == pytest.approx(opt, abs=1e-6)


def test_passes_reject_invalid_models():
    bad = interval_union_model()
    bad.objective = {5: 1.0}
    for pass_ in (reformulate_bigm, reformulate_hull, reformulate_rhr):
        with pytest.raises(ValueError, match="invalid model"):
            pass_(bad)


def test_every_milp_row_has_provenance():
    inst = gen_scheduling(3, 2)
    for milp in (
        reformulate_bigm(build_gp(inst)),
        reformulate_hull(build_ip(inst)),
        reformulate_rhr(build_ts(inst)),
    ):
        assert all(r.provenance for r in milp.rows)


def test_align_fixes_empty_disjunct():
    # Job 0 must finish by 4, so job 1 (p = 2) cannot precede it inside the
    # boxes: that order's disjunct is empty and its indicator is fixed at 0.
    inst = SchedulingInstance([Job(3, 0, 4), Job(2, 0, 10)])
    gps = build_model(inst, "GP_S")
    assert gps.logic == [LinRow({gps.bools.index("Y_1_0"): 1}, 0, LE)]
    z_hr = solve_lp(reformulate_hull(gps)).objective
    z_rhr = solve_lp(reformulate_rhr(gps)).objective
    assert sched_oracle(inst).optimum == 5.0
    assert z_hr == pytest.approx(5.0, abs=1e-9)
    assert z_rhr == pytest.approx(5.0, abs=1e-9)


def lp_support(disjunct, coeffs, dvars, boxes):
    """max coeffs^T x over the disjunct within the box, or None when empty."""
    rows = canonicalize_rows(disjunct).rows
    a_ub = [[r.coeffs.get(v, 0.0) for v in dvars] for r in rows]
    res = linprog(
        [-coeffs.get(v, 0.0) for v in dvars],
        A_ub=a_ub,
        b_ub=[r.rhs for r in rows],
        bounds=[boxes[v] for v in dvars],
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0
    return -res.fun


ALIGNED_SOURCES = {"GP_S": "GP", "S0": "S_original", "S1": "S_symbreak"}
# Instances whose hull and reaggregated-hull roots differed under the
# interval-maximum alignment.
ALIGNED_CASES = [("GP_S", 3, s) for s in range(10)] + [
    (target, n, s)
    for target in ("S0", "S1")
    for n, seeds in ((2, (4, 8, 9)), (3, (1, 2, 3, 5)))
    for s in seeds
]


@pytest.mark.parametrize(
    "target,n,seed", ALIGNED_CASES, ids=[f"{c}-n{n}-s{s}" for c, n, s in ALIGNED_CASES]
)
def test_aligned_roots_agree_and_match_lp_supports(target, n, seed):
    inst = (gen_scheduling if target == "GP_S" else gen_strip)(n, seed)
    src, aligned = build_model(inst, ALIGNED_SOURCES[target]), build_model(inst, target)
    z_hr = solve_lp(reformulate_hull(aligned)).objective
    z_rhr = solve_lp(reformulate_rhr(aligned)).objective
    assert z_rhr == pytest.approx(z_hr, abs=1e-6)
    boxes = src.boxes()
    fixed = {next(iter(l.coeffs)) for l in aligned.logic}
    for disj, adisj in zip(src.disjunctions, aligned.disjunctions):
        dvars = sorted({v for d in disj.disjuncts for r in d.rows for v in r.coeffs})
        for d, ad in zip(disj.disjuncts, adisj.disjuncts):
            supports = [lp_support(d, r.coeffs, dvars, boxes) for r in ad.rows]
            if supports[0] is None:
                assert d.indicator in fixed
                continue
            assert d.indicator not in fixed
            assert [r.rhs for r in ad.rows] == pytest.approx(supports, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [{0: 1.0, 1: -1.0}, {0: -1.0, 1: 1.0}, {0: 1.0}, {0: -1.0}, {1: 1.0}, {1: -1.0}]
                ),
                st.integers(-6, 6).map(float),
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=2,
        max_size=4,
    ),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda t: {0: float(t[0]), 1: float(t[1])}
    ),
)
def test_rhr_matches_hull_on_aligned_2d_difference_disjunctions(disjuncts, objective):
    m = GdpModel(
        vars=[ContinuousVar("u", 0.0, 5.0), ContinuousVar("v", -2.0, 4.0)],
        bools=[f"y{j}" for j in range(len(disjuncts))],
        objective=objective,
        global_rows=[],
        disjunctions=[
            Disjunction(
                [
                    Disjunct(j, [LinRow(dict(c), b) for c, b in rows])
                    for j, rows in enumerate(disjuncts)
                ]
            )
        ],
        logic=[],
    )
    hr = solve_lp(reformulate_hull(m))
    rhr = solve_lp(reformulate_rhr(align_model(m)))
    assert rhr.status == hr.status
    if hr.status == "optimal":
        assert rhr.objective == pytest.approx(hr.objective, abs=1e-6)


def test_rhr_can_be_weaker_than_hull_when_a_factor_has_three_variables():
    # [x1 - x2 <= 3] v [x1 - x0 <= 3] in [0, 4]^3: the rows chain three
    # variables, the Minkowski sum of the two disjuncts has a facet normal
    # that is not among the shared rows, and the aligned RHR relaxation is
    # strictly weaker than the hull's.
    m = GdpModel(
        vars=[ContinuousVar(f"x{v}", 0.0, 4.0) for v in range(3)],
        bools=["y0", "y1"],
        objective={0: 1.0, 1: -1.0, 2: 1.0},
        global_rows=[],
        disjunctions=[
            Disjunction(
                [
                    Disjunct(0, [LinRow({1: 1.0, 2: -1.0}, 3.0)]),
                    Disjunct(1, [LinRow({1: 1.0, 0: -1.0}, 3.0)]),
                ]
            )
        ],
        logic=[],
    )
    assert solve_lp(reformulate_hull(m)).objective == pytest.approx(-3.0, abs=1e-9)
    z_rhr = solve_lp(reformulate_rhr(align_model(m))).objective
    assert z_rhr == pytest.approx(-3.5, abs=1e-9)
