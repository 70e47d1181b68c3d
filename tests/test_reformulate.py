import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    align_model,
    big_m_bound,
    build_gp,
    build_ip,
    build_model,
    build_ts,
    canonicalize_rows,
    check_assignment,
    gen_scheduling,
    gen_strip,
    reformulate_bigm,
    reformulate_hull,
    reformulate_rhr,
    sched_oracle,
    shared_lhs,
    solve_bb,
    solve_lp,
    strip_oracle,
    validate,
)
from gldp.milp import LpEngine
from gldp.reformulate import EMPTY_TOL, _difference_closure, _difference_form, _lower


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
    # M <= 0: the row holds everywhere in the box and is not written
    assert [r.provenance for r in milp.rows] == ["bigm:d0:j1:r0", "bigm:d0:xor"]
    # writing it, as x <= 5 with M clamped to 0, leaves the LP optimum as it is
    clamped = replace(milp, rows=milp.rows + [LinRow({0: 1.0}, 5.0, LE, "bigm:d0:j0:r0")])
    for objective in ({0: 1.0}, {0: -1.0}, {0: 1.0, 2: -3.0}):
        z = solve_lp(replace(milp, objective=objective)).objective
        assert z == solve_lp(replace(clamped, objective=objective)).objective


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
    out = align_model(m)
    (d,) = out.disjunctions
    got = [[(dict(r.coeffs), r.rhs) for r in dj.rows] for dj in d.disjuncts]
    assert got == [
        [({0: -1.0}, 0.0), ({0: 1.0}, 2.0)],
        [({0: -1.0}, -5.0), ({0: 1.0}, 10.0)],
    ]
    assert shared_lhs(d) and out.logic == []
    assert align_model(out) == out


def one_variable_model(disjuncts, objective=None):
    """One disjunction over x in [0, 10], a disjunct per list of (a, rhs)
    rows ``a x <= rhs``."""
    return GdpModel(
        vars=[ContinuousVar("x", 0.0, 10.0)],
        bools=[f"y{j}" for j in range(len(disjuncts))],
        objective=objective or {},
        global_rows=[],
        disjunctions=[
            Disjunction(
                [
                    Disjunct(j, [LinRow({0: a}, rhs) for a, rhs in rows])
                    for j, rows in enumerate(disjuncts)
                ]
            )
        ],
        logic=[],
    )


def test_align_keeps_tighter_rhs():
    # second disjunct's existing bound x <= 1 beats the box bound 10
    m = one_variable_model([[(1.0, 2.0), (-1.0, 0.0)], [(1.0, 1.0)]])
    (d,) = align_model(m).disjunctions
    rows1 = {tuple(sorted(r.coeffs.items())): r.rhs for r in d.disjuncts[1].rows}
    assert rows1[((0, 1.0),)] == 1.0
    assert rows1[((0, -1.0),)] == 0.0


def test_align_gives_a_shared_disjunction_support_values():
    # both disjuncts carry x <= . and -x <= ., but -x <= 5 and x <= 12 are
    # looser than the box [0, 10] allows
    m = one_variable_model([[(1.0, 2.0), (-1.0, 5.0)], [(1.0, 12.0), (-1.0, -5.0)]])
    assert shared_lhs(m.disjunctions[0])
    (d,) = align_model(m).disjunctions
    got = [[(dict(r.coeffs), r.rhs) for r in dj.rows] for dj in d.disjuncts]
    assert got == [
        [({0: -1.0}, 0.0), ({0: 1.0}, 2.0)],
        [({0: -1.0}, -5.0), ({0: 1.0}, 10.0)],
    ]


def test_rhr_of_an_aligned_empty_disjunct_matches_hull():
    # [x <= 2] v [x <= 4, x >= 5] over x in [0, 10], min -x: the second
    # disjunct is empty, so its indicator is fixed at 0 and x <= 2
    m = one_variable_model([[(1.0, 2.0)], [(1.0, 4.0), (-1.0, -5.0)]], {0: -1.0})
    aligned = align_model(m)
    assert aligned.logic == [LinRow({1: 1}, 0, LE)]
    assert align_model(aligned) == aligned
    assert solve_lp(reformulate_hull(m)).objective == pytest.approx(-2.0, abs=1e-9)
    assert solve_lp(reformulate_rhr(aligned)).objective == pytest.approx(-2.0, abs=1e-9)


def test_align_model_rejects_an_invalid_model():
    m = interval_union_model()
    bad = Disjunct(0, [LinRow({3: 1.0}, 2.0)])
    m.disjunctions = [Disjunction([bad, m.disjunctions[0].disjuncts[1]])]
    message = "invalid model: disjunction 0, disjunct 0, row 0: references undeclared variable 3"
    for step in (align_model, reformulate_hull):
        with pytest.raises(ValueError) as err:
            step(m)
        assert str(err.value) == message


def test_rhr_interval_union_matches_hull():
    milp = reformulate_rhr(align_model(interval_union_model()))
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


def plain_closure(rows, dvars, boxes):
    """Floyd-Warshall over a dict keyed by node pairs, the zero node as
    ``None``: the reference for ``_difference_closure``."""
    nodes = list(dvars) + [None]
    dist = {(a, b): 0.0 if a == b else math.inf for a in nodes for b in nodes}
    for v in dvars:
        dist[v, None], dist[None, v] = boxes[v][1], -boxes[v][0]
    for r in rows:
        form = _difference_form(r.coeffs)
        if form is not None:
            a, b, t = form
            dist[a, b] = min(dist[a, b], r.rhs / t)
    for m in nodes:
        for a in nodes:
            for b in nodes:
                if dist[a, m] + dist[m, b] < dist[a, b]:
                    dist[a, b] = dist[a, m] + dist[m, b]
    if any(dist[v, v] < -EMPTY_TOL for v in nodes):
        return None
    return dist


CLOSURE_BOXES = {0: (0.0, 10.0), 1: (-2.5, 4.0), 2: (0.0, 3.3)}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(
                [{0: 1.0, 1: -1.0}, {1: 2.0, 0: -2.0}, {1: 1.0, 2: -1.0}, {2: 0.5, 0: -0.5},
                 {0: 1.0}, {1: -1.0}, {2: 3.0}, {0: 1.0, 2: 1.0}]
            ),
            st.integers(-40, 40).map(lambda k: k / 10),
        ),
        max_size=8,
    )
)
# x0 - x1 <= 0.3 and x1 - x0 <= -(0.1 + 0.2): a cycle of weight -5.6e-17,
# too small to make the disjunct empty.
@example([({0: 1.0, 1: -1.0}, 0.3), ({1: 1.0, 0: -1.0}, -(0.1 + 0.2)), ({1: 1.0, 2: -1.0}, 0.7)])
def test_difference_closure_matches_plain_floyd_warshall(rows):
    rows = [LinRow(dict(c), b) for c, b in rows]
    assert _difference_closure(rows, [0, 1, 2], CLOSURE_BOXES) == plain_closure(
        rows, [0, 1, 2], CLOSURE_BOXES
    )


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


def disjunct_rows_in_x(milp):
    """Each disjunct row a pass wrote, read back in the model's variables:
    ``(provenance, a, [rhs_j, ...])`` with one ``rhs_j`` per disjunct (RHR)
    or one in all (BM, HR).  Hull copies map to their variables through the
    ``agg``, ``aggub`` and ``agglb`` rows, and a missing indicator
    coefficient is a zero rhs."""
    binary = {i for i, v in enumerate(milp.variables) if v.is_binary}
    original = {}
    xors = {}
    for r in milp.rows:
        head, _, tail = r.provenance.rpartition(":")
        if tail.startswith("agg"):
            v = int(tail[tail.index("[") + 1 : -1])
            original.update((c, v) for c, a in r.coeffs.items() if c != v)
        elif tail == "xor":
            xors[head] = list(r.coeffs)
    out = []
    for r in milp.rows:
        head, _, tail = r.provenance.rpartition(":")
        if not tail.startswith("r"):
            continue
        x = {original.get(c, c): a for c, a in r.coeffs.items() if c not in binary}
        if r.provenance.startswith("bigm:"):
            (y,) = binary.intersection(r.coeffs)
            rhs = [r.rhs - r.coeffs[y]]
        elif r.provenance.startswith("hull:"):
            (y,) = binary.intersection(r.coeffs) or {None}
            rhs = [-r.coeffs.get(y, 0.0)]
        else:
            rhs = [-r.coeffs.get(y, 0.0) for y in xors[head]]
        out.append((r.provenance, x, rhs))
    return out


PASSES = {"BM": reformulate_bigm, "HR": reformulate_hull, "RHR": reformulate_rhr}
IMPLIED_CASES = [
    (gen, n, seed, concept, reform)
    for gen, n, concepts in (
        (gen_scheduling, 4, ("GP", "GP_S", "IP", "TS")),
        (gen_strip, 3, ("S_original", "S0", "S1")),
    )
    for seed in (0, 1)
    for concept in concepts
    for reform in ("BM", "HR", "RHR")
    if reform != "RHR" or concept in ("GP_S", "TS", "S0", "S1")
]


@pytest.mark.parametrize(
    "gen,n,seed,concept,reform",
    IMPLIED_CASES,
    ids=[f"{c}-{r}-n{n}-s{s}" for _, n, s, c, r in IMPLIED_CASES],
)
def test_no_written_disjunct_row_is_implied_by_the_boxes(gen, n, seed, concept, reform):
    model = build_model(gen(n, seed), concept)
    boxes = model.boxes()
    written = disjunct_rows_in_x(PASSES[reform](model))
    assert written
    for provenance, a, rhs in written:
        assert min(rhs) < corner_max(a, boxes), provenance
    if reform != "RHR":
        kept = sum(
            1
            for disj in model.disjunctions
            for d in disj.disjuncts
            for r in canonicalize_rows(d).rows
            if r.rhs < corner_max(r.coeffs, boxes)
        )
        assert len(written) == kept


@pytest.mark.parametrize(
    "gen,n,seed,concept,reform",
    IMPLIED_CASES,
    ids=[f"{c}-{r}-n{n}-s{s}" for _, n, s, c, r in IMPLIED_CASES],
)
def test_passes_write_float_nonzero_coefficients(gen, n, seed, concept, reform):
    """MilpModel.add_row stores what it is given, so every pass, and the
    global and logic rows, must hand it float, nonzero coefficients."""
    milp = PASSES[reform](build_model(gen(n, seed), concept))
    for r in milp.rows:
        assert type(r.rhs) is float, r.provenance
        assert all(type(a) is float and a != 0.0 for a in r.coeffs.values()), r.provenance


def reference_lowering(model, reform):
    """BM, HR or RHR as the passes write them, but writing every disjunct
    row, the ones the boxes imply too."""
    boxes = model.boxes()

    def bigm(b, tag, canon, ys):
        for rows, y in zip(canon, ys):
            for row in rows:
                m = max(0.0, big_m_bound(row, boxes))
                b.add_row({**row.coeffs, y: m}, LE, row.rhs + m, f"bigm:{tag}")

    def hull(b, tag, canon, ys):
        dvars = sorted({v for rows in canon for r in rows for v in r.coeffs})
        agg = {v: {v: 1.0} for v in dvars}
        for j, (rows, y) in enumerate(zip(canon, ys)):
            copy = {}
            for v in dvars:
                lo, hi = boxes[v]
                copy[v] = b.add_cont(f"x{v}_{tag}_{j}", min(lo, 0.0), max(hi, 0.0))
                agg[v][copy[v]] = -1.0
                b.add_row({copy[v]: 1.0, y: -hi}, LE, 0.0, f"hull:{tag}")
                b.add_row({copy[v]: -1.0, y: lo}, LE, 0.0, f"hull:{tag}")
            for row in rows:
                coeffs = {copy[v]: a for v, a in row.coeffs.items()}
                b.add_row({**coeffs, y: -row.rhs}, LE, 0.0, f"hull:{tag}")
        for coeffs in agg.values():
            b.add_row(coeffs, EQ, 0.0, f"hull:{tag}")

    def rhr(b, tag, canon, ys):
        for ri, row in enumerate(canon[0]):
            coeffs = dict(row.coeffs)
            coeffs.update((y, -rows[ri].rhs) for rows, y in zip(canon, ys))
            b.add_row(coeffs, LE, 0.0, f"rhr:{tag}")

    return _lower(model, "ref", {"BM": bigm, "HR": hull, "RHR": rhr}[reform])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [{0: 1.0, 1: -1.0}, {1: 1.0, 2: -1.0}, {2: 2.0, 0: -2.0}, {0: 1.0},
                     {1: -1.0}, {2: 1.0}, {0: -0.5}]
                ),
                st.integers(-8, 8).map(lambda k: k / 2),
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=2,
        max_size=3,
    ),
    st.lists(
        st.tuples(*[st.integers(-3, 3).map(float)] * 3).map(lambda c: dict(enumerate(c))),
        min_size=3,
        max_size=3,
    ),
)
def test_passes_match_a_lowering_that_writes_every_row(disjuncts, objectives):
    m = GdpModel(
        vars=[ContinuousVar("u", 0.0, 5.0), ContinuousVar("v", -2.0, 4.0),
              ContinuousVar("w", 0.0, 3.0)],
        bools=[f"y{j}" for j in range(len(disjuncts))],
        objective={},
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
    aligned = align_model(m)
    for model, name in [(m, "BM"), (m, "HR"), (aligned, "BM"), (aligned, "HR"), (aligned, "RHR")]:
        milp, full = PASSES[name](model), reference_lowering(model, name)
        assert len(milp.rows) <= len(full.rows)
        for objective in objectives:
            got = solve_lp(replace(milp, objective=objective))
            want = solve_lp(replace(full, objective=objective))
            assert got.status == want.status
            if want.status == "optimal":
                assert got.objective == pytest.approx(want.objective, abs=1e-9)


HULL_CASES = [
    (gen, n, seed, concept)
    for gen, concepts, sizes in (
        (gen_scheduling, ("IP", "GP"), range(3, 7)),
        (gen_strip, ("S_original", "S_symbreak", "S0", "S1"), range(3, 6)),
    )
    for concept in concepts
    for n in sizes
    for seed in range(3)
]


@pytest.mark.parametrize(
    "gen,n,seed,concept", HULL_CASES, ids=[f"{c}-n{n}-s{s}" for _, n, s, c in HULL_CASES]
)
def test_hull_copies_only_used_variables_and_keeps_the_relaxation(gen, n, seed, concept):
    """A disjunct gets a copy of exactly the variables of its written rows,
    and the hull's LP relaxation still equals the one with a copy of every
    variable of the disjunction in every disjunct."""
    model = build_model(gen(n, seed), concept)
    boxes = model.boxes()
    milp, full = reformulate_hull(model), reference_lowering(model, "HR")
    used = sum(
        len({v for r in canonicalize_rows(d).rows if r.rhs < corner_max(r.coeffs, boxes)
             for v in r.coeffs})
        for disj in model.disjunctions
        for d in disj.disjuncts
    )
    assert milp.num_continuous == len(model.vars) + used
    assert len(milp.rows) <= len(full.rows)
    rng = np.random.default_rng(seed)
    cols = len(model.vars) + len(model.bools)
    objectives = [milp.objective] + [
        dict(enumerate(rng.uniform(-1.0, 1.0, cols).tolist())) for _ in range(10)
    ]
    for objective in objectives:
        got = solve_lp(replace(milp, objective=objective))
        want = solve_lp(replace(full, objective=objective))
        assert got.status == want.status == "optimal"
        assert abs(got.objective - want.objective) <= 1e-7 * max(1.0, abs(want.objective))


BOUND_CASES = [
    (gen, n, seed, concept)
    for gen, n, concepts in (
        (gen_scheduling, 5, ("GP", "GP_S", "IP", "TS")),
        (gen_strip, 4, ("S_original", "S_symbreak", "S0", "S1")),
    )
    for concept in concepts
    for seed in range(3)
]


@pytest.mark.parametrize(
    "gen,n,seed,concept", BOUND_CASES, ids=[f"{c}-n{n}-s{s}" for _, n, s, c in BOUND_CASES]
)
def test_hull_writes_no_row_that_repeats_a_copy_bound(gen, n, seed, concept):
    """A one-coefficient hull row on a copy column cuts into its column box."""
    model = build_model(gen(n, seed), concept)
    milp = reformulate_hull(model)
    for r in milp.rows:
        if len(r.coeffs) != 1:
            continue
        ((col, a),) = r.coeffs.items()
        var = milp.variables[col]
        if col < len(model.vars) or var.is_binary:
            continue
        assert r.sense == LE, r.provenance
        assert (r.rhs / a < var.upper) if a > 0 else (r.rhs / a > var.lower), r.provenance


INCUMBENT_CASES = [(gen_scheduling, n, seed, "IP") for n in (3, 4, 5) for seed in range(3)] + [
    (gen_strip, n, seed, concept)
    for concept in ("S_original", "S_symbreak")
    for n in (3, 4)
    for seed in range(3)
]


@pytest.mark.parametrize(
    "gen,n,seed,concept",
    INCUMBENT_CASES,
    ids=[f"{c}-n{n}-s{s}" for _, n, s, c in INCUMBENT_CASES],
)
def test_hull_incumbents_hold_in_the_source_model(gen, n, seed, concept):
    inst = gen(n, seed)
    model = build_model(inst, concept)
    milp = reformulate_hull(model)
    res = solve_bb(milp)
    assert res.status == "optimal"
    x = dict(enumerate(res.x[: len(model.vars)].tolist()))
    y = {i: bool(res.x[c] > 0.5) for i, c in enumerate(milp.binary_indices)}
    assert check_assignment(model, x, y) == []
    oracle = sched_oracle if gen is gen_scheduling else strip_oracle
    assert res.objective == pytest.approx(oracle(inst).optimum, abs=1e-6)
