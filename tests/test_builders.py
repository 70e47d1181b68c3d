import math
from dataclasses import replace

import pytest

from gldp import (
    Job,
    Rect,
    SchedulingInstance,
    StripInstance,
    align_disjunction,
    align_model,
    build_gp,
    build_ip,
    build_model,
    build_strip,
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
    strip_oracle,
    validate,
)
from gldp.builders import CONCEPTS

THREE_JOBS = SchedulingInstance(
    [Job(2, 0, 10), Job(3, 1, 10), Job(1, 4, 10)]
)


def canon_rows(disjunction):
    return [
        [(tuple(sorted(r.coeffs.items())), r.rhs) for r in canonicalize_rows(d).rows]
        for d in disjunction.disjuncts
    ]


def test_instance_invariants_rejected():
    with pytest.raises(ValueError, match="job 0"):
        SchedulingInstance([Job(5, 0, 4)])
    with pytest.raises(ValueError, match="rectangle 1"):
        StripInstance([Rect(3, 2), Rect(3, 7)], W=5)
    with pytest.raises(ValueError, match="widest"):
        StripInstance([Rect(3, 2)], W=5, UB=2)


def test_strip_default_ub_is_total_width():
    inst = StripInstance([Rect(3, 2), Rect(4, 2)], W=5)
    assert inst.UB == 7.0


def test_gp_two_jobs():
    inst = SchedulingInstance([Job(3, 0, 10), Job(2, 0, 10)])
    m = build_gp(inst)
    assert validate(m) == []
    assert len(m.disjunctions) == 1 and m.num_bools == 2
    assert sched_oracle(inst).optimum == 5.0
    res = solve_bb(reformulate_bigm(m))
    assert res.objective == pytest.approx(5.0, abs=1e-6)


def test_gp_single_job():
    inst = SchedulingInstance([Job(4, 1, 10)])
    m = build_gp(inst)
    assert m.disjunctions == [] and validate(m) == []
    assert solve_bb(reformulate_bigm(m)).objective == pytest.approx(5.0)
    assert sched_oracle(inst).optimum == 5.0


def test_gp_three_jobs():
    assert sched_oracle(THREE_JOBS).optimum == 6.0
    res = solve_bb(reformulate_hull(build_gp(THREE_JOBS)))
    assert res.objective == pytest.approx(6.0, abs=1e-6)


def test_gp_boxes_encode_release_and_due():
    m = build_gp(THREE_JOBS)
    assert (m.vars[0].lower, m.vars[0].upper) == (0.0, 8.0)
    assert (m.vars[1].lower, m.vars[1].upper) == (1.0, 7.0)
    ms = m.vars[3]
    assert ms.name == "MS" and ms.lower == 5.0  # max(r_i + p_i)
    assert ms.upper == min(2 + 3 + 1 + 4, 10)


def test_gp_strengthened_is_aligned_and_matches_align_pass():
    for seed in range(5):
        inst = gen_scheduling(4, seed)
        gp, gps = build_gp(inst), build_model(inst, "GP_S")
        boxes = gp.boxes()
        assert all(shared_lhs(d) for d in gps.disjunctions)
        for dk, ds in zip(gp.disjunctions, gps.disjunctions):
            assert canon_rows(align_disjunction(dk, boxes)) == canon_rows(ds)


def test_gp_strengthened_two_job_bounds():
    inst = SchedulingInstance([Job(3, 0, 10), Job(2, 0, 10)])
    m = build_model(inst, "GP_S")
    (d_before, _) = m.disjunctions[0].disjuncts
    rows = {tuple(sorted(r.coeffs.items())): r.rhs for r in d_before.rows}
    # x_0 - x_1 in [0 - 8, min(-3, 7 - 0)] = [-8, -3]
    assert rows[((0, 1.0), (1, -1.0))] == -3.0
    assert rows[((0, -1.0), (1, 1.0))] == 8.0


def test_gp_strengthened_matches_oracle_on_random_instances():
    for seed in range(20):
        inst = gen_scheduling(3, seed)
        opt = sched_oracle(inst).optimum
        res = solve_bb(reformulate_rhr(build_model(inst, "GP_S")))
        assert res.objective == pytest.approx(opt, abs=1e-6)


def test_ip_two_jobs_matches_gp():
    inst = SchedulingInstance([Job(3, 0, 10), Job(2, 0, 10)])
    m = build_ip(inst)
    assert validate(m) == []
    assert solve_bb(reformulate_bigm(m)).objective == pytest.approx(5.0, abs=1e-6)


def test_ip_three_jobs():
    res = solve_bb(reformulate_hull(build_ip(THREE_JOBS)))
    assert res.objective == pytest.approx(6.0, abs=1e-6)


def test_ip_structure():
    m = build_ip(THREE_JOBS)
    n = 3
    assert m.num_bools == n * (n - 1) + 2 * n
    labels = [d.label for d in m.disjunctions]
    assert labels.count("first") == 1 and labels.count("last") == 1
    assert sum(l.startswith("succ") for l in labels) == n
    assert sum(l.startswith("pred") for l in labels) == n
    # the last/first disjuncts carry |I| - 1 rows each
    last = next(d for d in m.disjunctions if d.label == "last")
    assert all(len(dd.rows) == n - 1 for dd in last.disjuncts)
    assert len(m.logic) == n
    with pytest.raises(ValueError):
        build_ip(SchedulingInstance([Job(1, 0, 5)]))


def test_ts_three_jobs():
    m = build_ts(THREE_JOBS)
    assert validate(m) == []
    assert all(shared_lhs(d) for d in m.disjunctions)
    for reform in (reformulate_bigm, reformulate_hull, reformulate_rhr):
        assert solve_bb(reform(m)).objective == pytest.approx(6.0, abs=1e-6)


def test_ts_single_job_degenerates_to_globals():
    inst = SchedulingInstance([Job(4, 1, 10)])
    m = build_ts(inst)
    assert validate(m) == [] and m.disjunctions == []
    assert solve_bb(reformulate_rhr(m)).objective == pytest.approx(5.0)


def test_strip_single_rectangle():
    inst = StripInstance([Rect(4, 2)], W=5, UB=7)
    m = build_strip(inst)
    assert m.disjunctions == [] and validate(m) == []
    assert solve_bb(reformulate_bigm(m)).objective == pytest.approx(4.0)


@pytest.mark.parametrize(
    "heights,expected", [((2, 2), 4.0), ((3, 3), 7.0)]
)
def test_strip_two_rectangles(heights, expected):
    inst = StripInstance([Rect(3, heights[0]), Rect(4, heights[1])], W=5, UB=7)
    assert strip_oracle(inst).optimum == expected
    for variant in ("S_original", "S_symbreak", "S0", "S1"):
        m = build_model(inst, variant)
        assert validate(m) == []
        res = solve_bb(reformulate_hull(m))
        assert res.objective == pytest.approx(expected, abs=1e-6)


def test_strip_aligned_variants_share_lhs():
    inst = gen_strip(3, 4)
    for variant, aligned in (
        ("S_original", False),
        ("S_symbreak", False),
        ("S0", True),
        ("S1", True),
    ):
        m = build_model(inst, variant)
        assert all(shared_lhs(d) == aligned for d in m.disjunctions)


def test_strip_aligned_variants_match_align_pass():
    inst = gen_strip(3, 9)
    for source, target in (("S_original", "S0"), ("S_symbreak", "S1")):
        src, tgt = build_model(inst, source), build_model(inst, target)
        boxes = src.boxes()
        for dk, ds in zip(src.disjunctions, tgt.disjunctions):
            assert canon_rows(align_disjunction(dk, boxes)) == canon_rows(ds)


def test_strip_unknown_variant():
    with pytest.raises(ValueError, match="unknown concept"):
        build_model(gen_strip(2, 0), "S2")


def test_concept_table_aligns_sources_and_checks_kinds():
    instances = {SchedulingInstance: gen_scheduling(4, 2), StripInstance: gen_strip(3, 2)}
    for name, entry in CONCEPTS.items():
        inst = instances[entry.kind]
        model = build_model(inst, name)
        if entry.aligned:
            # the source is a concept of its own, and alignment is its one change
            assert any(not c.aligned and c.build is entry.build for c in CONCEPTS.values())
            expected = align_model(entry.build(inst))
            assert replace(model, name="") == replace(expected, name="")
        else:
            assert model == entry.build(inst)
        (other,) = set(instances) - {entry.kind}
        with pytest.raises(TypeError):
            build_model(instances[other], name)


def test_generators_deterministic_and_valid():
    a, b = gen_scheduling(5, 1), gen_scheduling(5, 1)
    assert a == b
    assert gen_scheduling(5, 2) != a
    for seed in range(10):
        inst = gen_scheduling(6, seed)
        assert all(j.r + j.p <= j.d for j in inst.jobs)
        assert all(1 <= j.p <= 10 and 0 <= j.r <= 12 for j in inst.jobs)
        strip = gen_strip(6, seed)
        assert strip == gen_strip(6, seed)
        assert all(r.H <= strip.W for r in strip.rects)
        assert strip.UB == sum(r.L for r in strip.rects)


def test_generated_instances_are_feasible():
    for seed in range(10):
        assert math.isfinite(sched_oracle(gen_scheduling(5, seed)).optimum)


def test_builder_output_always_validates():
    for seed in range(3):
        inst = gen_scheduling(4, seed)
        for concept in ("GP", "GP_S", "IP", "TS"):
            assert validate(build_model(inst, concept)) == []
        strip = gen_strip(3, seed)
        for variant in ("S_original", "S_symbreak", "S0", "S1"):
            assert validate(build_model(strip, variant)) == []


def test_oracle_witness_feasible_in_gp_model():
    inst = gen_scheduling(5, 3)
    result = sched_oracle(inst)
    m = build_gp(inst)
    x = {i: s for i, s in enumerate(result.witness.starts)}
    x[inst.n] = result.optimum
    pos = {job: k for k, job in enumerate(result.witness.sequence)}
    y = {}
    b = 0
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            y[b] = pos[i] < pos[j]
            y[b + 1] = not y[b]
            b += 2
    assert check_assignment(m, x, y) == []
