import itertools
import math

import numpy as np
import pytest

from gldp import (
    EQ,
    GE,
    Disjunct,
    Disjunction,
    Job,
    LinRow,
    Rect,
    SchedulingInstance,
    StripInstance,
    check_assignment,
    build_model,
    gen_scheduling,
    gen_strip,
    hull_oracle_1d2d,
    masks_agree_within_band,
    rhr_relaxation_mask,
    sched_oracle,
    strip_oracle,
)
from gldp.oracles import REL_ABOVE_IJ, REL_LEFT_IJ


def test_sched_oracle_examples():
    inst = SchedulingInstance([Job(3, 0, 10), Job(2, 0, 10)])
    res = sched_oracle(inst)
    assert res.optimum == 5.0
    assert res.witness.sequence in ((0, 1), (1, 0))
    assert sched_oracle(SchedulingInstance([Job(4, 1, 10)])).optimum == 5.0
    res = sched_oracle(
        SchedulingInstance([Job(2, 0, 10), Job(3, 1, 10), Job(1, 4, 10)])
    )
    assert res.optimum == 6.0 and res.witness.sequence == (0, 1, 2)


def test_sched_oracle_detects_infeasible_instances():
    # both jobs need the machine during [0, 4] but only one fits
    inst = SchedulingInstance([Job(3, 0, 4), Job(3, 0, 4)])
    res = sched_oracle(inst)
    assert res.optimum == math.inf and res.witness is None


def test_sched_oracle_size_guard():
    with pytest.raises(ValueError, match="9"):
        sched_oracle(gen_scheduling(10, 0))


def test_sched_oracle_beats_or_matches_any_explicit_sequence():
    inst = gen_scheduling(5, 8)
    res = sched_oracle(inst)
    # exhaustive re-check with an independently coded evaluator
    best = math.inf
    for perm in itertools.permutations(range(5)):
        t, ok = 0.0, True
        for i in perm:
            t = max(t, inst.jobs[i].r) + inst.jobs[i].p
            if t > inst.jobs[i].d:
                ok = False
                break
        if ok:
            best = min(best, t)
    assert res.optimum == best


def test_strip_oracle_examples():
    assert strip_oracle(StripInstance([Rect(4, 2)], W=5, UB=7)).optimum == 4.0
    assert strip_oracle(StripInstance([Rect(3, 3), Rect(4, 3)], W=5)).optimum == 7.0
    res = strip_oracle(StripInstance([Rect(2, 2)] * 3, W=6))
    assert res.optimum == 2.0


def test_strip_oracle_size_guard():
    with pytest.raises(ValueError, match="5"):
        strip_oracle(gen_strip(6, 0))


def test_strip_witness_geometry_is_overlap_free():
    inst = gen_strip(4, 2)
    res = strip_oracle(inst)
    pos = res.witness.positions
    for (i, j), rel in zip(
        [(a, b) for a in range(4) for b in range(a + 1, 4)], res.witness.relations
    ):
        xi, yi = pos[i]
        xj, yj = pos[j]
        Li, Hi = inst.rects[i].L, inst.rects[i].H
        Lj, Hj = inst.rects[j].L, inst.rects[j].H
        separated = (
            xi + Li <= xj + 1e-9
            or xj + Lj <= xi + 1e-9
            or yi - Hi >= yj - 1e-9
            or yj - Hj >= yi - 1e-9
        )
        assert separated, (i, j, rel)
    assert res.optimum == max(p[0] + r.L for p, r in zip(pos, inst.rects))


def test_strip_witness_feasible_in_gdp_model():
    inst = gen_strip(3, 7)
    res = strip_oracle(inst)
    m = build_model(inst, "S_original")
    n = inst.n
    x = {}
    for i, (px, py) in enumerate(res.witness.positions):
        x[i] = px
        x[n + i] = py
    x[2 * n] = res.optimum
    y = {}
    b = 0
    for rel in res.witness.relations:
        for q in range(4):
            y[b + q] = q == rel
        b += 4
    assert check_assignment(m, x, y) == []


def interval_union():
    return (
        Disjunction(
            [
                Disjunct(0, [LinRow({0: 1.0}, 2.0)]),
                Disjunct(1, [LinRow({0: -1.0}, -5.0)]),
            ]
        ),
        {0: (0.0, 10.0)},
    )


def test_hull_oracle_interval_union():
    disj, boxes = interval_union()
    res = hull_oracle_1d2d(disj, boxes)
    assert res.mask.all()  # conv([0,2] u [5,10]) = [0,10]
    lp = rhr_relaxation_mask(disj, boxes)
    assert masks_agree_within_band(res.mask, lp.mask, band=2)


def test_hull_oracle_single_disjunct_degenerate():
    # degenerate two-copy disjunction of the same interval: hull = the set itself
    disj = Disjunction(
        [
            Disjunct(0, [LinRow({0: 1.0}, 4.0), LinRow({0: -1.0}, -1.0)]),
            Disjunct(1, [LinRow({0: 1.0}, 4.0), LinRow({0: -1.0}, -1.0)]),
        ]
    )
    res = hull_oracle_1d2d(disj, {0: (0.0, 10.0)}, resolution=100)
    xs = res.axes[0]
    assert np.array_equal(res.mask, (xs >= 1.0 - 1e-9) & (xs <= 4.0 + 1e-9))


def point(ind, x, y):
    return Disjunct(ind, [LinRow({0: 1.0}, x, EQ), LinRow({1: 1.0}, y, EQ)])


@pytest.mark.parametrize(
    "disjuncts, cells",
    [
        # the same point twice: a hull of one point
        ([point(0, 1.0, 1.0), point(1, 1.0, 1.0)], [(1, 1)]),
        # two points: a diagonal segment
        ([point(0, 1.0, 1.0), point(1, 3.0, 3.0)], [(1, 1), (2, 2), (3, 3)]),
        # a point and the segment x = 1, y <= 2: a segment along the y axis
        ([point(0, 1.0, 4.0), Disjunct(1, [LinRow({0: 1.0}, 1.0, EQ), LinRow({1: 1.0}, 2.0)])],
         [(1, y) for y in range(5)]),
    ],
    ids=["point", "diagonal", "vertical"],
)
def test_hull_oracle_of_a_point_or_a_segment(disjuncts, cells):
    """A hull of fewer than three vertices holds exactly the grid cells on
    it (cell width 1 over the box [0, 4]^2)."""
    res = hull_oracle_1d2d(Disjunction(disjuncts), {0: (0.0, 4.0), 1: (0.0, 4.0)}, resolution=4)
    assert sorted(map(tuple, np.argwhere(res.mask).tolist())) == cells


def test_hull_oracle_reads_ge_and_eq_rows_without_the_canonical_form(monkeypatch):
    """The oracle clips by each row as written, so a bug in the canonical
    rows that the passes share cannot move it."""
    import gldp.model

    def no_canonical_form(*args):
        raise AssertionError("the oracle read the canonical form")

    monkeypatch.setattr(gldp.model, "_canonical_block", no_canonical_form)
    box = {0: (0.0, 4.0), 1: (0.0, 4.0)}
    # the segment x = 1 and the box x >= 3, y <= 1: hull x >= 1, x + y <= 5
    segment = Disjunct(0, [LinRow({0: 1.0}, 1.0, EQ), LinRow({1: 1.0, 0: 0.0}, 0.0, GE)])
    corner = Disjunct(1, [LinRow({0: 1.0}, 3.0, GE), LinRow({1: 1.0}, 1.0)])
    res = hull_oracle_1d2d(Disjunction([segment, corner]), box, resolution=4)
    x, y = np.meshgrid(res.axes[0], res.axes[1], indexing="ij")
    assert res.var_ids == (0, 1)
    assert np.array_equal(res.mask, (x >= 1.0) & (x + y <= 5.0))
    # in one dimension: conv({1} u [3, 4]) = [1, 4]
    res = hull_oracle_1d2d(Disjunction([Disjunct(0, [segment.rows[0]]), Disjunct(1, [corner.rows[0]])]),
                           box, resolution=4)
    assert res.var_ids == (0,) and res.mask.tolist() == [False, True, True, True, True]


def two_squares():
    sq = lambda lo, hi, ind: Disjunct(
        ind,
        [
            LinRow({0: 1.0}, hi),
            LinRow({0: -1.0}, -lo),
            LinRow({1: 1.0}, hi),
            LinRow({1: -1.0}, -lo),
        ],
    )
    return Disjunction([sq(0.0, 1.0, 0), sq(4.0, 5.0, 1)]), {
        0: (0.0, 5.0),
        1: (0.0, 5.0),
    }


def test_hull_oracle_two_squares():
    disj, boxes = two_squares()
    res = hull_oracle_1d2d(disj, boxes, resolution=64)
    # corners inside the squares and on the diagonal bridge
    def at(xv, yv):
        ix = int(round(xv / 5.0 * 64))
        iy = int(round(yv / 5.0 * 64))
        return bool(res.mask[ix, iy])

    assert at(0.5, 0.5) and at(4.5, 4.5) and at(2.5, 2.5)
    assert not at(0.0, 5.0) and not at(5.0, 0.0)
    lp = rhr_relaxation_mask(disj, boxes, resolution=64)
    assert masks_agree_within_band(res.mask, lp.mask, band=2)


def test_hull_oracle_dimension_guard():
    disj = Disjunction(
        [
            Disjunct(0, [LinRow({0: 1.0, 1: 1.0, 2: 1.0}, 1.0)]),
            Disjunct(1, [LinRow({0: -1.0, 1: 1.0, 2: 1.0}, 1.0)]),
        ]
    )
    with pytest.raises(ValueError, match="dimensions"):
        hull_oracle_1d2d(disj, {i: (0.0, 1.0) for i in range(3)})


def test_masks_agree_within_band_rejects_interior_gaps():
    ref = np.zeros((20,), dtype=bool)
    ref[5:15] = True
    other = ref.copy()
    other[14] = False  # at the boundary: tolerated
    assert masks_agree_within_band(ref, other, band=2)
    other = ref.copy()
    other[10] = False  # interior hole: not tolerated
    assert not masks_agree_within_band(ref, other, band=2)


def test_oracle_relation_codes_cover_all_pairs():
    inst = StripInstance([Rect(3, 3), Rect(4, 3)], W=5)
    res = strip_oracle(inst)
    assert res.witness.relations[0] in (REL_LEFT_IJ, 1)
    inst = StripInstance([Rect(2, 2), Rect(2, 2)], W=6)
    res = strip_oracle(inst)
    assert res.witness.relations[0] in (REL_ABOVE_IJ, 3)
