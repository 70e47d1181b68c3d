"""The hull (HR) and the reaggregated hull (RHR) compared as sets.

Criterion 4 compares the two roots along one objective, the makespan or the
strip length.  Here the LP relaxations are compared along random objectives
over the model's x and y columns, which are the first ``len(vars) +
len(bools)`` columns of every pass's MILP.
"""

from dataclasses import replace

import numpy as np
import pytest

from gldp import (
    align_model,
    build_model,
    build_ts,
    gen_scheduling,
    gen_strip,
    reformulate_hull,
    reformulate_rhr,
    solve_lp,
)

OBJECTIVES = 10
REL_TOL = 1e-7


def random_objectives(model, n, seed):
    rng = np.random.default_rng([n, seed])
    cols = len(model.vars) + len(model.bools)
    return [dict(enumerate(rng.uniform(-1.0, 1.0, cols).tolist())) for _ in range(OBJECTIVES)]


def lp_values(milp, objectives):
    values = []
    for objective in objectives:
        res = solve_lp(replace(milp, objective=objective))
        assert res.status == "optimal"
        values.append(res.objective)
    return values


def slack(hull_value):
    return REL_TOL * max(1.0, abs(hull_value))


ALIGNED_CASES = [(gen_scheduling, "GP_S", n, seed) for n in range(3, 8) for seed in range(4)] + [
    (gen_strip, concept, n, seed)
    for concept in ("S0", "S1")
    for n in range(3, 6)
    for seed in range(4)
]


@pytest.mark.parametrize(
    "gen,concept,n,seed", ALIGNED_CASES, ids=[f"{c}-n{n}-s{s}" for _, c, n, s in ALIGNED_CASES]
)
def test_aligned_concepts_rhr_equals_hull_as_a_set(gen, concept, n, seed):
    model = build_model(gen(n, seed), concept)
    objectives = random_objectives(model, n, seed)
    hull = lp_values(reformulate_hull(model), objectives)
    rhr = lp_values(reformulate_rhr(model), objectives)
    for h, r in zip(hull, rhr):
        assert abs(r - h) <= slack(h)


TS_CASES = [(n, seed) for n in range(3, 8) for seed in range(4)]


@pytest.mark.parametrize("n,seed", TS_CASES, ids=[f"TS-n{n}-s{s}" for n, s in TS_CASES])
def test_ts_rhr_reaches_the_hull_as_a_set_once_aligned(n, seed):
    """TS shares a left-hand side as built, so RHR runs on it unaligned; it
    is never above the hull there, and equal to it once aligned."""
    model = build_ts(gen_scheduling(n, seed))
    objectives = random_objectives(model, n, seed)
    hull = lp_values(reformulate_hull(model), objectives)
    rhr = lp_values(reformulate_rhr(model), objectives)
    aligned = lp_values(reformulate_rhr(align_model(model)), objectives)
    for h, r, a in zip(hull, rhr, aligned):
        assert r <= h + slack(h)
        assert abs(a - h) <= slack(h)
