import math

import pytest
from hypothesis import given, settings, strategies as st

from gldp import (
    EQ,
    GE,
    LE,
    ContinuousVar,
    Disjunct,
    Disjunction,
    GdpModel,
    LinRow,
    canonicalize_rows,
    check_assignment,
    validate,
)


def tiny_model(**overrides):
    base = dict(
        vars=[ContinuousVar("x", 0.0, 10.0), ContinuousVar("z", 0.0, 5.0)],
        bools=["y1", "y2"],
        objective={0: 1.0},
        global_rows=[LinRow({0: 1.0, 1: 1.0}, 12.0)],
        disjunctions=[
            Disjunction(
                [
                    Disjunct(0, [LinRow({0: 1.0}, 2.0)]),
                    Disjunct(1, [LinRow({0: -1.0}, -5.0)]),
                ],
                label="split",
            )
        ],
        logic=[LinRow({0: 1, 1: 1}, 1, LE)],
    )
    base.update(overrides)
    return GdpModel(**base)


def test_valid_model_has_no_diagnostics():
    assert validate(tiny_model()) == []


def test_undeclared_variable_is_reported():
    bad = tiny_model(
        disjunctions=[
            Disjunction(
                [
                    Disjunct(0, [LinRow({7: 1.0}, 2.0)]),
                    Disjunct(1, [LinRow({0: -1.0}, -5.0)]),
                ]
            )
        ]
    )
    diags = validate(bad)
    assert len(diags) == 1
    assert "disjunct 0" in diags[0] and "undeclared variable 7" in diags[0]


def test_inverted_box_is_reported():
    bad = tiny_model(vars=[ContinuousVar("x", 3.0, 1.0), ContinuousVar("z", 0.0, 5.0)])
    diags = validate(bad)
    assert len(diags) == 1 and "lower 3.0 exceeds upper 1.0" in diags[0]


def test_infinite_box_is_reported():
    bad = tiny_model(vars=[ContinuousVar("x", 0.0, math.inf), ContinuousVar("z", 0.0, 5.0)])
    assert any("finite" in d for d in validate(bad))


def test_single_disjunct_and_duplicate_indicator_reported():
    bad = tiny_model(
        disjunctions=[Disjunction([Disjunct(0, [LinRow({0: 1.0}, 2.0)])] * 2)]
    )
    diags = validate(bad)
    assert any("duplicate indicator" in d for d in diags)
    bad = tiny_model(
        disjunctions=[
            Disjunction([Disjunct(0, [LinRow({0: 1.0}, 2.0)])], label="lonely")
        ]
    )
    assert any("at least two disjuncts" in d for d in validate(bad))


def test_empty_row_and_bad_logic_reported():
    bad = tiny_model(global_rows=[LinRow({}, 0.0)])
    assert any("no nonzero coefficient" in d for d in validate(bad))
    bad = tiny_model(logic=[LinRow({0: 1.5}, 1, LE)])
    assert any("non-integer coefficient" in d for d in validate(bad))


def test_repeated_name_is_reported_once():
    bad = tiny_model(
        vars=[ContinuousVar("x", 0.0, 10.0), ContinuousVar("x", 0.0, 5.0)],
        bools=["x", "b", "y2", "b"],
    )
    assert validate(bad) == ["duplicate variable name 'b'", "duplicate variable name 'x'"]


def test_values_that_are_not_numbers_are_reported_not_raised():
    bad = tiny_model(
        vars=[ContinuousVar("x", 0.0, None), ContinuousVar("z", 0.0, 5.0)],
        global_rows=[LinRow({0: 1.0, 1: "2"}, None)],
        disjunctions=[
            Disjunction(
                [
                    Disjunct(0, [LinRow({0: 1.0}, math.nan)]),
                    Disjunct(None, [LinRow({0: 10**400}, -5.0)]),
                ]
            )
        ],
        logic=[LinRow({0: None}, math.inf, LE)],
        objective={None: 1.0},
    )
    assert validate(bad) == [
        "variable 0 (x): box bound is not a number",
        "global row 0: coefficient on variable 1 is not a number",
        "global row 0: right-hand side is not a number",
        "disjunction 0, disjunct 0, row 0: right-hand side is not finite",
        "disjunction 0, disjunct 1: undeclared indicator None",
        "disjunction 0, disjunct 1, row 0: coefficient on variable 0 is not finite",
        "logic row 0: non-integer coefficient None",
        "logic row 0: non-integer right-hand side",
        "objective: references undeclared variable None",
    ]


def test_objective_coefficients_must_be_finite_numbers():
    bad = tiny_model(objective={0: math.nan, 1: "1"})
    assert validate(bad) == [
        "objective: coefficient on variable 0 is not finite",
        "objective: coefficient on variable 1 is not a number",
    ]


def test_canonicalize_flips_ge_rows():
    d = Disjunct(0, [LinRow({1: 1.0, 0: -1.0}, 3.0, GE)])
    out = canonicalize_rows(d)
    assert out.rows == (LinRow({1: -1.0, 0: 1.0}, -3.0, LE),)


def test_canonicalize_splits_equalities():
    d = Disjunct(0, [LinRow({0: 1.0}, 3.0, EQ)])
    out = canonicalize_rows(d)
    assert list(out.rows) == [
        LinRow({0: -1.0}, -3.0, LE),
        LinRow({0: 1.0}, 3.0, LE),
    ]


def test_canonicalize_is_idempotent_and_sorted():
    d = Disjunct(
        0,
        [
            LinRow({0: 1.0}, 5.0),
            LinRow({0: 1.0, 1: -1.0}, -2.0),
            LinRow({0: 1.0}, 2.0),
        ],
    )
    once = canonicalize_rows(d)
    assert canonicalize_rows(once) == once
    keys = [(tuple(sorted(r.coeffs.items())), r.rhs) for r in once.rows]
    assert keys == sorted(keys)


coeff_strategy = st.dictionaries(
    st.integers(0, 2),
    st.integers(-4, 4).filter(lambda a: a != 0).map(float),
    min_size=1,
    max_size=3,
)
row_strategy = st.builds(
    LinRow,
    coeff_strategy,
    st.integers(-20, 20).map(float),
    st.sampled_from([LE, GE, EQ]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(row_strategy, min_size=1, max_size=5), st.data())
def test_canonicalize_preserves_feasible_set(rows, data):
    d = Disjunct(0, rows)
    canon = canonicalize_rows(d)
    assert canonicalize_rows(canon) == canon
    point = {
        v: data.draw(st.integers(-10, 10).map(float), label=f"x{v}") for v in range(3)
    }
    before = all(r.satisfied(point, 1e-9) for r in d.rows)
    after = all(r.satisfied(point, 1e-9) for r in canon.rows)
    assert before == after


def test_check_assignment_closes_the_loop():
    m = tiny_model()
    ok = check_assignment(m, {0: 1.0, 1: 2.0}, {0: True, 1: False})
    assert ok == []
    # x = 6 violates the active disjunct's row x <= 2
    bad = check_assignment(m, {0: 6.0, 1: 2.0}, {0: True, 1: False})
    assert any("disjunct 0" in p for p in bad)
    # both indicators on violates exactly-one and the logic row
    bad = check_assignment(m, {0: 1.0, 1: 2.0}, {0: True, 1: True})
    assert any("active disjuncts" in p for p in bad)
    assert any("logic row" in p for p in bad)
    # a satisfied >= logic row is not reported
    ge = tiny_model(logic=[LinRow({0: 1, 1: 1}, 1, GE)])
    bad = check_assignment(ge, {0: 1.0, 1: 2.0}, {0: True, 1: True})
    assert not any("logic row" in p for p in bad)
