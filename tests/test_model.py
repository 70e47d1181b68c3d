import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
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
    build_model,
    check_assignment,
    gen_scheduling,
    gen_strip,
    reformulate_bigm,
    reformulate_hull,
    reformulate_rhr,
    validate,
)
from gldp.bench import CONCEPTS, REFORMULATIONS, check_compatible
from gldp.model import (
    SENSES,
    CanonicalRows,
    RowStore,
    _bulk_valid,
    _canonical_block,
    _diagnose,
    row_range,
)
from gldp.builders import StripInstance


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


def with_disjunct_row(m, fn):
    """``m`` with ``fn`` applied to the last row of the first disjunct of
    its middle disjunction."""
    k = len(m.disjunctions) // 2
    disj = m.disjunctions[k]
    first = disj.disjuncts[0]
    rows = list(first.rows[:-1]) + [fn(first.rows[-1])]
    new = Disjunction([Disjunct(first.indicator, rows)] + list(disj.disjuncts[1:]), disj.label)
    return replace(m, disjunctions=m.disjunctions[:k] + [new] + m.disjunctions[k + 1 :])


def with_global_row(m, fn):
    return replace(m, global_rows=[fn(m.global_rows[0])] + m.global_rows[1:])


def coefficient(value):
    """A row with ``value`` in place of its first coefficient."""
    return lambda r: LinRow({**r.coeffs, next(iter(r.coeffs)): value}, r.rhs, r.sense)


def first_index(v):
    """A row with its first coefficient moved onto variable ``v``."""
    return lambda r: LinRow(
        {v if i == 0 else u: a for i, (u, a) in enumerate(r.coeffs.items())}, r.rhs, r.sense
    )


def with_logic(coeff):
    return lambda m: replace(m, logic=m.logic + [LinRow({0: coeff, 1: 1}, 1, LE)])


BREAKS = {
    "valid": lambda m: m,
    **{
        f"{where}-coefficient-{name}": lambda m, f=f, v=v: f(m, coefficient(v))
        for where, f in (("disjunct", with_disjunct_row), ("global", with_global_row))
        for name, v in (
            ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("fraction", Fraction(1, 3)),
            ("float64", np.float64(2.0)), ("bool", True), ("huge-int", 10**400),
        )
    },
    "objective-nan": lambda m: replace(m, objective={**m.objective, 0: math.nan}),
    "objective-fraction": lambda m: replace(m, objective={**m.objective, 0: Fraction(1, 2)}),
    "rhs-huge-int": lambda m: with_disjunct_row(m, lambda r: LinRow(r.coeffs, 10**400, r.sense)),
    "box-huge-int": lambda m: replace(m, vars=[replace(m.vars[0], upper=10**400)] + m.vars[1:]),
    "index-out-of-range": lambda m: with_disjunct_row(m, first_index(len(m.vars))),
    "index-negative": lambda m: with_global_row(m, first_index(-1)),
    "index-bool": lambda m: with_disjunct_row(m, first_index(True)),
    # indicator 0, of the first disjunct of the first disjunction, as False
    "indicator-bool": lambda m: replace(m, disjunctions=[
        Disjunction([Disjunct(False, d.disjuncts[0].rows)] + list(d.disjuncts[1:]), d.label)
        for d in m.disjunctions[:1]] + m.disjunctions[1:]),
    "empty-row": lambda m: with_disjunct_row(m, lambda r: LinRow({}, r.rhs, r.sense)),
    "zero-row": lambda m: with_global_row(m, lambda r: LinRow(dict.fromkeys(r.coeffs, 0.0), r.rhs)),
    "unknown-sense": lambda m: with_disjunct_row(m, lambda r: LinRow(r.coeffs, r.rhs, "<")),
    "logic-1.5": with_logic(1.5),
    "logic-1.0": with_logic(1.0),
    "logic-nan": with_logic(math.nan),
    "logic-sense": lambda m: replace(m, logic=m.logic + [LinRow({0: 1}, 1, ">=")]),
    "duplicate-name": lambda m: replace(m, bools=[m.bools[1]] + m.bools[1:]),
    "duplicate-var-name": lambda m: replace(m, vars=[replace(m.vars[0], name=m.bools[0])] + m.vars[1:]),
    "disjunct-coeffs-list": lambda m: with_disjunct_row(m, lambda r: LinRow(list(r.coeffs.items()), r.rhs)),
    "global-coeffs-list": lambda m: with_global_row(m, lambda r: LinRow(list(r.coeffs.items()), r.rhs)),
    "logic-coeffs-list": lambda m: replace(m, logic=m.logic + [LinRow([(0, 1)], 1, LE)]),
    "objective-list": lambda m: replace(m, objective=list(m.objective.items())),
    "var-name-unhashable": lambda m: replace(m, vars=[replace(m.vars[0], name=["x"])] + m.vars[1:]),
    "var-name-int": lambda m: replace(m, vars=[replace(m.vars[0], name=0)] + m.vars[1:]),
    "indicator-name-unhashable": lambda m: replace(m, bools=[["y"]] + m.bools[1:]),
    "global-row-none": lambda m: with_global_row(m, lambda r: None),
    "var-none": lambda m: replace(m, vars=[None] + m.vars[1:]),
    "disjunction-none": lambda m: replace(m, disjunctions=[None] + m.disjunctions[1:]),
    "disjunct-none": lambda m: replace(m, disjunctions=[
        Disjunction([None] + list(d.disjuncts[1:]), d.label) for d in m.disjunctions[:1]] + m.disjunctions[1:]),
    "disjunct-row-none": lambda m: with_disjunct_row(m, lambda r: None),
    "logic-row-none": lambda m: replace(m, logic=m.logic + [None]),
    "bools-none": lambda m: replace(m, bools=None),
    "disjunct-coefficient-array": lambda m: with_disjunct_row(m, coefficient(np.array([1.0, 2.0]))),
}
# What the row-by-row walk accepts; the bulk check takes only "valid" and "logic-1.0".
VALID_BREAKS = {"valid", "objective-fraction", "index-bool", "indicator-bool", "logic-1.0"} | {
    f"{where}-coefficient-{name}"
    for where in ("disjunct", "global")
    for name in ("fraction", "float64", "bool")
}


@pytest.mark.parametrize(
    "concept,inst", [("GP_S", gen_scheduling(4, 1)), ("S1", gen_strip(4, 1))], ids=["GP_S", "S1"]
)
@pytest.mark.parametrize("brk", sorted(BREAKS))
def test_bulk_validation_gives_the_messages_of_the_walk(concept, inst, brk, monkeypatch):
    m = BREAKS[brk](build_model(inst, concept))
    walked = _diagnose(m)
    bulk = brk in ("valid", "logic-1.0")
    assert _bulk_valid(m) == bulk
    if bulk:  # a model the bulk check clears is not walked
        monkeypatch.setattr("gldp.model._diagnose", lambda m: pytest.fail("walked"))
    diags = validate(m)
    assert diags == walked
    assert (diags == []) == (brk in VALID_BREAKS)


@pytest.mark.parametrize("brk", sorted(set(BREAKS) - VALID_BREAKS))
def test_a_pass_rejects_every_broken_model_with_a_value_error(brk):
    m = BREAKS[brk](build_model(gen_scheduling(4, 1), "GP_S"))
    with pytest.raises(ValueError, match="^invalid model: "):
        reformulate_bigm(m)


def test_malformed_containers_and_names_are_reported_by_field():
    bad = tiny_model(
        vars=[ContinuousVar(["x"], 0.0, 10.0), ContinuousVar("z", 0.0, 5.0)],
        bools=["y1", {"y2"}],
        objective=[(0, 1.0)],
        global_rows=[LinRow([(0, 1.0)], 12.0)],
        logic=[LinRow(None, 1, LE)],
    )
    assert _bulk_valid(bad) is False
    assert validate(bad) == [
        "global row 0: coefficients are not a dict",
        "logic row 0: coefficients are not a dict",
        "objective: not a dict",
        "variable 0: name ['x'] is not a string",
        "indicator 1: name {'y2'} is not a string",
    ]


def test_entries_of_the_wrong_type_are_reported_by_field():
    assert validate(tiny_model(global_rows=[None], bools=None, logic=[None])) == [
        "bools: not a list",
        "global row 0: None is not a LinRow",
        "disjunction 0 (split), disjunct 0: undeclared indicator 0",
        "disjunction 0 (split), disjunct 1: undeclared indicator 1",
        "logic row 0: None is not a LinRow",
    ]
    split = tiny_model().disjunctions[0]
    bad = tiny_model(
        vars=[None, ContinuousVar("z", 0.0, 5.0)],
        disjunctions=[None, Disjunction([None, Disjunct(1, [None, LinRow({0: np.ones(2)}, 1.0)])])],
    )
    assert _bulk_valid(bad) is False
    assert validate(bad) == [
        "variable 0: None is not a ContinuousVar",
        "disjunction 0: None is not a Disjunction",
        "disjunction 1, disjunct 0: None is not a Disjunct",
        "disjunction 1, disjunct 1, row 0: None is not a LinRow",
        "disjunction 1, disjunct 1, row 1: coefficient on variable 0 is not a number",
    ]
    assert validate(tiny_model(disjunctions=[split])) == []


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


def _as_le_rows(row):
    """Reference: a row as one or two ``<=`` rows, zero coefficients dropped
    (an already canonical row as it is)."""
    values = row.coeffs.values()
    if (
        row.sense == LE
        and type(row.rhs) is float
        and not row.provenance
        and set(map(type, values)) == {float}
        and 0.0 not in values
    ):
        return [row]
    coeffs = {v: float(a) for v, a in row.coeffs.items() if a != 0.0}
    lo, hi = row_range(row.sense, float(row.rhs))
    rows = []
    if hi < math.inf:
        rows.append(LinRow(coeffs, hi))
    if lo > -math.inf:
        rows.append(LinRow({v: -a for v, a in coeffs.items()}, -lo))
    return rows


def _canonical_entries(disjunct):
    """Reference: a disjunct's canonical rows by a plain sort of tuples
    (sorted items, rhs, source row, half, row)."""
    entries = [
        (tuple(sorted(r.coeffs.items())), r.rhs, i, h, r)
        for i, row in enumerate(disjunct.rows)
        for h, r in enumerate(_as_le_rows(row))
    ]
    entries.sort()
    return entries


def reference_block(disjunctions):
    """Every array of a CanonicalRows, made one disjunct at a time."""
    rows, tags, first, gd = [], [], [0], []
    counts = [len(d.disjuncts) for d in disjunctions]
    for k, disj in enumerate(disjunctions):
        for j, d in enumerate(disj.disjuncts):
            for _, _, i, h, r in _canonical_entries(d):
                rows.append(r)
                tags.append((j, i, h))
                gd.append(sum(counts[:k]) + j)
        first.append(len(rows))
    lens = [len(r.coeffs) for r in rows]
    j, i, h = np.array(tags, dtype=np.intp).reshape(-1, 3).T
    doff = np.array([0] + list(itertools.accumulate(counts)), dtype=np.intp)
    gd = np.array(gd, dtype=np.intp)
    return CanonicalRows(
        start=np.array([0] + list(itertools.accumulate(lens)), dtype=np.intp),
        cols=np.array([v for r in rows for v in r.coeffs], dtype=np.intp),
        vals=np.array([a for r in rows for a in r.coeffs.values()], dtype=float),
        rhs=np.array([r.rhs for r in rows], dtype=float),
        disjunct=j, source=i, half=h.astype(bool),
        first=np.array(first, dtype=np.intp),
        k=np.array([k for k in range(len(counts)) for _ in range(first[k + 1] - first[k])], dtype=np.intp),
        gd=gd,
        dk=np.array([k for k, c in enumerate(counts) for _ in range(c)], dtype=np.intp),
        doff=doff,
        rowoff=np.array([sum(1 for g in gd.tolist() if g < b) for b in range(doff[-1] + 1)], dtype=np.intp),
    )


any_row = st.builds(
    LinRow,
    st.dictionaries(
        st.integers(0, 3),
        st.one_of(st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -0.5])),
        max_size=4,
    ),
    st.one_of(st.integers(-5, 5), st.sampled_from([0.0, -0.0, 1.5, -2.0])),
    st.sampled_from([LE, GE, EQ]),
)
any_disjunction = st.builds(
    Disjunction,
    st.lists(st.builds(Disjunct, st.integers(0, 3), st.lists(any_row, max_size=4)), min_size=1, max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(any_disjunction, max_size=4).map(lambda ds: ds + ds[:1]))
def test_canonical_block_is_the_plain_sort(disjunctions):
    got, want = _canonical_block(disjunctions), reference_block(disjunctions)
    for name, a, b in zip(CanonicalRows._fields, got, want):
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name
        assert np.signbit(a).tolist() == np.signbit(b).tolist(), name
    for disj in disjunctions:
        for d in disj.disjuncts:
            assert canonicalize_rows(d) == Disjunct(d.indicator, [e[-1] for e in _canonical_entries(d)])


def test_canonicalize_rejects_an_unknown_sense():
    with pytest.raises(ValueError, match="unknown row sense '<'"):
        canonicalize_rows(Disjunct(0, [LinRow({0: 1.0}, 1.0), LinRow({0: 1.0}, 2.0, "<")]))


MISTYPED_ROWS = [
    (LinRow({1.5: 1.0}, 0.0), "references undeclared variable 1.5"),
    (LinRow({0: "2"}, 1.0), "coefficient on variable 0 is not a number"),
    (LinRow({0: 1.0}, None), "right-hand side is not a number"),
]


@pytest.mark.parametrize("row, why", MISTYPED_ROWS)
def test_canonicalize_rejects_a_row_of_the_wrong_type(row, why):
    with pytest.raises(ValueError, match=re.escape(f"disjunct 0, row 1: {why}")):
        canonicalize_rows(Disjunct(0, [LinRow({0: 1.0}, 1.0), row]))
    assert why in " ".join(_diagnose(tiny_model(disjunctions=[Disjunction([Disjunct(0, [row]), Disjunct(1, [])])])))


LE_CODE, EQ_CODE = SENSES.index(LE), SENSES.index(EQ)


def test_row_store_sorts_the_rows_written_since_it_last_joined():
    s = RowStore()
    a = s.add_rows(np.array([2, 0]), 0, np.array([1, 5]), 0, LE_CODE, np.array([1.0, 2.0]), lambda: ["k2", "k0"])
    b = s.add_rows(np.array([1]), 0, 0, 0, EQ_CODE, 3.0, ["k1"])
    # row k0's entries come in three calls, its own in the order written
    s.entries(a, np.array([3, 4]), np.array([1.0, 2.0]))
    s.entries(b, 7, -1.0)
    s.entries(a[[1, 1]], np.array([0, 9]), np.array([5.0, 6.0]))
    assert len(s) == 3
    start, cols, vals, code, rhs = s.arrays()
    assert start.tolist() == [0, 3, 4, 5]
    assert cols.tolist() == [4, 0, 9, 7, 3] and vals.tolist() == [2.0, 5.0, 6.0, -1.0, 1.0]
    assert code.tolist() == [LE_CODE, EQ_CODE, LE_CODE] and rhs.tolist() == [2.0, 3.0, 1.0]
    assert s.provenance == ["k0", "k1", "k2"]
    assert s.view() == (LinRow({4: 2.0, 0: 5.0, 9: 6.0}, 2.0, LE, "k0"), LinRow({7: -1.0}, 3.0, EQ, "k1"),
                        LinRow({3: 1.0}, 1.0, LE, "k2"))

    # a row written alone comes after the keyed rows of its batch, in order;
    # a batch written after arrays() comes after the rows joined before
    s.add({1: 1.0}, GE, 4.0, "alone0")
    c = s.add_rows(np.array([-1]), 0, 0, 0, LE_CODE, 5.0, ["k-1"])
    s.entries(c, 2, 1.0)
    s.add({}, "<", 6.0, "alone1")
    start, cols, _, code, rhs = s.arrays()
    assert s.provenance == ["k0", "k1", "k2", "k-1", "alone0", "alone1"]
    assert start.tolist() == [0, 3, 4, 5, 6, 7, 7] and cols.tolist() == [4, 0, 9, 7, 3, 2, 1]
    assert rhs.tolist() == [2.0, 3.0, 1.0, 5.0, 4.0, 6.0]
    assert [s.senses[c] for c in code.tolist()] == [LE, EQ, LE, LE, GE, "<"]
    assert len(s) == 6 and s.copy() == s


def test_no_pass_writes_a_row_alone(monkeypatch):
    """Every row a pass writes goes to the store in a keyed block."""
    def alone(*args):
        raise AssertionError("a row was written alone")

    monkeypatch.setattr(RowStore, "add", alone)
    sched, strip = gen_scheduling(4, 0), gen_strip(3, 0)
    passes = {"BM": reformulate_bigm, "HR": reformulate_hull, "RHR": reformulate_rhr}
    ran = 0
    for concept in CONCEPTS:
        inst = strip if CONCEPTS[concept].kind is StripInstance else sched
        for reform in REFORMULATIONS:
            if check_compatible(concept, reform) is None:
                milp = passes[reform](build_model(inst, concept))
                assert len(milp.rows) == len(milp.store.provenance) > 0
                ran += 1
    assert ran == 20


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
