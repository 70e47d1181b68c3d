import pytest

# HiGHS's own MPS reader serves as an independent parser of the files written.
from scipy.optimize._highspy import _core as highs

from gldp import (
    GE,
    LE,
    LinRow,
    MilpModel,
    MilpVar,
    build_model,
    build_ts,
    export_mps,
    gen_scheduling,
    gen_strip,
    reformulate_model,
    solve_bb,
    to_mps_string,
    reformulate_rhr,
)
from gldp.mps import _sanitized_names


def box_lp():
    return MilpModel(
        variables=[MilpVar("x", 3.0, 10.0)],
        rows=[],
        objective={0: 1.0},
        name="tiny",
    )


def read_back(tmp_path, milp):
    """Write ``milp`` as MPS and read the file with HiGHS."""
    path = tmp_path / "m.mps"
    export_mps(milp, path)
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    assert h.readModel(str(path)) == highs.HighsStatus.kOk
    return h


def test_mps_single_variable_round_trip(tmp_path):
    text = to_mps_string(box_lp())
    assert text.startswith("NAME")
    assert text.rstrip().endswith("ENDATA")
    h = read_back(tmp_path, box_lp())
    h.run()
    assert h.getInfo().objective_function_value == pytest.approx(3.0)


def test_mps_zero_row_model_is_valid():
    text = to_mps_string(box_lp())
    lines = text.splitlines()
    rows_at = lines.index("ROWS")
    cols_at = lines.index("COLUMNS")
    assert lines[rows_at + 1 : cols_at] == [" N  OBJ"]
    # the lonely column still appears once
    assert any(line.split()[:2] == ["x", "OBJ"] for line in lines[cols_at + 1 :])


def test_mps_marker_block_brackets_binaries():
    milp = reformulate_rhr(build_ts(gen_scheduling(3, 1)))
    text = to_mps_string(milp)
    lines = text.splitlines()
    intorg = [i for i, l in enumerate(lines) if "'INTORG'" in l]
    intend = [i for i, l in enumerate(lines) if "'INTEND'" in l]
    assert len(intorg) == 1 and len(intend) == 1 and intorg[0] < intend[0]
    names = {v.name for v in milp.variables if v.is_binary}
    inside = {l.split()[0] for l in lines[intorg[0] + 1 : intend[0]]}
    assert inside == names
    # all bounds explicit
    for v in milp.variables:
        assert f" LO BND  {v.name}" in text and f" UP BND  {v.name}" in text


@pytest.mark.parametrize(
    "instance,concept,reform",
    [
        (gen_scheduling(4, 1), "GP", "HR"),
        (gen_scheduling(4, 2), "GP_S", "RHR"),
        (gen_strip(3, 3), "S1", "HR"),
        (gen_scheduling(4, 4), "TS", "BM"),
    ],
)
def test_mps_round_trip_is_exact(tmp_path, instance, concept, reform):
    milp = reformulate_model(build_model(instance, concept), reform)
    lp = read_back(tmp_path, milp).getLp()
    n = len(milp.variables)
    assert list(lp.col_names_) == _sanitized_names(milp)
    assert list(lp.col_lower_) == [v.lower for v in milp.variables]
    assert list(lp.col_upper_) == [v.upper for v in milp.variables]
    integer = [t == highs.HighsVarType.kInteger for t in lp.integrality_]
    assert integer == [v.is_binary for v in milp.variables]
    assert list(lp.col_cost_) == [milp.objective.get(i, 0.0) for i in range(n)]
    assert lp.num_row_ == len(milp.rows)
    inf = highs.kHighsInf
    for r, row in enumerate(milp.rows):
        assert lp.row_lower_[r] == (-inf if row.sense == LE else row.rhs)
        assert lp.row_upper_[r] == (inf if row.sense == GE else row.rhs)
    a = lp.a_matrix_  # column-wise after reading
    entries = {
        (int(a.index_[k]), c): float(a.value_[k])
        for c in range(n)
        for k in range(a.start_[c], a.start_[c + 1])
    }
    assert entries == {(r, c): v for r, row in enumerate(milp.rows) for c, v in row.coeffs.items()}


def test_mps_round_trip_preserves_optimum(tmp_path):
    milp = reformulate_rhr(build_ts(gen_scheduling(4, 5)))
    direct = solve_bb(milp)
    h = read_back(tmp_path, milp)
    h.run()
    assert h.getModelStatus() == highs.HighsModelStatus.kOptimal
    assert h.getInfo().objective_function_value == pytest.approx(direct.objective, abs=1e-6)


def test_mps_output_deterministic():
    milp = reformulate_rhr(build_ts(gen_scheduling(3, 2)))
    assert to_mps_string(milp) == to_mps_string(milp)


@pytest.mark.parametrize("names", [["weird name!", "weird_name_"], ["a", "a_2", "a"]])
def test_mps_name_sanitization(tmp_path, names):
    m = MilpModel(
        variables=[MilpVar(n, 0.0, 1.0) for n in names],
        rows=[LinRow(dict.fromkeys(range(len(names)), 1.0), 1.0, LE, "r")],
        objective={0: 1.0},
    )
    text = to_mps_string(m)
    assert "weird name!" not in text
    back_names = list(read_back(tmp_path, m).getLp().col_names_)
    assert back_names == _sanitized_names(m) and len(set(back_names)) == len(names)
