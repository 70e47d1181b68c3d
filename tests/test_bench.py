import json
import math

import pytest

from gldp import (
    BBConfig,
    InstanceFormatError,
    SchedulingInstance,
    StripInstance,
    build_model,
    emit_profile,
    gen_scheduling,
    gen_strip,
    load_instance,
    records_from_csv,
    records_to_csv,
    run_bench,
    save_instance,
    shared_lhs,
)
import gldp.bench
from gldp.bench import CONCEPTS, CSV_FIELDS, RHR_CONCEPTS, BenchRecord


def test_load_scheduling_instance(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"jobs": [{"p": 3, "r": 0, "d": 10}, {"p": 2, "r": 0, "d": 10}]}))
    inst = load_instance(path)
    assert isinstance(inst, SchedulingInstance) and inst.n == 2


def test_load_strip_defaults_ub(tmp_path):
    path = tmp_path / "strip.json"
    path.write_text(json.dumps({"W": 5, "rects": [{"L": 3, "H": 2}, {"L": 4, "H": 2}]}))
    inst = load_instance(path)
    assert isinstance(inst, StripInstance) and inst.UB == 7.0


def test_load_rejects_infeasible_job(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"jobs": [{"p": 5, "r": 0, "d": 4}]}))
    with pytest.raises(InstanceFormatError, match="job 0"):
        load_instance(path)


def test_load_reports_missing_field_and_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"jobs": [{"p": 5, "r": 0}]}))
    with pytest.raises(InstanceFormatError, match="missing field 'd'"):
        load_instance(path)
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="line 1"):
        load_instance(path)
    path.write_text(json.dumps({"things": []}))
    with pytest.raises(InstanceFormatError, match="jobs.*rects|rects.*jobs"):
        load_instance(path)


@pytest.mark.parametrize("field", ["p", "r", "d"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_load_rejects_non_finite_job_field(tmp_path, field, value):
    job = {"p": "2", "r": "0", "d": "10", field: value}
    path = tmp_path / "bad.json"
    path.write_text('{"jobs": [{"p": 1, "r": 0, "d": 10}, {%s}]}'
                    % ", ".join(f'"{k}": {v}' for k, v in job.items()))
    with pytest.raises(InstanceFormatError, match=f"job 1: field '{field}' must be finite"):
        load_instance(path)


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"W": NaN, "rects": [{"L": 3, "H": 2}]}', "strip: field 'W'"),
        ('{"W": 5, "UB": Infinity, "rects": [{"L": 3, "H": 2}]}', "strip: field 'UB'"),
        ('{"W": 5, "rects": [{"L": 3, "H": 2}, {"L": 2, "H": NaN}]}', "rectangle 1: field 'H'"),
    ],
)
def test_load_rejects_non_finite_strip_field(tmp_path, text, where):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InstanceFormatError, match=f"{where} must be finite"):
        load_instance(path)


@pytest.mark.parametrize(
    "data, message",
    [
        ([{"p": 1, "r": 0, "d": 5}], "top level must be an object"),
        ({"jobs": [{"p": "2", "r": 0, "d": 5}]}, "job 0: field 'p' must be a number"),
        ({"jobs": [{"p": 2, "r": 0, "d": True}]}, "job 0: field 'd' must be a number"),
        ({"W": "5", "rects": [{"L": 3, "H": 2}]}, "strip: field 'W' must be a number"),
        ({"W": 5, "rects": [{"L": 3, "H": False}]}, "rectangle 0: field 'H' must be a number"),
        ({"jobs": []}, "'jobs' must be a nonempty list"),
        ({"jobs": {"p": 2, "r": 0, "d": 5}}, "'jobs' must be a nonempty list"),
        ({"W": 5, "rects": []}, "'rects' must be a nonempty list"),
        ({"W": 5, "rects": "3x2"}, "'rects' must be a nonempty list"),
        ({"jobs": [{"p": 2, "r": 0, "d": 5}, [2, 0, 5]]}, "job 1: must be an object"),
        ({"W": 5, "rects": [3, 2]}, "rectangle 0: must be an object"),
        ({"W": 5, "rects": [{"L": 3, "H": 2}, {"L": 1, "H": 6}]},
         "rectangle 1: height 6.0 exceeds strip width 5.0"),
    ],
)
def test_load_rejects_malformed_instances_by_field(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert str(err.value) == f"{path}: {message}"


def test_save_load_round_trip(tmp_path):
    inst = gen_scheduling(4, 3)
    save_instance(inst, tmp_path / "s.json")
    assert load_instance(tmp_path / "s.json") == inst
    strip = gen_strip(3, 3)
    save_instance(strip, tmp_path / "t.json")
    assert load_instance(tmp_path / "t.json") == strip


def sched_instances(n, seeds):
    return [(f"sched_n{n}_s{s}", gen_scheduling(n, s)) for s in range(seeds)]


def test_run_bench_counts_and_rejections():
    records, rejections = run_bench(
        sched_instances(5, 3),
        concepts=["GP", "GP_S", "TS"],
        reformulations=["BM", "HR", "RHR"],
    )
    # GP x RHR is rejected (GP_S is its aligned form); 3 seeds x 8 surviving pairs
    assert len(records) == 24
    assert [(c, r) for c, r, _ in rejections] == [("GP", "RHR")]


def test_run_bench_rejects_ip_rhr():
    records, rejections = run_bench(
        sched_instances(3, 1),
        concepts=["IP"],
        reformulations=["BM", "RHR"],
    )
    assert len(records) == 1
    assert rejections[0][:2] == ("IP", "RHR")
    # the one reason names every concept RHR accepts
    assert all(c in rejections[0][2] for c in RHR_CONCEPTS)


@pytest.mark.parametrize("seeds", [1, 0])
@pytest.mark.parametrize(
    "concepts, reformulations, message",
    [
        (["GP"], ["bm", "HR"], r"unknown reformulation 'bm'; expected one of \['BM', 'HR', 'RHR'\]"),
        (["GP", "gp"], ["BM"], r"unknown concept 'gp'; expected one of \['GP', 'GP_S', "),
    ],
)
def test_run_bench_rejects_unknown_names(seeds, concepts, reformulations, message):
    with pytest.raises(ValueError, match=message):
        run_bench(sched_instances(3, seeds), concepts, reformulations)


@pytest.mark.parametrize("workers", [0, -3])
def test_run_bench_rejects_fewer_than_one_worker(monkeypatch, workers):
    def no_run(task):
        raise AssertionError("a run started")

    monkeypatch.setattr(gldp.bench, "_bench_group", no_run)
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_bench(sched_instances(3, 1), ["TS"], ["BM"], workers=workers)


def test_rhr_concepts_are_exactly_the_shared_lhs_concepts():
    sched, strip = gen_scheduling(4, 0), gen_strip(3, 0)
    shared = {
        concept
        for concept in CONCEPTS
        if all(
            shared_lhs(d)
            for d in build_model(strip if CONCEPTS[concept].kind is StripInstance else sched, concept).disjunctions
        )
    }
    assert shared == RHR_CONCEPTS


def test_run_bench_type_mismatch():
    with pytest.raises(TypeError):
        run_bench(sched_instances(3, 1), concepts=["S0"], reformulations=["BM"])


def test_records_share_optimum_across_variants():
    records, _ = run_bench(
        sched_instances(4, 2),
        concepts=["GP", "GP_S", "TS"],
        reformulations=["BM", "HR", "RHR"],
    )
    by_instance = {}
    for r in records:
        assert r.status in ("optimal", "gap_limit")
        by_instance.setdefault(r.instance, []).append(r.objective)
    for vals in by_instance.values():
        assert max(vals) - min(vals) <= 1e-6


def test_csv_round_trip():
    records, _ = run_bench(
        sched_instances(3, 2), concepts=["TS"], reformulations=["BM", "RHR"]
    )
    text = records_to_csv(records)
    assert text.splitlines()[0] == ",".join(CSV_FIELDS)
    assert records_from_csv(text) == records


def test_csv_round_trip_preserves_infinite_gap():
    rec = BenchRecord("i0", "GP", "BM", "time_limit", math.inf, 12.0, math.inf, 7, 0.5)
    back = records_from_csv(records_to_csv([rec]))[0]
    assert math.isinf(back.objective) and math.isinf(back.gap)


def test_csv_rejects_a_row_of_the_wrong_length():
    rec = BenchRecord("i0", "GP", "BM", "optimal", 5.0, 5.0, 0.0, 3, 0.5)
    text = records_to_csv([rec])
    for bad in (text.rstrip("\n") + ",1\n", text.rsplit(",", 1)[0] + "\n"):
        with pytest.raises(ValueError, match="line 2: .* fields, expected 9"):
            records_from_csv(bad)


@pytest.mark.parametrize("field, bad, why", [
    ("nodes", "three", "invalid literal for int() with base 10: 'three'"),
    ("objective", "abc", "could not convert string to float: 'abc'"),
])
def test_csv_names_the_line_and_field_of_a_bad_value(field, bad, why):
    rec = BenchRecord("i0", "GP", "BM", "optimal", 5.0, 5.0, 0.0, 3, 0.5)
    header, line = records_to_csv([rec, rec]).splitlines()[:2]
    row = line.split(",")
    row[CSV_FIELDS.index(field)] = bad
    text = "\n".join([header, line, ",".join(row)]) + "\n"
    with pytest.raises(ValueError) as err:
        records_from_csv(text)
    assert str(err.value) == f"CSV line 3, field '{field}': {why}"


def test_empty_instance_list_gives_header_only_csv():
    records, _ = run_bench([], concepts=["TS"], reformulations=["BM"])
    assert records == []
    assert records_to_csv(records) == ",".join(CSV_FIELDS) + "\n"


def test_workers_match_serial_results():
    serial, _ = run_bench(
        sched_instances(4, 2), concepts=["TS"], reformulations=["BM", "HR"]
    )
    parallel, _ = run_bench(
        sched_instances(4, 2),
        concepts=["TS"],
        reformulations=["BM", "HR"],
        workers=2,
    )
    strip = lambda rs: [
        (r.instance, r.concept, r.reformulation, r.status, r.objective, r.nodes)
        for r in rs
    ]
    assert strip(serial) == strip(parallel)


def profile_records():
    mk = lambda i, c, ref, st, obj, gap, t: BenchRecord(i, c, ref, st, obj, obj, gap, 1, t)
    return [
        mk("i0", "TS", "RHR", "optimal", 10.0, 0.0, 1.0),
        mk("i1", "TS", "RHR", "optimal", 12.0, 0.0, 2.0),
        mk("i0", "TS", "BM", "optimal", 10.0, 0.0, 4.0),
        mk("i1", "TS", "BM", "time_limit", 12.0, 3.5, 9.0),
    ]


def test_profile_time_axis():
    text = emit_profile(profile_records(), axis="time")
    lines = text.splitlines()
    assert lines[0] == "threshold,TS_BM,TS_RHR,virtual_best,virtual_worst"
    table = {float(l.split(",")[0]): l.split(",")[1:] for l in lines[1:]}
    # TS_BM plateaus at 1 because i1 hit the time limit
    assert table[4.0] == ["1", "2", "2", "1"]
    assert table[1.0] == ["0", "1", "1", "0"]
    # virtual best solves both instances by t=2, virtual worst only i0 (at 4)
    assert table[2.0] == ["0", "2", "2", "0"]


def test_profile_gap_axis_counts_time_limited_incumbents():
    text = emit_profile(profile_records(), axis="gap")
    lines = text.splitlines()
    table = {float(l.split(",")[0]): l.split(",")[1:] for l in lines[1:]}
    assert table[0.0] == ["1", "2", "2", "1"]
    assert table[3.5] == ["2", "2", "2", "2"]


def test_profile_virtual_best_is_pointwise_floor():
    records = profile_records()
    text = emit_profile(records, axis="time")
    lines = text.splitlines()
    header = lines[0].split(",")
    vb = header.index("virtual_best")
    for line in lines[1:]:
        cells = line.split(",")
        counts = [int(c) for c in cells[1:]]
        # the virtual-best envelope metric is the per-instance minimum, so its
        # cumulative count dominates every variant column
        assert all(counts[vb - 1] >= c for c in counts[: vb - 1])


def test_profile_rejects_empty():
    with pytest.raises(ValueError):
        emit_profile([], axis="time")
    with pytest.raises(ValueError, match="axis"):
        emit_profile(profile_records(), axis="nodes")


def test_a_failing_run_does_not_abort_the_sweep(monkeypatch, caplog):
    import gldp.bench

    instances = sched_instances(3, 2)
    clean, _ = run_bench(instances, concepts=["GP", "TS"], reformulations=["BM", "HR"])
    real_solve_bb = gldp.bench.solve_bb
    calls = iter(range(len(clean)))

    def flaky_solve_bb(milp, config=None):
        if next(calls) == 5:  # sched_n3_s1, GP x HR
            raise RuntimeError("HiGHS LP solve ended with status 'Solve error'")
        return real_solve_bb(milp, config)

    monkeypatch.setattr(gldp.bench, "solve_bb", flaky_solve_bb)
    records, _ = run_bench(instances, concepts=["GP", "TS"], reformulations=["BM", "HR"])
    key = lambda r: (r.instance, r.concept, r.reformulation, r.status, r.objective, r.bound, r.nodes)
    assert [key(r)[:3] for r in records] == [
        (iid, c, f) for iid, _ in instances for c in ("GP", "TS") for f in ("BM", "HR")
    ]
    bad = records[5]
    assert (bad.instance, bad.concept, bad.reformulation, bad.status) == ("sched_n3_s1", "GP", "HR", "error")
    assert bad.objective == bad.bound == bad.gap == math.inf and bad.nodes == 0
    assert [key(r) for r in records[:5] + records[6:]] == [key(r) for r in clean[:5] + clean[6:]]
    assert "sched_n3_s1 GP x HR failed: RuntimeError" in caplog.text
    # an error record never counts as solved
    assert "GP_HR" in emit_profile(records, axis="time").splitlines()[0]


def test_a_dying_worker_costs_only_its_own_group(monkeypatch, caplog):
    import os

    import gldp.bench

    instances = sched_instances(3, 3)
    clean, _ = run_bench(instances, concepts=["GP", "TS"], reformulations=["BM", "HR"])
    real_solve_bb = gldp.bench.solve_bb

    def dying_solve_bb(milp, config=None):
        if milp.name == "ts3_hull":  # the worker process dies on every TS x HR run
            os._exit(1)
        return real_solve_bb(milp, config)

    monkeypatch.setattr(gldp.bench, "solve_bb", dying_solve_bb)
    records, _ = run_bench(
        instances, concepts=["GP", "TS"], reformulations=["BM", "HR"], workers=2
    )
    key = lambda r: (r.instance, r.concept, r.reformulation, r.status, r.objective, r.nodes)
    assert [key(r)[:3] for r in records] == [key(r)[:3] for r in clean]
    # the three TS groups die twice and lose both of their runs; GP is untouched
    assert [r.status == "error" for r in records] == [r.concept == "TS" for r in clean]
    assert [key(r) for r in records if r.concept == "GP"] == [key(r) for r in clean if r.concept == "GP"]
    assert "running the group again alone" in caplog.text
