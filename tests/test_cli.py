import json

import pytest

from gldp.cli import main


def write_instance(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps({"jobs": [{"p": 2, "r": 0, "d": 10}, {"p": 3, "r": 1, "d": 10}, {"p": 1, "r": 4, "d": 10}]})
    )
    return path


def test_gen_build_solve_pipeline(tmp_path, capsys):
    inst = tmp_path / "gen.json"
    assert main(["gen", "--kind", "scheduling", "--n", "4", "--seed", "1", "-o", str(inst)]) == 0
    assert main(["build", "--concept", "GP", "--instance", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "model valid" in out
    assert main(["solve", "--concept", "TS", "--reform", "RHR", "--instance", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "status:    optimal" in out


def test_reformulate_prints_statistics(tmp_path, capsys):
    inst = write_instance(tmp_path)
    assert main(["reformulate", "--concept", "TS", "--reform", "RHR", "--instance", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "continuous: 4" in out and "binary: 9" in out


def test_solve_rhr_needs_aligned_concept(tmp_path, capsys):
    inst = write_instance(tmp_path)
    assert main(["solve", "--concept", "GP", "--reform", "RHR", "--instance", str(inst)]) == 1
    err = capsys.readouterr().err
    assert "left-hand side" in err
    assert main(["solve", "--concept", "GP_S", "--reform", "RHR", "--instance", str(inst)]) == 0


@pytest.mark.parametrize("command", ["reformulate", "export-mps"])
@pytest.mark.parametrize("flag", ["--time-limit", "--rel-gap", "--node-limit"])
def test_solver_flags_only_on_solving_commands(tmp_path, command, flag):
    inst = write_instance(tmp_path)
    argv = [command, "--concept", "TS", "--reform", "RHR", "--instance", str(inst)]
    if command == "export-mps":
        argv += ["-o", str(tmp_path / "m.mps")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    assert exc.value.code == 2


def test_export_mps(tmp_path):
    inst = write_instance(tmp_path)
    out = tmp_path / "m.mps"
    assert main(
        ["export-mps", "--concept", "TS", "--reform", "RHR", "--instance", str(inst), "-o", str(out)]
    ) == 0
    assert out.read_text().startswith("NAME")


def test_bench_and_profile_commands(tmp_path, capsys):
    results = tmp_path / "results.csv"
    profdir = tmp_path / "profiles"
    code = main(
        [
            "bench",
            "--gen", "scheduling",
            "--sizes", "3:4",
            "--seeds", "2",
            "--concepts", "GP,TS",
            "--reforms", "BM,RHR",
            "-o", str(results),
            "--profile-out", str(profdir),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "rejected GP x RHR" in captured.err
    # 4 instances x (GP,BM / TS,BM / TS,RHR)
    lines = results.read_text().splitlines()
    assert len(lines) == 1 + 4 * 3
    assert (profdir / "profile_time.csv").exists()
    assert (profdir / "profile_gap.csv").exists()
    single = tmp_path / "p.csv"
    assert main(["profile", "--records", str(results), "--axis", "gap", "-o", str(single)]) == 0
    assert single.read_text().splitlines()[0].startswith("threshold,")


def test_bench_instance_files(tmp_path):
    inst = write_instance(tmp_path)
    results = tmp_path / "r.csv"
    assert main(
        ["bench", "--instances", str(inst), "--concepts", "TS", "--reforms", "HR", "-o", str(results)]
    ) == 0
    assert len(results.read_text().splitlines()) == 2


def test_bad_instance_file_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"jobs": [{"p": 5, "r": 0, "d": 4}]}))
    assert main(["build", "--concept", "GP", "--instance", str(bad)]) == 1
    assert "job 0" in capsys.readouterr().err


def test_bench_reports_failed_runs(tmp_path, capsys, monkeypatch):
    import gldp.bench

    def broken_solve_bb(milp, config=None):
        raise RuntimeError("HiGHS LP solve ended with status 'Solve error'")

    monkeypatch.setattr(gldp.bench, "solve_bb", broken_solve_bb)
    out = tmp_path / "res.csv"
    inst = write_instance(tmp_path)
    assert main(["bench", "--instances", str(inst), "--concepts", "TS", "--reforms", "BM,RHR",
                 "-o", str(out)]) == 0
    assert "2 run(s) raised an error" in capsys.readouterr().err
    assert [line.split(",")[3] for line in out.read_text().splitlines()[1:]] == ["error", "error"]


@pytest.mark.parametrize(
    "flag, name, message",
    [("--concepts", "GPX", "unknown concept 'GPX'"), ("--reforms", "bm", "unknown reformulation 'bm'")],
)
def test_bench_rejects_unknown_names(tmp_path, capsys, flag, name, message):
    inst = write_instance(tmp_path)
    out = tmp_path / "r.csv"
    argv = ["bench", "--instances", str(inst), "--concepts", "TS", "--reforms", "BM", "-o", str(out)]
    argv[argv.index(flag) + 1] = name
    assert main(argv) == 1
    assert f"error: {message}; expected one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [("--sizes", "5:3", "--sizes '5:3' gives no size"),
     ("--sizes", ",", "--sizes ',' gives no size"),
     ("--seeds", "0", "--seeds must be at least 1, got 0"),
     ("--seeds", "-2", "--seeds must be at least 1, got -2"),
     ("--workers", "0", "--workers must be at least 1, got 0"),
     ("--workers", "-1", "--workers must be at least 1, got -1")],
)
def test_bench_rejects_an_empty_sweep(tmp_path, capsys, flag, value, message):
    out = tmp_path / "r.csv"
    argv = ["bench", "--gen", "scheduling", "--sizes", "3", "--seeds", "1", "--workers", "1",
            "--concepts", "TS", "--reforms", "BM", "-o", str(out)]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "wrote" not in captured.out
    assert not out.exists()
