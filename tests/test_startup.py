"""gldp imports scipy only when it solves an LP.

Each test runs in a fresh interpreter, so that modules the test session has
already loaded do not hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT_SCIPY = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
)

RESULTS_CSV = """\
instance,concept,reformulation,status,objective,bound,gap,nodes,wall_time
s_n3_s0,TS,BM,optimal,5.0,5.0,0.0,3,0.01
s_n3_s0,TS,RHR,time_limit,inf,-1.0,inf,7,1.5
"""


def scipy_modules_after(code: str, cwd: Path) -> list:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + REPORT_SCIPY],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_commands(*argvs) -> str:
    lines = ["from gldp.cli import main"]
    lines += [f"assert main({argv!r}) == 0, {argv!r}" for argv in argvs]
    return "\n".join(lines)


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import gldp", tmp_path) == []


def test_commands_that_solve_no_lp_load_no_scipy(tmp_path):
    (tmp_path / "results.csv").write_text(RESULTS_CSV)
    model = ["--concept", "TS", "--reform", "RHR", "--instance", "inst.json"]
    code = run_commands(
        ["gen", "--kind", "scheduling", "--n", "3", "--seed", "0", "-o", "inst.json"],
        ["build", "--concept", "GP_S", "--instance", "inst.json"],
        ["reformulate", *model],
        ["export-mps", *model, "-o", "m.mps"],
        ["profile", "--records", "results.csv", "-o", "profile.csv"],
    )
    assert scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "m.mps").exists() and (tmp_path / "profile.csv").exists()


def test_solve_loads_the_lp_solver_only(tmp_path):
    code = run_commands(
        ["gen", "--kind", "scheduling", "--n", "3", "--seed", "0", "-o", "inst.json"],
        ["solve", "--concept", "TS", "--reform", "RHR", "--instance", "inst.json"],
    )
    loaded = scipy_modules_after(code, tmp_path)
    assert "scipy.optimize" in loaded
    assert "scipy.ndimage" not in loaded


def test_first_solve_imports_the_lp_solver_before_its_clock_starts(tmp_path):
    """The first ``solve_bb`` of a process counts neither in ``wall_time``
    nor against ``time_limit`` the half second of importing HiGHS."""
    code = (
        "import sys, time\n"
        "from gldp import gen_scheduling, reformulate_bigm, solve_bb\n"
        "from gldp.builders import CONCEPTS\n"
        "milp = reformulate_bigm(CONCEPTS['TS'].build(gen_scheduling(3, 0)))\n"
        "clock, loaded = time.perf_counter, []\n"
        "def probe():\n"
        "    loaded.append('scipy.optimize._highspy._core' in sys.modules)\n"
        "    return clock()\n"
        "time.perf_counter = probe\n"
        "assert solve_bb(milp).status == 'optimal'\n"
        "time.perf_counter = clock\n"
        "assert loaded and all(loaded), loaded\n"
    )
    assert "scipy.optimize" in scipy_modules_after(code, tmp_path)
