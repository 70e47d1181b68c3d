#!/usr/bin/env python3
"""Checks of the benchmark's own checks.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py            # about five minutes

Each check prints one PASS or FAIL line; the exit code is 1 if any failed.

- The references find known optima of hand-made instances.
- A wrong optimum, a BM root above the HR root, an HR root that differs
  from the RHR root, a root above the feasible value and an RHR model with
  extra continuous columns are each reported as wrong.
- A wrap target that does not exist is reported as unmeasured, and the
  traced run still ends with a result.
- Objectives, node counts, model sizes and the traced counts repeat exactly
  between an untraced run, a traced run and a repeated traced run of the
  same seed, in separate processes.
- Every run prints exactly the metrics BENCHMARK.json lists, with their
  units.
- In a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference as ref  # noqa: E402
import run  # noqa: E402

failures = 0


def report(name: str, ok: bool, detail: str = "") -> None:
    global failures
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""), flush=True)


def check_references() -> None:
    sched = {"jobs": [{"p": 3, "r": 0, "d": 20}, {"p": 2, "r": 0, "d": 2}, {"p": 4, "r": 6, "d": 20}]}
    # job 1 must go first (due 2), then job 0, then job 2 from its release 6
    report("sched optimum of a hand-made instance", ref.sched_optimum(sched) == 10)
    squares = {"W": 10, "rects": [{"L": 5, "H": 5}, {"L": 5, "H": 5}, {"L": 4, "H": 10}]}
    # the two squares stack in one column of length 5; the tall one sits beside it
    report("strip optimum of a hand-made instance", ref.strip_optimum(squares) == 9)
    tall = {"W": 10, "rects": [{"L": 2, "H": 6}, {"L": 3, "H": 6}, {"L": 4, "H": 6}]}
    report("strip optimum when nothing stacks", ref.strip_optimum(tall) == ref.one_row_length(tall) == 9)


def _item(data: dict, pairs, value) -> run.Item:
    return run.Item("t00", data, tuple(pairs), value)


def check_checks(bench, milp) -> None:
    rng = random.Random("selfcheck")
    sched = ref.gen_scheduling(4, rng)
    path = run.OUT / "selfcheck" / "t00.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sched))
    inst = bench.load_instance(path)

    solve = run.Runner("solve", bench, milp)
    opt = ref.sched_optimum(sched)
    good = run.Op(_item(sched, [("GP", "BM")], opt), inst, "GP", "BM")
    out = solve.run(good)
    report("a right optimum passes", solve.check(good, out)[1] is None)
    bad = dataclasses.replace(good, item=_item(sched, [("GP", "BM")], opt + 1))
    report("a wrong optimum is caught", solve.check(bad, out)[1] is not None)

    form = run.Runner("formulate", bench, milp)
    feasible = ref.release_order_makespan(sched)
    item = _item(sched, run.SCHED_PAIRS[2:5], feasible)
    ops = {r: run.Op(item, inst, "GP_S", r) for r in ("BM", "HR", "RHR")}
    outs = {r: form.run(op) for r, op in ops.items()}
    errs = [form.check(ops[r], outs[r])[1] for r in ("BM", "HR", "RHR")]
    report("true roots pass", errs == [None, None, None], str(errs))

    model, m, root = outs["RHR"]
    shifted = (model, m, dataclasses.replace(root, objective=root.objective + 0.5))
    report("an HR root that differs from the RHR root is caught", form.check(ops["RHR"], shifted)[1] is not None)

    model, m, root = outs["BM"]
    form.roots[(item.iid, "GP_S", "BM")] = form.roots[(item.iid, "GP_S", "HR")] + 0.5
    report("a BM root above the HR root is caught", form.check(ops["HR"], outs["HR"])[1] is not None)

    low = dataclasses.replace(ops["BM"], item=_item(sched, item.pairs, root.objective - 1))
    report("a root above the feasible value is caught", form.check(low, outs["BM"])[1] is not None)

    model, m, root = outs["RHR"]
    extra = dataclasses.replace(m, variables=m.variables + [dataclasses.replace(m.variables[0], name="extra")])
    form.roots[(item.iid, "GP_S", "HR")] = root.objective
    report("an RHR model with an added continuous column is caught",
           form.check(ops["RHR"], (model, extra, root))[1] is not None)


def check_missing_wrap() -> None:
    saved_wraps, saved_quotas = run.WRAPS, run.SCHED_QUOTAS
    run.WRAPS = [w if w[1] != "milp.lp" else ("gldp.milp.no_such_lp_call", "milp.lp", None) for w in run.WRAPS]
    run.SCHED_QUOTAS = {3: {0: 1, 1: 1}}
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "sched-solve", "--seed", "1", "--seconds", "0", "--trace", "1"])
    finally:
        run.WRAPS, run.SCHED_QUOTAS = saved_wraps, saved_quotas
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    marks = json.loads(lines[-2])
    lp_metrics = [m[0] for m in run.LAYER_METRICS if "milp.lp" in m[3]]
    report("a missing wrap target leaves the run whole", code == 0 and result["correct"] and result["failed"] == 0)
    report("metrics of a missing wrap target are marked unmeasured",
           set(lp_metrics) <= set(marks["unmeasured"]) and not set(lp_metrics) & set(result["metrics"])
           and marks["missing_wrap_targets"] == ["milp.lp"], str(marks))
    report("the other per-layer metrics are still reported", "bb.nodes" in result["metrics"])


def _run(workload: str, trace: int, cwd: Path = run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _digests(stdout: str) -> dict:
    return dict(line.rsplit(" ", 1) for line in stdout.splitlines() if " digest " in line)


def check_repeats() -> None:
    for workload in run.WORKLOADS:
        plain, traced, again = (_run(workload, t) for t in (0, 1, 1))
        d0, d1, d2 = (_digests(p.stdout) for p in (plain, traced, again))
        ok = all(p.returncode == 0 for p in (plain, traced, again))
        report(f"{workload}: results repeat across untraced, traced and repeated runs",
               ok and d0["results digest"] == d1["results digest"] == d2["results digest"], f"{d0} {d1} {d2}")
        report(f"{workload}: traced counts repeat across runs", ok and d1["counts digest"] == d2["counts digest"])
        if ok:
            spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
            for proc, key in ((plain, "end_to_end"), (traced, "per_layer")):
                printed = json.loads(proc.stdout.splitlines()[-1])["metrics"]
                listed = {m["name"]: m["unit"] for m in spec[key]}
                report(f"{workload}: the {key} metrics printed are those BENCHMARK.json lists, with their units",
                       {k: v["unit"] for k, v in printed.items()} == listed)


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _run("sched-solve", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{") for line in done.stdout.splitlines())
    report("without the program's sources the benchmark fails and prints no result",
           done.returncode != 0 and not printed_result, done.stderr.strip().splitlines()[-1])


def main() -> int:
    bench, milp = run.import_gldp()
    check_references()
    check_checks(bench, milp)
    check_missing_wrap()
    check_bare_directory()
    check_repeats()
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
