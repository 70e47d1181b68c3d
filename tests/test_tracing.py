"""The benchmark's tracer sees every layer it wraps.

``perfbench/run.py`` measures per-layer time by wrapping module attributes
of gldp (``WRAPS``).  A refactor that moves a call away from the attribute
a wrap names leaves that layer's metric silently at 0; this test fails
instead.
"""

import importlib.util
import sys
from pathlib import Path

import gldp.bench
import gldp.milp
from gldp import gen_scheduling, gen_strip, save_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_run():
    """Import ``perfbench/run.py``, which puts its own folder on the path."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_every_wrap_target_records_spans(tmp_path):
    run = _perfbench_run()
    sched, strip = tmp_path / "sched.json", tmp_path / "strip.json"
    save_instance(gen_scheduling(3, 0), sched)
    save_instance(gen_strip(2, 0), strip)
    tracer = run.Tracer()
    try:
        for target, name, counts in run.WRAPS:
            tracer.wrap(target, name, counts)
        gp_s = gldp.bench.load_instance(sched)
        s0 = gldp.bench.load_instance(strip)
        for reform in ("BM", "HR", "RHR"):
            gldp.bench.run_single("gp_s", gp_s, "GP_S", reform)
            model = gldp.bench.build_model(s0, "S0")
            gldp.milp.solve_lp(gldp.bench.reformulate_model(model, reform))
    finally:
        tracer.unwrap()
    assert tracer.missing == []
    for _, name, _ in run.WRAPS:
        assert tracer.calls(name) > 0, f"no span recorded for {name}"
