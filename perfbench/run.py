#!/usr/bin/env python3
"""Benchmark of gldp: B&B solves on both case studies and a formulate-and-relax sweep.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sched-solve --seed 1 --seconds 30 --trace 0

The run generates its instances from ``--seed``, writes them as instance
JSON under ``perfbench/out/`` and loads them through ``gldp.load_instance``.
It then repeats whole rounds (every operation of the workload once, in a
fixed order) until ``--seconds`` have passed, and checks every operation
against values computed without gldp (see ``reference.py``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  README.md describes the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

TOL = 1e-6
SETUP_PROBES = 5
SOLVED = ("optimal", "gap_limit")

SCHED_PAIRS = [
    ("GP", "BM"), ("GP", "HR"),
    ("GP_S", "BM"), ("GP_S", "HR"), ("GP_S", "RHR"),
    ("IP", "BM"), ("IP", "HR"),
    ("TS", "BM"), ("TS", "HR"), ("TS", "RHR"),
]
STRIP_PAIRS = [
    ("S_original", "BM"), ("S_original", "HR"),
    ("S_symbreak", "BM"), ("S_symbreak", "HR"),
    ("S0", "BM"), ("S0", "HR"), ("S0", "RHR"),
    ("S1", "BM"), ("S1", "HR"), ("S1", "RHR"),
]
ALL_PAIRS = SCHED_PAIRS + STRIP_PAIRS
# Concepts whose hull and reaggregated-hull roots must agree.
RHR_CONCEPTS = ("GP_S", "TS", "S0", "S1")

# Instances per class of reference.sched_class / reference.strip_class, in
# about the proportions the generators produce them.  Fixing the mix keeps
# B&B effort alike from one seed to the next (node counts per round differ
# by a few percent between seeds).  A round takes about 9 s, so a 30 s run
# has two or three rounds to take each operation's median over.
SCHED_QUOTAS = {
    3: {0: 13, 1: 13, 2: 5, 3: 3},
    4: {0: 1, 1: 2, 2: 3, 3: 2, 4: 1, 5: 1, 6: 1},
}
STRIP_QUOTAS = {
    3: {(0, 0, 1): 6, (1, 0, 1): 6, (2, 0, 0): 1, (2, 0, 1): 4,
        (3, 0, 0): 1, (3, 0, 1): 1, (3, 1, 0): 2},
}


@dataclass(frozen=True)
class Item:
    """One instance of a workload and the pairs run on it."""

    iid: str
    data: dict
    pairs: Tuple[Tuple[str, str], ...]
    ref: int  # optimum (solve workloads) or a feasible value (formulate)


def _items(tag: str, insts: List[dict], pairs, ref_fn) -> List[Item]:
    return [Item(f"{tag}{k:02d}", d, tuple(pairs), ref_fn(d)) for k, d in enumerate(insts)]


def _solve_items(tag, quotas_by_n, gen, classify, pairs, optimum, rng: random.Random) -> List[Item]:
    items: List[Item] = []
    for n, quotas in quotas_by_n.items():
        insts = ref.stratified(lambda r: gen(n, r), classify, quotas, rng)
        items += _items(f"{tag}{n}_", insts, pairs, optimum)
    return items


def plan_sched_solve(rng: random.Random) -> List[Item]:
    return _solve_items("s", SCHED_QUOTAS, ref.gen_scheduling, ref.sched_class, SCHED_PAIRS, ref.sched_optimum, rng)


def plan_strip_solve(rng: random.Random) -> List[Item]:
    return _solve_items("r", STRIP_QUOTAS, ref.gen_strip, ref.strip_class, STRIP_PAIRS, ref.strip_optimum, rng)


# formulate: (tag, pairs, sizes, instances of each size).  Sizes step
# evenly, and the instances whose root LP time depends most on the data come
# two of each size, so that operation times spread evenly and their
# percentiles rest on many operations.  IP and TS hull roots grow fastest, so
# their sizes stay small; GP n=40 has 1560 indicators.
FORMULATE_SCHED = [
    ("gp", SCHED_PAIRS[0:5], range(20, 41, 4), 1),
    ("ip", SCHED_PAIRS[5:7], range(6, 10), 2),
    ("ts", SCHED_PAIRS[7:10], range(10, 15), 2),
]
FORMULATE_STRIP = [("st", STRIP_PAIRS, range(8, 13), 2)]


def plan_formulate(rng: random.Random) -> List[Item]:
    items: List[Item] = []
    for table, gen, feasible in (
        (FORMULATE_SCHED, ref.gen_scheduling, ref.release_order_makespan),
        (FORMULATE_STRIP, ref.gen_strip, ref.one_row_length),
    ):
        for tag, pairs, sizes, copies in table:
            for n in sizes:
                items += _items(f"{tag}{n}_", [gen(n, rng) for _ in range(copies)], pairs, feasible)
    return items


WORKLOADS: Dict[str, Tuple[str, Callable[[random.Random], List[Item]]]] = {
    "sched-solve": ("solve", plan_sched_solve),
    "strip-solve": ("solve", plan_strip_solve),
    "formulate": ("formulate", plan_formulate),
}


@dataclass
class Op:
    item: Item
    loaded: object  # the instance as gldp.load_instance returned it
    concept: str
    reform: str

    @property
    def pair(self) -> str:
        return f"{self.concept}-{self.reform}"


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, mode: str, gldp_bench, gldp_milp):
        self.mode = mode
        self.bench = gldp_bench
        self.milp = gldp_milp
        self.roots: Dict[Tuple[str, str, str], float] = {}

    def run(self, op: Op):
        """The timed part of an operation.  Calls go through the module
        attributes so that the tracer's wrappers see them."""
        if self.mode == "solve":
            return self.bench.run_single(op.item.iid, op.loaded, op.concept, op.reform)
        model = self.bench.build_model(op.loaded, op.concept)
        milp = self.bench.reformulate_model(model, op.reform)
        return model, milp, self.milp.solve_lp(milp)

    def check(self, op: Op, out) -> Tuple[tuple, Optional[str]]:
        """(signature, error): the values that must repeat exactly, and why the
        output is wrong, or None."""
        if self.mode == "solve":
            sig = (op.item.iid, op.pair, out.status, repr(out.objective), out.nodes)
            if out.status not in SOLVED:
                return sig, f"status {out.status}"
            if abs(out.objective - op.item.ref) > TOL * max(1.0, abs(op.item.ref)):
                return sig, f"objective {out.objective} != reference optimum {op.item.ref}"
            return sig, None
        model, milp, root = out
        nnz = sum(len(r.coeffs) for r in milp.rows)
        sig = (op.item.iid, op.pair, root.status, repr(root.objective), len(milp.rows), nnz, milp.num_continuous)
        if root.status != "optimal":
            return sig, f"root status {root.status}"
        z = root.objective
        tol = TOL * max(1.0, abs(z))
        self.roots[(op.item.iid, op.concept, op.reform)] = z
        if z > op.item.ref + tol:
            return sig, f"root {z} above feasible value {op.item.ref}"
        if op.reform == "RHR" and milp.num_continuous != len(model.vars):
            return sig, f"RHR has {milp.num_continuous} continuous columns, model has {len(model.vars)}"
        if op.reform == "HR":
            bm = self.roots.get((op.item.iid, op.concept, "BM"))
            if bm is not None and bm > z + tol:
                return sig, f"BM root {bm} above HR root {z}"
        if op.reform == "RHR" and op.concept in RHR_CONCEPTS:
            hr = self.roots.get((op.item.iid, op.concept, "HR"))
            if hr is None or abs(hr - z) > tol:
                return sig, f"RHR root {z} != HR root {hr}"
        return sig, None


@dataclass
class RoundResult:
    times: List[Optional[float]]  # wall time per operation, None if it raised
    sigs: List[tuple]
    failed: int
    wrong: List[str]

    @property
    def wall(self) -> float:
        return sum(t for t in self.times if t is not None)


def run_round(runner: Runner, ops: List[Op], tracer: Optional[Tracer]) -> RoundResult:
    rr = RoundResult([], [], 0, [])
    runner.roots.clear()
    # Start every round with empty collector generations, so that garbage
    # collections fall on the same operations in every round.
    gc.collect()
    for op in ops:
        span = tracer.span("bench.op", label=op.pair) if tracer is not None else contextlib.nullcontext()
        try:
            with span:
                t0 = time.perf_counter()
                out = runner.run(op)
                dt = time.perf_counter() - t0
            sig, err = runner.check(op, out)
        except Exception:  # one failing operation must not end the run
            rr.failed += 1
            rr.times.append(None)
            rr.sigs.append((op.item.iid, op.pair, "error"))
            print(f"{op.item.iid} {op.pair}: raised\n{traceback.format_exc()}", file=sys.stderr)
            continue
        rr.times.append(dt)
        rr.sigs.append(sig)
        if err is not None:
            rr.failed += 1
            rr.wrong.append(f"{op.item.iid} {op.pair}: {err}")
    return rr


def op_medians(rounds: List[RoundResult]) -> List[Optional[float]]:
    """Each operation's median wall time over the rounds (None if it raised
    in every round).  The median drops the bursts of a machine whose speed
    varies from second to second."""
    cols = ([t for t in col if t is not None] for col in zip(*(r.times for r in rounds)))
    return [statistics.median(ts) if ts else None for ts in cols]


# ---- tracing -----------------------------------------------------------

def _size_counts(args, kwargs, m) -> Dict[str, float]:
    return {
        "rows": len(m.rows),
        "nnz": sum(len(r.coeffs) for r in m.rows),
        "cont": m.num_continuous,
    }


def _align_counts(args, kwargs, m) -> Dict[str, float]:
    return {
        "rows": sum(len(dj.rows) for disj in m.disjunctions for dj in disj.disjuncts),
        "empty": len(m.logic) - len(args[0].logic),
    }


# (target, span name, counts read from the call).  The targets are the names
# the callers look up: run_single and reformulate_model call through
# gldp.bench, the aligned builders call align_model through gldp.builders,
# and the passes call validate through gldp.reformulate.
WRAPS = [
    ("gldp.bench.load_instance", "bench.load", None),
    ("gldp.bench.run_single", "bench.run_single", None),
    ("gldp.bench.build_model", "builders.build",
     lambda a, k, m: {"disjuncts": sum(len(d.disjuncts) for d in m.disjunctions)}),
    ("gldp.builders.align_model", "reformulate.align", _align_counts),
    ("gldp.bench.reformulate_model", "reformulate.model", None),
    ("gldp.reformulate.validate", "model.validate", None),
    ("gldp.bench.reformulate_bigm", "reformulate.bm", _size_counts),
    ("gldp.bench.reformulate_hull", "reformulate.hr", _size_counts),
    ("gldp.bench.reformulate_rhr", "reformulate.rhr", _size_counts),
    ("gldp.milp.solve_lp", "milp.root", None),
    ("gldp.bench.solve_bb", "milp.bb", lambda a, k, r: {"nodes": r.nodes}),
    ("gldp.milp.linprog", "milp.lp", lambda a, k, r: {"iters": getattr(r, "nit", 0)}),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _pair_total(t: Tracer, pair: str, key: Optional[str]) -> float:
    total = 0.0
    for s in t.spans:
        if s.name == "milp.bb":
            op = t.ancestor(s, "bench.op")
            if op is not None and op.label == pair:
                total += s.counts.get(key, 0) if key else s.duration
    return total


def _layer_metrics() -> List[Tuple[str, str, bool, Tuple[str, ...], Callable[[Tracer], float]]]:
    """(name, unit, is_count, span names it needs, value from one traced round)."""
    m = [
        ("bench.orch_s", "s", False, ("bench.run_single", "builders.build", "reformulate.model", "milp.bb"),
         lambda t: t.self_time("bench.run_single")),
        ("builders.build_s", "s", False, ("builders.build", "reformulate.align"),
         lambda t: t.total("builders.build") - t.total_within("reformulate.align", "builders.build")),
        ("builders.disjuncts", "count", True, ("builders.build",),
         lambda t: t.count("builders.build", "disjuncts")),
        ("align.s", "s", False, ("reformulate.align",), lambda t: t.total("reformulate.align")),
        ("align.rows", "count", True, ("reformulate.align",), lambda t: t.count("reformulate.align", "rows")),
        ("align.empty", "count", True, ("reformulate.align",), lambda t: t.count("reformulate.align", "empty")),
        ("validate.s", "s", False, ("model.validate",), lambda t: t.total("model.validate")),
        ("validate.calls", "count", True, ("model.validate",), lambda t: t.calls("model.validate")),
    ]
    for p in ("bm", "hr", "rhr"):
        span = f"reformulate.{p}"
        m.append((f"reform.{p}_s", "s", False, (span,), lambda t, s=span: t.total(s)))
        for key in ("rows", "nnz", "cont"):
            m.append((f"size.{p}.{key}", "count", True, (span,), lambda t, s=span, k=key: t.count(s, k)))
    m += [
        ("lp.calls", "count", True, ("milp.lp",), lambda t: t.calls("milp.lp")),
        ("lp.s", "s", False, ("milp.lp",), lambda t: t.total("milp.lp")),
        ("lp.ms_per_call", "ms", False, ("milp.lp",),
         lambda t: 1000.0 * _ratio(t.total("milp.lp"), t.calls("milp.lp"))),
        ("lp.iters", "count", True, ("milp.lp",), lambda t: t.count("milp.lp", "iters")),
        ("root.s", "s", False, ("milp.root",), lambda t: t.total("milp.root")),
        ("root.compile_s", "s", False, ("milp.root", "milp.lp"),
         lambda t: t.total("milp.root") - t.total_within("milp.lp", "milp.root")),
        ("bb.s", "s", False, ("milp.bb",), lambda t: t.total("milp.bb")),
        ("bb.lp_s", "s", False, ("milp.bb", "milp.lp"), lambda t: t.total_within("milp.lp", "milp.bb")),
        ("bb.py_s", "s", False, ("milp.bb", "milp.lp"),
         lambda t: t.total("milp.bb") - t.total_within("milp.lp", "milp.bb")),
        ("bb.nodes", "count", True, ("milp.bb",), lambda t: t.count("milp.bb", "nodes")),
        ("bb.nodes_per_s", "1/s", False, ("milp.bb",),
         lambda t: _ratio(t.count("milp.bb", "nodes"), t.total("milp.bb"))),
    ]
    for c, r in ALL_PAIRS:
        pair = f"{c}-{r}"
        m.append((f"bb.nodes.{pair}", "count", True, ("milp.bb",), lambda t, p=pair: _pair_total(t, p, "nodes")))
        m.append((f"bb.s.{pair}", "s", False, ("milp.bb",), lambda t, p=pair: _pair_total(t, p, None)))
    return m


LAYER_METRICS = _layer_metrics()


# ---- set-up ------------------------------------------------------------

def measure_setup(inst_dir: Path) -> float:
    """Median set-up time of fresh interpreters (import gldp, load every
    instance file), each timed by setup_probe.py itself."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(inst_dir)]
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def import_gldp():
    """Import gldp from this checkout's ``src``, and nowhere else."""
    if not (SRC / "gldp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gldp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gldp
    import gldp.bench
    import gldp.milp

    if Path(gldp.__file__).resolve().parent != (SRC / "gldp").resolve():
        raise SystemExit(f"perfbench: imported gldp from {gldp.__file__}, not from {SRC}")
    return gldp.bench, gldp.milp


def write_instances(items: List[Item], inst_dir: Path) -> List[Path]:
    inst_dir.mkdir(parents=True, exist_ok=True)
    for old in inst_dir.glob("*.json"):
        old.unlink()
    paths = []
    for it in items:
        path = inst_dir / f"{it.iid}.json"
        path.write_text(json.dumps(it.data) + "\n")
        paths.append(path)
    return paths


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values, default=str).encode()).hexdigest()[:16]


# ---- main --------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mode, plan = WORKLOADS[args.workload]
    bench_mod, milp_mod = import_gldp()

    items = plan(random.Random(f"{args.workload}:{args.seed}"))
    inst_dir = OUT / f"{args.workload}-s{args.seed}"
    paths = write_instances(items, inst_dir)
    setup_s = measure_setup(inst_dir)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        for target, name, counts in WRAPS:
            tracer.wrap(target, name, counts)
    loaded = [bench_mod.load_instance(p) for p in paths]
    load_s = tracer.total("bench.load") if tracer is not None else 0.0
    if tracer is not None:
        tracer.unwrap()

    ops = [Op(it, inst, c, r) for it, inst in zip(items, loaded) for c, r in it.pairs]
    runner = Runner(mode, bench_mod, milp_mod)
    # Warm-up, untimed and uncounted: the last operation of each pair, on
    # the largest instance where sizes differ, so that lazy imports,
    # first-call costs and the growth of the heap stay out of the rounds.
    for op in {op.pair: op for op in ops}.values():
        runner.run(op)

    rounds: List[RoundResult] = []
    traced: List[Tuple[RoundResult, Dict[str, float]]] = []
    # Whole rounds only: stop when the next round, taking as long as the
    # last one, would end after --seconds.  The first round always runs.
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rounds.append(run_round(runner, ops, None))
        if tracer is not None:
            tracer.clear()
            for target, name, counts in WRAPS:
                tracer.wrap(target, name, counts)
            try:
                rr = run_round(runner, ops, tracer)
            finally:
                tracer.unwrap()
            values = {name: fn(tracer) for name, _, _, _, fn in LAYER_METRICS}
            traced.append((rr, values))
        now = time.perf_counter()
        if now + (now - t_round) > start + args.seconds:
            break

    every = rounds + [rr for rr, _ in traced]
    attempted = len(ops) * len(every)
    failed = sum(r.failed for r in every)
    problems = [w for r in every for w in r.wrong]
    first = rounds[0].sigs
    for k, r in enumerate(every[1:], start=1):
        if r.sigs != first:
            diff = sum(1 for a, b in zip(first, r.sigs) if a != b)
            problems.append(f"round {k}: {diff} operation results differ from round 0")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    medians = [t for t in op_medians(rounds) if t is not None]
    nodes = sum(sig[4] for sig in first if len(sig) == 5) if mode == "solve" else 0
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations x {len(every)} rounds; "
          f"round wall {[round(r.wall, 3) for r in every]}; B&B nodes per round {nodes}", file=sys.stderr)
    by_pair: Dict[str, List[float]] = {}
    for op, t in zip(ops, op_medians(rounds)):
        if t is not None:
            by_pair.setdefault(op.pair, []).append(t)
    for pair, ts in by_pair.items():
        print(f"  {pair:16s} median {statistics.median(ts):.4f} s  total {sum(ts):.3f} s", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (sum(medians), "s"),
            "op_p50_s": (statistics.median(medians), "s"),
            "op_p90_s": (statistics.quantiles(medians, n=10)[-1], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"results digest {digest(first)}")
        (OUT / f"{args.workload}-s{args.seed}-times.json").write_text(json.dumps({
            "ops": [[op.item.iid, op.pair] for op in ops],
            "rounds": [r.times for r in rounds],
        }) + "\n")
    else:
        missing = set(tracer.missing)
        counts0 = {name: traced[0][1][name] for name, _, is_count, _, _ in LAYER_METRICS if is_count}
        for k, (_, values) in enumerate(traced[1:], start=1):
            moved = [n for n, v in counts0.items() if values[n] != v]
            if moved:
                problems.append(f"traced round {k}: counts differ: {moved}")
        metrics = {}
        unmeasured = []
        if "bench.load" in missing:
            unmeasured.append("bench.load_s")
        else:
            metrics["bench.load_s"] = (load_s, "s")
        for name, unit, is_count, needs, _ in LAYER_METRICS:
            if missing.intersection(needs):
                unmeasured.append(name)
                continue
            vals = [v[name] for _, v in traced]
            metrics[name] = (vals[0] if is_count else statistics.median(vals), unit)
        metrics["trace.overhead_s"] = (
            sum(t for t in op_medians([rr for rr, _ in traced]) if t is not None) - sum(medians),
            "s",
        )
        print(f"results digest {digest(first)}")
        print(f"counts digest {digest(counts0)}")
        print(json.dumps({"unmeasured": unmeasured, "missing_wrap_targets": sorted(missing)}))
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{args.workload}-s{args.seed}-trace.json").write_text(json.dumps({
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "unmeasured": unmeasured,
            "spans": [[s.name, s.start, s.end, s.parent, s.label, s.counts] for s in tracer.spans],
        }) + "\n")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
