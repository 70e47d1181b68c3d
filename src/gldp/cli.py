"""Command-line interface.

Subcommands: ``gen`` (write a random instance), ``build`` (model statistics),
``reformulate`` (MILP statistics for a pass), ``solve`` (branch-and-bound on
one instance), ``bench`` (factorial sweep to CSV, optionally with profile
CSVs), ``profile`` (profiles from an existing results CSV), and
``export-mps``.  Only ``solve`` and ``bench`` take the solver flags
``--rel-gap``, ``--time-limit`` and ``--node-limit``.  The ``--concept``
choices are the names of ``builders.CONCEPTS``, and ``GENERATORS`` maps each
instance kind of ``gen --kind`` and ``bench --gen`` to its generator.  RHR
runs only on ``bench.RHR_CONCEPTS``; any other concept with ``--reform RHR``
is an error in ``solve``, ``reformulate`` and ``export-mps`` and a reported
rejection in ``bench``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .bench import (
    CONCEPTS,
    REFORMULATIONS,
    InstanceFormatError,
    build_model,
    check_compatible,
    emit_profile,
    load_instance,
    records_from_csv,
    records_to_csv,
    reformulate_model,
    run_bench,
    save_instance,
)
from .builders import gen_scheduling, gen_strip
from .milp import BBConfig, solve_bb
from .model import MilpModel, validate
from .mps import export_mps

# Instance kind -> (generator, prefix of the generated instance ids).
GENERATORS = {"scheduling": (gen_scheduling, "sched"), "strip": (gen_strip, "strip")}


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--rel-gap", type=float, default=BBConfig.rel_gap, help="relative optimality gap"
    )
    p.add_argument("--time-limit", type=float, default=None, help="seconds per solve")
    p.add_argument("--node-limit", type=int, default=None, help="node cap per solve")


def _config(args: argparse.Namespace) -> BBConfig:
    return BBConfig(
        rel_gap=args.rel_gap, time_limit=args.time_limit, node_limit=args.node_limit
    )


def _parse_sizes(spec: str) -> List[int]:
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",") if s]


def _gen_suite(kind: str, sizes: Sequence[int], seeds: int):
    gen, prefix = GENERATORS[kind]
    return [
        (f"{prefix}_n{n}_s{seed}", gen(n, seed))
        for n in sizes
        for seed in range(seeds)
    ]


def cmd_gen(args) -> int:
    gen, _ = GENERATORS[args.kind]
    inst = gen(args.n, args.seed)
    save_instance(inst, args.output)
    print(f"wrote {args.kind} instance (n={args.n}, seed={args.seed}) to {args.output}")
    return 0


def cmd_build(args) -> int:
    inst = load_instance(args.instance)
    model = build_model(inst, args.concept)
    diags = validate(model)
    print(f"concept {args.concept}: {model.num_vars} continuous vars, "
          f"{model.num_bools} indicators, {len(model.global_rows)} global rows, "
          f"{len(model.disjunctions)} disjunctions, {len(model.logic)} logic rows")
    if diags:
        for d in diags:
            print(f"invalid: {d}")
        return 1
    print("model valid")
    return 0


def _reformulated(args) -> MilpModel:
    """Load, build and reformulate ``args.instance`` as ``args.concept`` x ``args.reform``."""
    reason = check_compatible(args.concept, args.reform)
    if reason:
        raise ValueError(f"{args.concept} x {args.reform}: {reason}")
    model = build_model(load_instance(args.instance), args.concept)
    return reformulate_model(model, args.reform)


def cmd_reformulate(args) -> int:
    stats = _reformulated(args).stats()
    print(f"{args.concept} x {args.reform}:")
    for key, val in stats.items():
        print(f"  {key}: {val}")
    return 0


def cmd_solve(args) -> int:
    res = solve_bb(_reformulated(args), _config(args))
    print(f"status:    {res.status}")
    print(f"objective: {res.objective}")
    print(f"bound:     {res.bound}")
    print(f"gap:       {res.gap}")
    print(f"nodes:     {res.nodes}")
    print(f"wall_time: {res.wall_time:.3f}s")
    return 0


def cmd_export_mps(args) -> int:
    export_mps(_reformulated(args), args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_bench(args) -> int:
    if args.gen:
        instances = _gen_suite(args.gen, _parse_sizes(args.sizes), args.seeds)
    elif args.instances:
        instances = [(Path(p).stem, load_instance(p)) for p in args.instances]
    else:
        print("bench needs --gen or --instances", file=sys.stderr)
        return 2
    concepts = [c for c in args.concepts.split(",") if c]
    reforms = [r for r in args.reforms.split(",") if r]
    records, rejections = run_bench(
        instances, concepts, reforms, _config(args), args.workers
    )
    for concept, reform, reason in rejections:
        print(f"rejected {concept} x {reform}: {reason}", file=sys.stderr)
    errors = sum(1 for r in records if r.status == "error")
    if errors:
        print(f"{errors} run(s) raised an error; their records have status 'error'",
              file=sys.stderr)
    Path(args.output).write_text(records_to_csv(records))
    print(f"wrote {len(records)} records to {args.output} "
          f"({len(rejections)} pair(s) rejected)")
    if args.profile_out:
        outdir = Path(args.profile_out)
        outdir.mkdir(parents=True, exist_ok=True)
        for axis in ("time", "gap"):
            path = outdir / f"profile_{axis}.csv"
            path.write_text(emit_profile(records, axis))
            print(f"wrote {path}")
    return 0


def cmd_profile(args) -> int:
    records = records_from_csv(Path(args.records).read_text())
    out = emit_profile(records, args.axis)
    Path(args.output).write_text(out)
    print(f"wrote {args.output}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldp",
        description="Linear disjunctive programming: reformulations, solver, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--kind", choices=tuple(GENERATORS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build a model and print its statistics")
    p.add_argument("--concept", required=True, choices=sorted(CONCEPTS))
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("reformulate", help="reformulate and print MILP statistics")
    p.add_argument("--concept", required=True, choices=sorted(CONCEPTS))
    p.add_argument("--reform", required=True, choices=REFORMULATIONS)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_reformulate)

    p = sub.add_parser("solve", help="solve one instance with branch-and-bound")
    p.add_argument("--concept", required=True, choices=sorted(CONCEPTS))
    p.add_argument("--reform", required=True, choices=REFORMULATIONS)
    p.add_argument("--instance", required=True)
    _add_solve_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("export-mps", help="write the reformulated MILP as MPS")
    p.add_argument("--concept", required=True, choices=sorted(CONCEPTS))
    p.add_argument("--reform", required=True, choices=REFORMULATIONS)
    p.add_argument("--instance", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export_mps)

    p = sub.add_parser("bench", help="factorial benchmark sweep to CSV")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--gen", choices=tuple(GENERATORS),
                       help="generate the instance suite instead of reading files")
    group.add_argument("--instances", nargs="+", help="instance JSON files")
    p.add_argument("--sizes", default="3:7", help="sizes for --gen, e.g. 3:7 or 4,6")
    p.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per size for --gen")
    p.add_argument("--concepts", required=True, help="comma-separated concept list")
    p.add_argument("--reforms", default="BM,HR,RHR", help="comma-separated reformulations")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--profile-out", default=None,
                   help="directory for profile_time.csv and profile_gap.csv")
    _add_solve_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("profile", help="emit a performance profile from a results CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--axis", choices=("time", "gap"), default="time")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
