"""gldp: linear disjunctive programs, MILP reformulations, and a small solver.

The pipeline is: build a :class:`~gldp.model.GdpModel` (by hand or with the
case-study builders), lower it to a :class:`~gldp.model.MilpModel` with one
of the reformulation passes, and solve with :func:`~gldp.milp.solve_bb`.
Brute-force oracles provide independent ground truth at desk scale.
"""

from .model import (
    EQ,
    GE,
    LE,
    ContinuousVar,
    Disjunct,
    Disjunction,
    GdpModel,
    LinRow,
    LogicRow,
    MilpModel,
    MilpRow,
    MilpVar,
    canonicalize_rows,
    check_assignment,
    validate,
)
from .reformulate import (
    SharedLhsViolation,
    align_disjunction,
    align_model,
    big_m_bound,
    interval_max,
    reformulate_bigm,
    reformulate_hull,
    reformulate_rhr,
    shared_lhs,
)
from .builders import (
    Job,
    Rect,
    SchedulingInstance,
    StripInstance,
    build_gp,
    build_ip,
    build_model,
    build_strip,
    build_ts,
    gen_scheduling,
    gen_strip,
)
from .milp import BBConfig, LpResult, SolveResult, max_violation, solve_bb, solve_lp
from .oracles import (
    HullMask,
    OracleResult,
    PackingWitness,
    ScheduleWitness,
    hull_oracle_1d2d,
    masks_agree_within_band,
    rhr_relaxation_mask,
    sched_oracle,
    strip_oracle,
)
from .mps import export_mps, to_mps_string
from .bench import (
    BenchRecord,
    InstanceFormatError,
    emit_profile,
    load_instance,
    records_from_csv,
    records_to_csv,
    reformulate_model,
    run_bench,
    run_single,
    save_instance,
)

__version__ = "0.1.0"
