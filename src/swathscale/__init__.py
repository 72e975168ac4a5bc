"""Affine-scaling interior-point solver for semidefinite and hyperbolic programs."""

from .core import (
    BarrierOracle,
    Membership,
    QuadCone,
    ScheduleConstants,
    dual_cone_member,
    local_inner,
    local_norm,
    primal_cone_member,
    schedule_constants,
)
from .driver import (
    IterationRecord,
    RunStatus,
    SolveResult,
    SolverConfig,
    StepMode,
    alpha_reduction_bound,
    alpha_reduction_run,
    alpha_schedule_next,
    duality_gap,
    next_iterate,
    run,
    step_length,
    step_poly_coeffs,
)
from .errors import (
    ConvexityViolation,
    DegenerateLeadingCoefficient,
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    NotInterior,
    NumericalFailure,
    ParseError,
    RetryExhausted,
    StepBoundViolation,
    SwathscaleError,
)
from .generate import gen_central_path_sdp, gen_hp_instance
from .hpjson import read_hp_json, read_start_point, write_hp_json, write_start_point
from .hyperbolic import (
    HpFamily,
    HpInstance,
    determinant_family,
    elementary_symmetric_family,
    hp_barrier_oracle,
    hyperbolicity_sample_check,
    power_sums,
    power_sums_from_coeffs,
    product_family,
    restricted_coeffs,
    second_order_family,
)
from .sdp import (
    SdpInstance,
    det_barrier_oracle,
    mat_order,
    smat,
    svec,
    sym_dim,
)
from .sdpa import parse_sdpa, write_sdpa
from .subproblem import SubproblemSolution, in_swath, solve_qcp
from .tracefile import export_trace, parse_trace, trace_footer, trace_header

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
