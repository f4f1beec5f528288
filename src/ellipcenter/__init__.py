"""Ellipse-center method for strongly convex quadratics, with baselines,
instance generators, theory checks and a benchmark harness."""

from .quadratic import (
    DenseOperator,
    DiagonalOperator,
    EigenBounds,
    QuadraticProblem,
    RankOneOperator,
)
from .solver import (
    Branch,
    EpsilonMode,
    IterationRecord,
    SolveOptions,
    SolverResult,
    StepRecord,
    Termination,
    me_iterate,
    me_solve,
    write_trace_csv,
)
from .baselines import (
    BBVariant,
    bb_solve,
    cg_solve,
    fast_gradient_solve,
    gradient_optimal_step_solve,
    gradient_wolfe_solve,
    wolfe_search,
)
from .generators import (
    InstanceFamily,
    InstanceSpec,
    ProblemFormatError,
    generate,
    instance_metadata,
    load_problem,
    save_problem,
)
from .theory import (
    RateReport,
    dominance_check,
    kantorovich_check,
    level_point_bisection,
    linear_rate_check,
    reference_minimum,
    write_check_results,
)
from .bench import (
    BenchConfig,
    BenchReport,
    BenchRow,
    DEFAULT_METHODS,
    METHODS,
    emit_report,
    run_benchmark,
)

__version__ = "0.1.0"
