"""Homotopy solver for sequences of simplex-constrained quadratic programs.

The core objects are importable from the top level; the benchmark harness
lives in `hones.cli` and is installed as the `hones` console script.
"""

from .baselines import PGResult, pg_warmstart_solve
from .driver import (
    SolverConfig,
    SolverSession,
    StepReport,
    aggregate_reports,
    complexity_bound,
    count_ops,
    init_session,
    rebuild,
    run_sequence,
    step,
)
from .errors import (
    CycleLimit,
    DegenerateDenominator,
    DegenerateError,
    DegeneratePivot,
    EmptySeries,
    EmptySupport,
    HonesError,
    NoConvergence,
    ParseError,
    SingularSubmatrix,
)
from .flows import (
    FlowConfig,
    PriceSeries,
    load_prices,
    markowitz_flow,
    ons_flow,
    save_prices,
    synthetic_flow,
    synthetic_prices,
)
from .kkt import (
    Diagonal,
    Problem,
    Quadruple,
    Support,
    exact_solve,
    kkt_residual,
    oracle_solve,
    project_simplex,
    solve_given_support,
)
from .path_matrix import PathEvent, run_lambda_leg
from .path_vector import run_utilde_leg
from .state import (
    Par1,
    Par2,
    direct_update_par2,
    direct_update_par3,
    init_par1,
    validate_state,
)

__version__ = "0.1.0"
