"""Average-cost optimal control of piecewise-deterministic Markov processes.

Solver pipeline: load a model file, validate it, audit the growth and
ergodicity assumptions, run policy iteration on the embedded jump chain, and
validate the optimal average cost by Monte Carlo simulation of the
continuous-time process.
"""

from .numerics import Table1D
from .flow import (
    FlowSpec,
    PastBoundaryError,
    advance,
    hit_time,
    flow_derivative,
)
from .model import (
    PdmpModel,
    StateGrid,
    ActionGrid,
    Constants,
    FeedbackPolicy,
    Violation,
    AuditItem,
    AuditReport,
    ModelFormatError,
    DimensionError,
    load_model,
    model_from_dict,
    validate_model,
    audit_assumptions,
    bundled_model_names,
    bundled_model_path,
)
from .operators import (
    OperatorWorkspace,
    refined_workspace,
)
from .evaluation import (
    EvaluationResult,
    EvaluationError,
    ErgodicityError,
    invariant_measure,
    estimate_ergodic_constants,
    evaluate_policy,
)
from .policy_iteration import (
    PiaTrace,
    IterationRecord,
    run_pia,
)
from .simulation import (
    TrajectoryRecord,
    SimulationSummary,
    SimulationTables,
    SimulationError,
    SimulationExplosionError,
    McVerdict,
    prepare_simulation,
    simulate,
    mc_validate,
)

__version__ = "0.1.0"
